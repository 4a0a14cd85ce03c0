"""`linalg._ker_mod_im` on dense matrices, the form the tests write their
reference matrices in; the package hands it sparse rows only."""

from quandlekit.linalg import Matrix, _ker_mod_im, _sparse


def ker_mod_im(a: Matrix, b: Matrix, modulus: int) -> list[int]:
    """Invariant factors > 1 of ker(a)/im(b) over Z_N, ascending, given
    a.b = 0 (mod N) with one row of b per column of a."""
    return _ker_mod_im(_sparse(a, modulus), _sparse(b, modulus), modulus)
