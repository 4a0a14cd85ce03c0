"""Exact integer and modular linear algebra.

Matrices are plain lists of lists of Python ints (arbitrary precision);
there is deliberately no floating point anywhere in this package.

Kernels, inverses and invertibility mod N, cokernels and cohomology share
one elimination over each Z/p^e in N (`_local_homology`), merged by CRT.
Its rows are sparse {column: residue} dicts, as `homology` builds delta;
dense input is converted once.  It takes the p-valuations in turn, least
first, and at valuation v the row with the fewest entries that has an
entry of valuation v pivots, the first in row order on a tie, at its
lowest column of valuation v; over a prime the pivot columns are the RREF's.
The lattice route over Z and Q has no caller in the package.  Kept only
while `bench/tracing.py` names them in LAYERS, as the tests' references:
`smith_normal_form` with `SnfResult` and its five row and column helpers,
`int_kernel`, `lattice_basis`, `solve_exact`, `quotient_invariant_factors`
and `mat_frac_inverse`, with the `fractions` and `dataclass` imports.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Optional

from .errors import GuardExceeded, InputError
from .laurent import _bareiss

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> Matrix:
    return [[0] * c for _ in range(r)]


def mat_mul(a: Matrix, b: Matrix, mod: Optional[int] = None) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik == 0:
                continue
            bk = b[k]
            for j in range(cols):
                oi[j] += aik * bk[j]
        if mod is not None:
            for j in range(cols):
                oi[j] %= mod
    return out


def mat_add(a: Matrix, b: Matrix, mod: int) -> Matrix:
    return [[(x + y) % mod for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix, mod: int) -> Matrix:
    return [[(x - y) % mod for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c: int, a: Matrix, mod: int) -> Matrix:
    return [[c * x % mod for x in row] for row in a]


def mat_vec(a: Matrix, v: list[int], mod: int) -> list[int]:
    return [sum(map(operator.mul, row, v)) % mod for row in a]


def mat_frac_inverse(a: Matrix) -> list[list[Fraction]]:
    """Exact inverse over Q by Gauss-Jordan; raises on singular input."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            raise InputError("matrix is singular over Q")
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def int_det(a: Matrix) -> int:
    """Exact determinant: the package's one Bareiss loop, `laurent._bareiss`."""
    return _bareiss(a)


def _require_modulus(n) -> None:
    """The one modulus rule: InputError "modulus <n> is not a positive
    integer" unless n is an int >= 1 (not True, an int to isinstance).  Every
    modular entry point here and every table of matrices frozen mod n by
    `algebra._freeze` meets it before any entry is reduced."""
    if type(n) is not int or n < 1:
        raise InputError(f"modulus {n!r} is not a positive integer")


def mat_inv_mod(a: Matrix, n: int) -> Matrix:
    """Inverse mod n: column i is the a-part of the kernel vector of
    [a | -I] at column k + i, once every column of a is a unit pivot."""
    _require_modulus(n)
    k = len(a)
    aug = [{**row, k + i: n - 1} for i, row in enumerate(_sparse(a, n))]  # [a | -I]
    gens = _kernel_by_column(aug, 2 * k, n)
    if any(map(any, gens[:k])):
        raise InputError(f"matrix is not invertible mod {n}")
    return [list(row) for row in zip(*(g[:k] for g in gens[k:]))]


def is_invertible_mod(a: Matrix, n: int) -> bool:
    """A square matrix over Z_n is invertible exactly when it is onto."""
    return not cokernel_mod(a, n)


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass
class SnfResult:
    diag: list[int]             # invariant factors d1 | d2 | ... , all >= 1
    rows: int
    cols: int
    u: Optional[Matrix] = None  # unimodular, u @ m @ v == diag-rectangular
    v: Optional[Matrix] = None

    @property
    def rank(self) -> int:
        return len(self.diag)


def _swap_rows(m, u, i, j):
    m[i], m[j] = m[j], m[i]
    if u is not None:
        u[i], u[j] = u[j], u[i]


def _swap_cols(m, v, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]
    if v is not None:
        for row in v:
            row[i], row[j] = row[j], row[i]


def _add_row(m, u, dst, src, c):
    m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
    if u is not None:
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]


def _add_col(m, v, dst, src, c):
    for row in m:
        row[dst] += c * row[src]
    if v is not None:
        for row in v:
            row[dst] += c * row[src]


def _negate_row(m, u, i):
    m[i] = [-x for x in m[i]]
    if u is not None:
        u[i] = [-x for x in u[i]]


def smith_normal_form(mat: Matrix, transforms: bool = False) -> SnfResult:
    """Smith normal form over Z with min-|pivot| selection.

    Returns invariant factors (1s included) and, when requested, unimodular
    U (rows x rows) and V (cols x cols) with U*M*V equal to the diagonal form.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    m = [list(row) for row in mat]
    u = identity(rows) if transforms else None
    v = identity(cols) if transforms else None

    t = 0
    while t < min(rows, cols):
        # locate pivot of minimal absolute value in the trailing submatrix
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = m[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    piv = (i, j)
        if piv is None:
            break
        _swap_rows(m, u, t, piv[0])
        _swap_cols(m, v, t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    _add_row(m, u, i, t, -q)
                    if m[i][t] != 0:
                        _swap_rows(m, u, t, i)
                        dirty = True
            # clear row t
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    _add_col(m, v, j, t, -q)
                    if m[t][j] != 0:
                        _swap_cols(m, v, t, j)
                        dirty = True
            if not dirty:
                break
        # divisibility fix-up: pivot must divide every later entry
        fixed = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    _add_row(m, u, t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if m[t][t] < 0:
            _negate_row(m, u, t)
        t += 1

    diag = [m[i][i] for i in range(min(rows, cols)) if m[i][i] != 0]
    return SnfResult(diag=diag, rows=rows, cols=cols, u=u, v=v)


def int_kernel(mat: Matrix) -> list[list[int]]:
    """Basis (as column vectors) of the integer kernel lattice of mat."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[int(i == j) for i in range(cols)] for j in range(cols)]
    res = smith_normal_form(mat, transforms=True)
    r = res.rank
    return [[res.v[i][j] for i in range(cols)] for j in range(r, cols)]


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Pollard's rho steps allowed in factoring one modulus, over all its
# composite parts: a prime factor p takes about sqrt(p) steps, so every
# modulus with at most one prime factor over about 10^10 factors in time
RHO_STEPS = 2 * 10 ** 5


def _probable_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases; exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_powers(n: int) -> dict[int, int]:
    """{p: e} with n the product of the p^e; {} if n = 1.  A composite part
    gives up a small prime factor or is split by Pollard's rho, within
    RHO_STEPS steps in all (GuardExceeded past them)."""
    _require_modulus(n)
    out: dict[int, int] = {}
    todo = [n] if n > 1 else []
    steps = 0
    while todo:
        m = todo.pop()
        if _probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, c = next((p for p in _BASES if m % p == 0), m), 1
        while d == m:               # rho on x -> x^2 + c, Floyd's cycle test
            x = y = 2
            d = 1
            while d == 1:
                steps += 1
                if steps > RHO_STEPS:
                    raise GuardExceeded(
                        f"factoring a {m.bit_length()}-bit part of the modulus "
                        f"took over {RHO_STEPS} steps of Pollard's rho")
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                d = math.gcd(x - y, m)
            c += 1
        todo += [d, m // d]
    return out


def _subtract(dst: dict, f: int, src: dict, q: int) -> None:
    """dst -= f * src over Z/q, in place, on {index: residue} rows that
    keep only nonzero residues."""
    for k, y in src.items():
        z = (dst.get(k, 0) - f * y) % q
        if z:
            dst[k] = z
        else:
            dst.pop(k, None)


def _eliminate(rows: list, b: list, p: int, e: int, basis) -> list[int]:
    """Reduce the rows of a, {column: residue mod p^e} dicts, in place, and
    give each column's pivot valuation, e for a column without a pivot.
    Valuations are taken in turn, least first: among the rows with an entry
    of the current valuation v the one with the fewest entries pivots, the
    first in row order on a tie, at its lowest column of valuation v.  So
    p^v divides every entry left and entries stay below p^e; over a prime
    each row pivots at its leading entry, and the pivot columns are those
    of the RREF whatever the order of the pivots.  The pivot's column is
    cleared by row operations, which never give a row an entry of valuation
    v that it lacked, and a row that empties is dropped.  The column
    operations that clear the pivot row are recorded in `basis`, one vector
    per column when it is given, and act on the rows of b, one per column of
    a, as the inverse row operations."""
    q = p ** e
    val = [e] * len(b)
    track = any(b)                  # b rows stay zero once all are
    for v in range(e):
        pv = p ** v
        above = pv * p              # leaves a remainder at valuation v
        last = v == e - 1           # every entry left is of valuation e - 1
        cand, later = list(filter(None, rows)), []
        while cand:
            row = cand[0]
            if len(row) > 1:        # else no row is sparser
                row = min(cand, key=len)
            cand.remove(row)        # the first row equal to it is itself
            if not last and math.gcd(q, *row.values()) != pv:
                later.append(row)   # it has no entry of valuation v left
                continue
            c = min(row)
            if not (last or row[c] % above):
                c = min(compress(row, map(above.__rmod__, row.values())))
            inv = pow(row.pop(c) // pv, -1, q)
            val[c] = v
            emptied = False
            for other in cand + later if later else cand:
                x = other.pop(c, 0)
                if x:
                    _subtract(other, x // pv * inv, row, q)
                    if not other:
                        emptied = True
            if emptied:
                cand = list(filter(None, cand))
            if basis or track:
                for k, x in row.items():
                    f = x // pv * inv % q
                    if basis:
                        _subtract(basis[k], f, basis[c], q)
                    if track:
                        _subtract(b[c], -f, b[k], q)
            row.clear()
    return val


def _sparse(mat, n: int) -> list[dict]:
    """Dense rows as {column: residue mod n} dicts without zeros."""
    return [{j: y for j, x in enumerate(row) if x and (y := x % n)} for row in mat]


def _local_homology(a: list, b: list, p: int, e: int, n: int,
                    kernel: bool = True) -> tuple[list[int], list[dict]]:
    """Exponents v >= 1 of the factors Z/p^v of ker(a)/im(b) over Z/p^e,
    where b has one row per column of a and a.b = 0, and one sparse vector
    of ker(a) per column of a.  Rows are {column: residue mod n} dicts, p^e
    dividing n, used up when n = p^e and else copied mod p^e.  `_eliminate`
    reduces them and the column-transform vectors: at each valuation v,
    least first, the row with the fewest entries among those with an entry
    of valuation v pivots, at its lowest column of valuation v.  Each pivot
    p^v leaves the kernel coordinate p^(e-v) Z/p^e = Z/p^v, whose vector is
    the column's times p^(e-v) and whose row of b is a multiple of p^(e-v);
    a column without one leaves Z/p^e.  The quotient is the cokernel of
    those rows, divided down, beside the relations p^v; over Z/p^e a
    cokernel of c is ker(c^T)/0, found by the same loop.  With kernel=False
    no column-transform or kernel vectors are kept."""
    q = p ** e
    if q != n:                      # the other prime powers of n reuse the rows
        a, b = ([{j: y for j, x in row.items() if (y := x % q)} for row in m]
                for m in (a, b))
    basis = [{k: 1} for k in range(len(b))] if kernel else None
    val = _eliminate(a, b, p, e, basis)
    gens = [{k: y for k, x in vec.items() if (y := x * p ** (e - v) % q)}
            for vec, v in zip(basis or [], val)]
    if not any(b):
        return [v for v in val if v], gens
    if any(x % (q // p ** v) for row, v in zip(b, val) for x in row.values()):
        raise InputError("a.b is not zero")
    exps = [v for v in val if v]
    by_col: dict = {}               # the rows of b with a pivot, transposed
    for r, (row, v) in enumerate((row, v) for row, v in zip(b, val) if v):
        for t, x in row.items():
            by_col.setdefault(t, {})[r] = x // (q // p ** v)
    ct = [*by_col.values()] + [{r: p ** v} for r, v in enumerate(exps) if v < e]
    return [v for v in _eliminate(ct, [{}] * len(exps), p, e, None) if v], gens


def _ker_mod_im(a: list, b: list, modulus: int) -> list[int]:
    """Invariant factors > 1 of ker(a)/im(b) over Z_N, ascending, given
    sparse rows with a.b = 0 (mod N) and one row of b per column of a.

    Computed over Z/p^e for each prime power of N, with the local factors
    multiplied together from the largest down (Chinese remaindering)."""
    factors: list[int] = []         # descending
    for p, e in _prime_powers(modulus).items():
        exps = sorted(_local_homology(a, b, p, e, modulus, False)[0], reverse=True)
        factors += [1] * (len(exps) - len(factors))
        for i, v in enumerate(exps):
            factors[i] *= p ** v
    return factors[::-1]


def cokernel_mod(mat: Matrix, modulus: int) -> list[int]:
    """Invariant factors > 1 of (Z_N)^rows / column-span(mat), ascending;
    the trivial group is the empty list.  Over Z/p^e it is ker(mat^T)/0."""
    _require_modulus(modulus)
    return _ker_mod_im(_sparse(zip(*mat), modulus), [{}] * len(mat), modulus)


def _kernel_by_column(rows: list, cols: int, n: int) -> Matrix:
    """One vector of ker over Z_N for each of the `cols` columns of rows
    that `_local_homology` reads: its local vectors at each prime power p^e
    of N, added up with the idempotent that is 1 mod p^e and 0 mod N/p^e.
    They generate the kernel, and a column's vector is zero exactly when the
    column is a unit pivot at every prime."""
    out = zeros(cols, cols)
    for p, e in _prime_powers(n).items():
        idem = n // p ** e * pow(n // p ** e, -1, p ** e)
        for g, h in zip(out, _local_homology(rows, [{}] * cols, p, e, n)[1]):
            for k, x in h.items():
                g[k] = (g[k] + idem * x) % n
    return out


def kernel_mod(mat: Matrix, n: int) -> Matrix:
    """Generators of the null space of mat over Z_N, one for each column
    that is not a unit pivot at every prime of N; none mod 1."""
    _require_modulus(n)
    cols = len(mat[0]) if mat else 0
    return [g for g in _kernel_by_column(_sparse(mat, n), cols, n) if any(g)]


def kernel_mod_p(mat: Matrix, p: int) -> list[list[int]]:
    """Echelonized basis of the null space of mat over Z_p: the pivots of
    `kernel_mod` are those of the RREF, and a free column's vector is 1
    there and 0 at the other free columns."""
    _require_modulus(p)
    if not _probable_prime(p):
        raise InputError(f"{p} is not prime")
    return kernel_mod(mat, p)


def solve_exact(b: Matrix, m: Matrix) -> Matrix:
    """Solve B Y = M over Z for square invertible B; entries must come out integral."""
    binv = mat_frac_inverse(b)
    rows = len(binv)
    cols = len(m[0]) if m else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            x = sum(binv[i][k] * m[k][j] for k in range(rows))
            assert x.denominator == 1, "solution is not integral"
            row.append(int(x))
        out.append(row)
    return out


def lattice_basis(gens: list[list[int]], dim: int) -> Matrix:
    """Square basis matrix (columns) of the full-rank lattice spanned by gens.

    `gens` are column vectors of length dim; the lattice must have rank dim.
    """
    if not gens:
        raise InputError("empty generating set for a full-rank lattice")
    g = [[gens[j][i] for j in range(len(gens))] for i in range(dim)]
    res = smith_normal_form(g, transforms=True)
    if res.rank != dim:
        raise InputError("generators do not span a full-rank lattice")
    # columns of G*V equal U^-1 * D; lattice basis = d_i * (U^-1 e_i)
    uinv = mat_frac_inverse(res.u)
    basis = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            x = uinv[i][j] * res.diag[j]
            assert x.denominator == 1
            basis[i][j] = int(x)
    return basis


def quotient_invariant_factors(sub_gens: list[list[int]],
                               lat_gens: list[list[int]],
                               dim: int) -> list[int]:
    """Invariant factors > 1 of L/M for lattices M <= L <= Z^dim, both full rank."""
    bl = lattice_basis(lat_gens, dim)
    m = [[sub_gens[j][i] for j in range(len(sub_gens))] for i in range(dim)]
    y = solve_exact(bl, m)
    res = smith_normal_form(y)
    if res.rank != dim:
        raise InputError("subgroup is not finite index in the lattice")
    return [d for d in res.diag if d > 1]
