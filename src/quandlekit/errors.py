"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: InputError -> 2, CheckFailed -> 1,
GuardExceeded -> 3.
"""


class QuandleKitError(Exception):
    pass


class InputError(QuandleKitError, ValueError):
    """Malformed table, bad parse, non-unit parameter, etc."""


class CheckFailed(QuandleKitError, ValueError):
    """A validation (axioms, relations, cocycle condition) did not pass."""


class GuardExceeded(QuandleKitError, RuntimeError):
    """An enumeration or table-size guard was exceeded."""


# default bound on the work of an enumeration: candidate colorings, or the
# size^3 axiom checks of an extension table
GUARD = 10 ** 7


def power_text(base: int, exp: int = 1) -> str:
    """base^exp for a guard message: in decimal while it fits in 64 bits,
    else as the power, such as 3^10000, or as a lower bound 2^b when the
    base itself is over 64 bits, so a long count is never written in full."""
    bits = base.bit_length()
    if bits * exp <= 64:
        return str(base ** exp)
    if bits <= 64:
        return f"{base}^{exp}"
    return f"at least 2^{(bits - 1) * exp}"
