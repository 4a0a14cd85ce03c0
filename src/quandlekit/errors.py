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
