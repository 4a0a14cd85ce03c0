"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: InputError -> 2, CheckFailed -> 1,
GuardExceeded -> 3.
"""

import contextlib
import contextvars


class QuandleKitError(Exception):
    pass


class InputError(QuandleKitError, ValueError):
    """Malformed table, bad parse, non-unit parameter, etc."""


class CheckFailed(QuandleKitError, ValueError):
    """A validation (axioms, relations, cocycle condition) did not pass."""


class GuardExceeded(QuandleKitError, RuntimeError):
    """An enumeration or table-size guard was exceeded."""


# default --guard: the bound that `charge` holds every counted stage to
# outside any `guarded` block
GUARD = 10 ** 7

_guard = contextvars.ContextVar("guard", default=GUARD)


@contextlib.contextmanager
def guarded(guard: int):
    """Hold every `charge` inside the block to `guard`; the outer bound is
    restored on exit, also when the block raises."""
    token = _guard.set(guard)
    try:
        yield
    finally:
        _guard.reset(token)


def charge(count: int, what: str, exp: int = 1) -> None:
    """Refuse count^exp units of work past the guard with GuardExceeded,
    "<count^exp> <what> exceed the guard of <guard>".  Past exp =
    guard.bit_length() + 1 every count >= 2 has count^exp > guard, so no
    larger power is formed."""
    guard = _guard.get()
    if count ** min(exp, guard.bit_length() + 1) > guard:
        raise GuardExceeded(f"{power_text(count, exp)} {what} exceed the "
                            f"guard of {guard}")


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
