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


def charge(count: int, what: str, exp: int = 1, times: int = 1) -> None:
    """Refuse times * count^exp units of work past the guard with
    GuardExceeded, "<times * count^exp> <what> exceed the guard of <guard>";
    times is a count >= 0.  Past exp = guard.bit_length() + 1 every count >= 2
    has count^exp > guard, so no larger power is formed."""
    guard = _guard.get()
    if times * count ** min(exp, guard.bit_length() + 1) > guard:
        raise GuardExceeded(f"{power_text(count, exp, times)} {what} exceed the "
                            f"guard of {guard}")


def power_text(base: int, exp: int = 1, times: int = 1) -> str:
    """times * base^exp for a guard message: in decimal while it fits in 64
    bits, else as the product, such as 3^10000 or 5 * 3^10000, or as a lower
    bound 2^b when base or times is over 64 bits (2^(2^64) past that), so a
    long count is never written in full."""
    bits = base.bit_length()
    if base < 2 or bits * exp <= 64:
        total = times * base ** exp
        if total.bit_length() <= 64:
            return str(total)
    if bits <= 64 and times.bit_length() <= 64:
        return f"{base}^{exp}" if times == 1 else f"{times} * {base}^{exp}"
    bound = max(bits - 1, 0) * exp + times.bit_length() - 1
    return f"at least 2^{bound}" if bound.bit_length() <= 64 else "at least 2^(2^64)"
