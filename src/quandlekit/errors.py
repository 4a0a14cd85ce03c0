"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: InputError -> 2, CheckFailed -> 1,
GuardExceeded -> 3.
"""

import contextvars
import reprlib


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


class guarded:
    """Hold every `charge` inside the block to `guard`; the outer bound is
    restored on exit, also when the block raises."""

    __slots__ = ("guard", "token")

    def __init__(self, guard: int):
        self.guard = guard

    def __enter__(self):
        self.token = _guard.set(self.guard)

    def __exit__(self, *exc):
        _guard.reset(self.token)


def charge(count: int, what: str, exp: int = 1, times: int = 1) -> None:
    """Refuse times * count^exp units of work past the guard with
    GuardExceeded, "<times * count^exp> <what> exceed the guard of <guard>";
    times is a count >= 0.  Past exp = guard.bit_length() + 1 every count >= 2
    has count^exp > guard, so no larger power is formed."""
    guard = _guard.get()
    if times * count ** min(exp, guard.bit_length() + 1) > guard:
        raise GuardExceeded(f"{power_text(count, exp, times)} {what} exceed the "
                            f"guard of {guard}")


# an input value is quoted in an error message in full up to QUOTED
# characters of its repr, and cut past that
QUOTED = 80


class _Cut(reprlib.Repr):
    def repr_int(self, x, level):
        # repr refuses an int past 4300 digits
        if x.bit_length() > 128:
            return f"<int of {x.bit_length()} bits>"
        return super().repr_int(x, level)


_CUT = _Cut()       # limits set as attributes, as Python 3.10 needs
_CUT.maxlevel, _CUT.maxstring, _CUT.maxlong, _CUT.maxother = 2, 40, 40, 40
_CUT.maxtuple = _CUT.maxlist = _CUT.maxdict = _CUT.maxset = 4
_CUT.maxfrozenset = _CUT.maxdeque = _CUT.maxarray = 4


def quoted(value) -> str:
    """repr(value) for an error message: in full while it is at most QUOTED
    characters, else cut by reprlib and followed by the value's type and
    length, so that no message line grows with the input it quotes."""
    try:
        text = repr(value)
    except (ValueError, RecursionError):    # an int too long, deep nesting
        text = None
    if text is not None and len(text) <= QUOTED:
        return text
    try:
        size = f" of length {len(value)}"
    except TypeError:
        size = ""
    return f"{_CUT.repr(value)} ({type(value).__name__}{size})"


def shown(text) -> str:
    """str(text) for an error message that shows it bare, as a path or a
    label: in full while it is at most QUOTED characters, else in `quoted`'s
    cut form with its length, so that the line stays short."""
    text = str(text)
    return text if len(text) <= QUOTED else quoted(text)


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
