import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.errors import (GUARD, GuardExceeded, charge, guarded, power_text,
                               shown)

GUARDS = sorted({-1, 0, 1, 10 ** 7} | {2 ** j + d for j in range(1, 65)
                                      for d in (-1, 0, 1)})


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 60), st.integers(0, 300), st.sampled_from(GUARDS),
       st.sampled_from([1, 0, 2, 7, 2 ** 64, 2 ** 80]))
def test_charge_refuses_exactly_past_the_guard(base, exp, guard, times):
    """charge refuses times * base^exp units exactly when that product is
    over the guard, though it forms no power past exp = guard.bit_length()
    + 1, and says so in one form, the product in decimal or as a power."""
    if times * base ** exp > guard:
        with guarded(guard), pytest.raises(GuardExceeded) as refused:
            charge(base, "widgets", exp, times)
        text = power_text(base, exp, times)
        assert str(refused.value) == f"{text} widgets exceed the guard of {guard}"
        assert text == str(times * base ** exp) or "^" in text
    else:
        with guarded(guard):
            charge(base, "widgets", exp, times)


def test_outside_any_block_charge_is_held_to_GUARD():
    charge(GUARD, "widgets")
    # counts past the 4300 digits that int() writes are given as bounds
    huge = 10 ** 4000
    with pytest.raises(GuardExceeded, match=r"^at least 2\^\(2\^64\) widgets"):
        charge(2 ** 70, "widgets", huge, huge)
    with pytest.raises(GuardExceeded, match=f"^{GUARD + 1} widgets exceed the "
                                            f"guard of {GUARD}$"):
        charge(GUARD + 1, "widgets")


def test_nested_blocks_restore_the_outer_bound():
    with guarded(10):
        with guarded(100):
            charge(100, "widgets")
        with pytest.raises(GuardExceeded, match="11 widgets exceed the guard of 10$"):
            charge(11, "widgets")
        charge(10, "widgets")
    charge(GUARD, "widgets")


def test_a_refusal_inside_a_block_restores_the_bound():
    with pytest.raises(GuardExceeded, match="2 widgets exceed the guard of 1$"):
        with guarded(1):
            charge(2, "widgets")
    charge(GUARD, "widgets")
    with pytest.raises(GuardExceeded, match=f"guard of {GUARD}$"):
        charge(GUARD + 1, "widgets")


def test_shown_cuts_only_past_80_characters():
    """A path is shown as given up to 80 characters, quotes, spaces and
    escapes included, and past that cut, quoted, with its length."""
    for text in ("notafile", "x" * 80, "a b/'c'\\d", ""):
        assert shown(text) == text
    assert shown("x" * 81) == ("'xxxxxxxxxxxxxxxxx...xxxxxxxxxxxxxxxxxx' "
                               "(str of length 81)")
    assert shown("é" * 10 ** 5).endswith(" (str of length 100000)")
    assert len(shown("y" * 10 ** 6)) < 80

