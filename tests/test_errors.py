import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.errors import GuardExceeded, charge, power_text

GUARDS = sorted({-1, 0, 1, 10 ** 7} | {2 ** j + d for j in range(1, 65)
                                      for d in (-1, 0, 1)})


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 60), st.integers(0, 300), st.sampled_from(GUARDS))
def test_charge_refuses_exactly_past_the_guard(base, exp, guard):
    """charge refuses base^exp units exactly when base**exp > guard, though
    it forms no power past exp = guard.bit_length() + 1, and says so in one
    form."""
    if base ** exp > guard:
        with pytest.raises(GuardExceeded) as refused:
            charge(base, "widgets", guard, exp)
        assert str(refused.value) == (f"{power_text(base, exp)} widgets exceed "
                                      f"the guard of {guard}")
    else:
        charge(base, "widgets", guard, exp)

