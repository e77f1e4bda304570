import pytest
from hypothesis import given, strategies as st

from snnmesh.fixedpoint import (
    FX_MAX,
    FX_MIN,
    SCALE,
    SaturationCounter,
    from_str,
    fx,
    sat,
    to_str,
)

fixed_values = st.integers(min_value=FX_MIN, max_value=FX_MAX)


def test_scale_round_trip_of_small_reals():
    assert fx(1.0) == SCALE
    assert fx(-2.5) == -(5 * SCALE) // 2


def test_sat_clamps_and_counts():
    diag = SaturationCounter()
    assert sat(FX_MAX + 1, diag) == FX_MAX
    assert sat(FX_MIN - 1, diag) == FX_MIN
    assert sat(0, diag) == 0
    assert diag.count == 2


@given(fixed_values)
def test_to_str_round_trips_exactly(v):
    assert from_str(to_str(v)) == v


@given(fixed_values, fixed_values)
def test_addition_commutes_trivially(a, b):
    assert sat(a + b) == sat(b + a)


def test_from_str_rejects_unrepresentable():
    with pytest.raises(ValueError):
        from_str("0.1")  # not a dyadic fraction
    with pytest.raises(ValueError):
        from_str("100000")  # above the Q16.16 range


def test_to_str_is_plain_decimal():
    assert to_str(fx(1.5)) == "1.5"
    assert to_str(fx(-0.25)) == "-0.25"
    assert to_str(0) == "0"
    assert to_str(1) == "0.0000152587890625"  # the smallest step
