from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from snnmesh.fixedpoint import (
    FX_MAX,
    FX_MIN,
    SCALE,
    from_str,
    fx,
    sat,
    to_str,
)

fixed_values = st.integers(min_value=FX_MIN, max_value=FX_MAX)


def test_scale_round_trip_of_small_reals():
    assert fx(1.0) == SCALE
    assert fx(-2.5) == -(5 * SCALE) // 2


def test_sat_clamps_to_the_signed_32_bit_range():
    assert sat(FX_MAX + 1) == FX_MAX
    assert sat(FX_MIN - 1) == FX_MIN
    assert sat(FX_MAX) == FX_MAX
    assert sat(FX_MIN) == FX_MIN
    assert sat(0) == 0


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


@pytest.mark.parametrize("s", [True, False])
def test_from_str_rejects_a_bool(s):
    with pytest.raises(ValueError, match="not a fixed-point number"):
        from_str(s)


def test_to_str_is_plain_decimal():
    assert to_str(fx(1.5)) == "1.5"
    assert to_str(fx(-0.25)) == "-0.25"
    assert to_str(0) == "0"
    assert to_str(1) == "0.0000152587890625"  # the smallest step


def _fraction_from_str(s):
    """The Fraction-only parser ``from_str`` replaced, kept as an oracle;
    like ``from_str`` it refuses a bool, which ``Fraction`` reads as 0 or 1."""
    if type(s) is bool:
        raise ValueError(f"{s!r} is not a fixed-point number")
    value = Fraction(s) * SCALE
    if value.denominator != 1:
        raise ValueError(f"{s!r} is not representable in Q16.16")
    v = int(value)
    if v > FX_MAX or v < FX_MIN:
        raise ValueError(f"{s!r} is outside the Q16.16 range")
    return v


def _outcome(parse, s):
    try:
        return parse(s)
    except Exception as exc:  # noqa: BLE001 -- the class is the outcome
        return type(exc)


_digits = st.text(alphabet="0123456789", max_size=20)
_decimal_like = st.builds(
    lambda sign, ip, point, fp, tail: f"{sign}{ip}{point}{fp}{tail}",
    st.sampled_from(["", "-", "+", " ", "--", " -"]),
    _digits,
    st.sampled_from(["", ".", ".."]),
    _digits,
    st.sampled_from(["", " ", "e-1", "E2", "/4", "_0", "\n", "x"]),
)


@given(st.one_of(
    fixed_values.map(to_str),
    _decimal_like,
    st.text(alphabet="0123456789-+._/eE \t", max_size=30),
    st.text(max_size=12),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
))
def test_from_str_agrees_with_fraction_parser(s):
    assert _outcome(from_str, s) == _outcome(_fraction_from_str, s)


@pytest.mark.parametrize("s", [
    "-.5", ".5", "5.", "1e-1", "3/4", "+1", " 1", "1_0", "0.5000000000000000000",
    "0.00000762939453125", "-32768", "32768", "-32768.0000152587890625",
    "١.٥", "1" * 70, "0" * 3000 + "." + "0" * 3000, "", "-", ".", None,
    True, 1.5,
], ids=lambda s: repr(s)[:24])
def test_from_str_agrees_with_fraction_parser_on_edges(s):
    assert _outcome(from_str, s) == _outcome(_fraction_from_str, s)
