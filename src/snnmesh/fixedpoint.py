"""Signed Q16.16 fixed-point arithmetic.

All neuron math runs on 32-bit saturating fixed point. Integer addition
commutes, so spike arrival order can never perturb an accumulator, and every
intermediate value is clamped the same way on every code path. That is the
ground on which the bit-exact cross-mode raster comparison stands.
"""

from __future__ import annotations

from fractions import Fraction

FRAC_BITS = 16
SCALE = 1 << FRAC_BITS
FX_MAX = (1 << 31) - 1
FX_MIN = -(1 << 31)

# 1/2**16 == 5**16/10**16, so every Q16.16 value has an exact decimal form
# with at most 16 fractional digits.
_POW5 = 5**FRAC_BITS
# The exact form of a Q16.16 value has at most 23 characters. Longer strings
# take the Fraction path: int() refuses digit strings past a length limit
# that Fraction, which parses the two parts apart, does not reach.
_FAST_LEN = 64
_POW10 = [10**k for k in range(_FAST_LEN)]


def sat(x: int) -> int:
    """Clamp to the signed 32-bit range."""
    return FX_MAX if x > FX_MAX else FX_MIN if x < FX_MIN else x


def fx(value: float | int) -> int:
    """Convert a real value to Q16.16 (nearest representable); ``from_str``
    parses a decimal string."""
    return sat(int(round(value * SCALE)))


def to_str(v: int) -> str:
    """Exact decimal string for a Q16.16 value (integer arithmetic only)."""
    sign = "-" if v < 0 else ""
    mag = abs(v)
    ipart, frac = divmod(mag, SCALE)
    if frac == 0:
        return f"{sign}{ipart}"
    digits = ("%0*d" % (FRAC_BITS, frac * _POW5)).rstrip("0")
    return f"{sign}{ipart}.{digits}"


def from_str(s: str) -> int:
    """Parse an exact decimal string back to Q16.16.

    ``-?digits[.digits]`` is parsed with integer arithmetic; any other input
    (a sign other than a leading ``-``, a missing part, an exponent, a ratio,
    whitespace, underscores, a non-string) takes the ``Fraction`` path, so
    both accept and reject the same inputs. A ``bool`` is not a number here:
    JSON's ``true`` would otherwise read as 1.
    """
    if type(s) is str and len(s) <= _FAST_LEN:
        ip, point, fp = s.partition(".")
        if (ip[1:] if ip[:1] == "-" else ip).isdecimal() and (
                fp.isdecimal() or not point):
            v, rem = divmod(int(ip + fp) << FRAC_BITS, _POW10[len(fp)])
            return _checked(s, v, rem)
    if type(s) is bool:
        raise ValueError(f"{s!r} is not a fixed-point number")
    value = Fraction(s) * SCALE
    return _checked(s, value.numerator, value.denominator != 1)


def _checked(s: str, v: int, inexact) -> int:
    if inexact:
        raise ValueError(f"{s!r} is not representable in Q16.16")
    if v > FX_MAX or v < FX_MIN:
        raise ValueError(f"{s!r} is outside the Q16.16 range")
    return v
