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


class SaturationCounter:
    """Diagnostics counter: overflow saturates instead of raising."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"SaturationCounter(count={self.count})"


def sat(x: int, diag: SaturationCounter | None = None) -> int:
    """Clamp to the signed 32-bit range, counting clamp events."""
    if x > FX_MAX:
        if diag is not None:
            diag.count += 1
        return FX_MAX
    if x < FX_MIN:
        if diag is not None:
            diag.count += 1
        return FX_MIN
    return x


def fx(value: float | int | str) -> int:
    """Convert a real value to Q16.16 (nearest representable)."""
    if isinstance(value, str):
        return from_str(value)
    return sat(int(round(value * SCALE)))


def to_str(v: int) -> str:
    """Exact decimal string for a Q16.16 value (integer arithmetic only)."""
    sign = "-" if v < 0 else ""
    mag = abs(v)
    ipart, frac = divmod(mag, SCALE)
    if frac == 0:
        return f"{sign}{ipart}"
    digits = f"{frac * _POW5:0{FRAC_BITS}d}".rstrip("0")
    return f"{sign}{ipart}.{digits}"


def from_str(s: str) -> int:
    """Parse an exact decimal string back to Q16.16."""
    value = Fraction(s) * SCALE
    if value.denominator != 1:
        raise ValueError(f"{s!r} is not representable in Q16.16")
    v = int(value)
    if v > FX_MAX or v < FX_MIN:
        raise ValueError(f"{s!r} is outside the Q16.16 range")
    return v
