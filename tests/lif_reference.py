"""The vectorized LIF update as it stood before the range proof: every
intermediate goes through its own clamp check. Test-only: the differential
tests drive it and ``snnmesh.model.lif_step_arrays`` with the same slices
and require identical results."""

from __future__ import annotations

import numpy as np

from snnmesh.fixedpoint import FRAC_BITS, FX_MAX, FX_MIN


def reference_lif_step_arrays(v, acc, tau_m, g_l, v_rst, v_th):
    """Returns (v_new, fired, clamps), clamping step by step."""
    clamps = 0

    def _sat(x):
        nonlocal clamps
        if not x.size or (FX_MIN <= int(x.min()) and int(x.max()) <= FX_MAX):
            return x
        out = np.clip(x, FX_MIN, FX_MAX)
        clamps += int(np.count_nonzero(out != x))
        return out

    acc0 = _sat(acc)
    drive = _sat((acc0 << FRAC_BITS) // g_l)
    leak = _sat(v_rst - v)
    inner = _sat(leak + drive)
    dv = _sat((inner << FRAC_BITS) // tau_m)
    v_new = _sat(v + dv)
    fired = v_new >= v_th
    v_new = np.where(fired, v_rst, v_new)
    return v_new, fired, clamps
