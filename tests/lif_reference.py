"""Test-only LIF oracles for ``snnmesh.model.lif_step_arrays``.

``lif_step`` is the update rule for one neuron in plain integers.
``reference_lif_step_arrays`` is the vectorized update as it stood before
the range proof: every intermediate goes through its own clamp check. The
tests drive these and ``lif_step_arrays`` with the same values and require
identical potentials, fired flags and clamp counts."""

from __future__ import annotations

import numpy as np

from snnmesh.fixedpoint import FRAC_BITS, FX_MAX, FX_MIN, sat


def lif_step(v: int, acc: int, params):
    """One forward-Euler LIF update with dt = one timestep for one neuron:
    v' = v + (-(v - v_rst) + acc/g_l) / tau_m, then threshold-and-reset.
    Returns (v_new, fired, clamps), clamps counting saturated intermediates."""
    clamps = 0

    def _sat(x):
        nonlocal clamps
        out = sat(x)
        clamps += out != x
        return out

    acc0 = _sat(acc)
    drive = _sat((acc0 << FRAC_BITS) // params.g_l)
    leak = _sat(params.v_rst - v)
    inner = _sat(leak + drive)
    dv = _sat((inner << FRAC_BITS) // params.tau_m)
    v_new = _sat(v + dv)
    fired = v_new >= params.v_th
    return (params.v_rst if fired else v_new), fired, clamps


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
