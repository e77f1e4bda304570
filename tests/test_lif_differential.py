"""Differential tests: ``snnmesh.model.lif_step_arrays``, which skips the
clamps when the ranges of its inputs prove that no intermediate can leave
Q16.16, against the step-by-step clamping update kept in ``lif_reference``.
Both must agree on the new potentials, the fired mask and the clamp count."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from lif_reference import reference_lif_step_arrays
from snnmesh.model import lif_bounds, lif_step_arrays

ONE = 1 << 16  # 1.0 in Q16.16
EDGE = 1 << 31  # the Q16.16 limits are -EDGE and EDGE - 1


def near(x, spread):
    return st.integers(x - spread, x + spread)


# potentials and accumulators: ordinary values, and values near and past
# the Q16.16 limits
values = st.one_of(st.integers(-(1 << 24), 1 << 24),
                   *(near(x, 1 << 22) for x in (EDGE, -EDGE, EDGE // 2, -EDGE // 2)))
# g_l and tau_m: near 1.0, and from 1 up to large values
divisors = st.one_of(near(ONE, 1 << 12), st.integers(1, 1 << 17),
                     st.integers(1, EDGE - 1))
resets = st.one_of(st.integers(-(1 << 22), 1 << 22),
                   *(near(x, 1 << 22) for x in (EDGE - (1 << 22), -EDGE + (1 << 22))))
thresholds = st.integers(1, 1 << 20)  # v_th - v_rst
STEPS = ("acc", "drive", "leak", "inner", "dv", "v_new")


@st.composite
def edge_rows(draw):
    """A row whose update brings one intermediate (``STEPS``) near a limit:
    the inputs are solved back from the intermediate's target value."""
    v, acc, tau, g, vr = (draw(values), draw(values), draw(divisors),
                          draw(divisors), draw(resets))
    step = draw(st.sampled_from(STEPS))
    target = draw(st.sampled_from((-1, 1))) * draw(near(EDGE, 1 << 20))
    if step == "leak":
        v = vr - target
    elif step != "acc":
        if step == "v_new":
            target = (target - v) * tau >> 16  # dv -> inner
        elif step == "dv":
            target = target * tau >> 16  # dv -> inner
        if step != "drive":
            target -= vr - v  # inner -> drive
        target = target * g >> 16  # drive -> acc
    if step != "leak":
        acc = target
    return v, acc, tau, g, vr, draw(thresholds)


# (v, acc, tau_m, g_l, v_rst, v_th - v_rst)
rows = st.one_of(st.tuples(values, values, divisors, divisors, resets, thresholds),
                 edge_rows())


def assert_matches_reference(slice_rows) -> int:
    """Run both updates on one slice; returns the reference clamp count."""
    cols = [np.array(c, dtype=np.int64) for c in zip(*slice_rows)] or [
        np.zeros(0, dtype=np.int64)] * 6
    v, acc, tau, g, vr, dth = cols
    vth = vr + dth
    want_v, want_fired, want_clamps = reference_lif_step_arrays(v, acc, tau, g, vr, vth)
    runs = [lif_step_arrays(v, acc, tau, g, vr, vth)]
    if len(v):
        runs.append(lif_step_arrays(v, acc, tau, g, vr, vth, lif_bounds(tau, g, vr)))
    for got_v, got_fired, got_clamps in runs:
        assert got_v.tolist() == want_v.tolist()
        assert got_fired.tolist() == want_fired.tolist()
        assert got_clamps == want_clamps
    return want_clamps


# One row per range check that only that check refuses: in order, the
# accumulator, the drive, the leak, their sum, dv, and the new potential.
@example((0, EDGE + 5, 1 << 20, 1 << 20, 0, 1))
@example((1 << 26, EDGE - 1, 1 << 20, ONE - 1000, 0, 1))
@example((-EDGE + 10, -(1 << 22), ONE, ONE, 1 << 20, 1))
@example((-(1 << 30), EDGE - 1, 1 << 20, ONE, EDGE - 1 - (1 << 30), 1))
@example((-EDGE + 10, 0, ONE - 100, ONE, -(1 << 20), 1))
@example((EDGE - 10, 1 << 30, ONE, ONE, EDGE - 100, 1))
@given(rows)
@settings(max_examples=600, deadline=None)
def test_lif_row_matches_reference(row):
    assert_matches_reference([row])


@example([])
@given(st.lists(rows, max_size=8))
@settings(max_examples=200, deadline=None)
def test_lif_slice_matches_reference(slice_rows):
    assert_matches_reference(slice_rows)


def test_proof_refuses_a_slice_that_clamps():
    # one row's drive overflows (g_l = 1/65536) among ordinary rows
    ordinary = (3 * ONE, 5 * ONE, 2 * ONE, ONE, 0, 16 * ONE)
    assert assert_matches_reference([ordinary, (0, EDGE - 1, ONE, 1, 0, 1), ordinary]) == 1


def test_proof_refuses_loose_bounds_without_clamping():
    # each leak is in range, but the slice's v_rst and v ranges together
    # bound it past the limit, so the proof must refuse; nothing clamps
    assert assert_matches_reference([(-EDGE + 10, 0, ONE, ONE, -EDGE + 10, 1),
                                      (0, 0, ONE, ONE, 1 << 30, 1)]) == 0


def test_ordinary_slices_match_reference():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        slice_rows = list(zip(
            rng.integers(-16 * ONE, 16 * ONE, n).tolist(),
            rng.integers(-64 * ONE, 64 * ONE, n).tolist(),
            rng.integers(ONE, 4 * ONE, n).tolist(),
            [ONE] * n,
            rng.integers(0, 4 * ONE, n).tolist(),
            [16 * ONE] * n,
        ))
        assert assert_matches_reference(slice_rows) == 0
