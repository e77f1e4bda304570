"""Differential tests: the one-pass arbiter in ``snnmesh.noc.MeshNoc`` against
the three-pass arbiter kept in ``noc_reference.ReferenceNoc``. Both are driven
with the same packets at the same cycles, the way the engine drives them, and
must agree on every delivery (by packet identity and cycle), on the event
schedule, and on every counter and histogram."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from noc_reference import ReferenceNoc
from snnmesh import engine
from snnmesh.compiler import compile_network, load_program
from snnmesh.engine import SimConfig, run
from snnmesh.model import gen_layered
from snnmesh.noc import (
    DEP,
    FLAG_FINISH,
    FLAG_START,
    SPIKE,
    DepBody,
    MeshNoc,
    Packet,
    SpikeBody,
)

FIXTURES = Path(__file__).parent / "fixtures"


@st.composite
def noc_scenarios(draw):
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cfg = dict(
        n_vc=draw(st.integers(1, 4)),
        fifo_depth=draw(st.integers(1, 4)),
        cycles_per_hop=draw(st.integers(1, 3)),
        inter_cluster_slowdown=draw(st.integers(1, 4)),
        cluster_size=draw(st.integers(1, 3)),
    )
    xy = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    # (inject cycle, kind, src, dst, timestep); few timesteps so that FINISH
    # packets often sit behind spikes they vouch for
    stream = draw(st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from(["SPIKE", "START", "FINISH"]),
                  xy, xy, st.integers(0, 3)),
        min_size=1, max_size=60,
    ))
    return (w, h), cfg, stream


def _packet(i, kind, src, dst, t):
    if kind == "SPIKE":
        return Packet(kind=SPIKE, src_core=i, dst_core=i, src_xy=src, dst_xy=dst,
                      body=SpikeBody(synapse_id=i, delay=1, timestep=t))
    flag = FLAG_START if kind == "START" else FLAG_FINISH
    return Packet(kind=DEP, src_core=i, dst_core=i, src_xy=src, dst_xy=dst,
                  body=DepBody(timestep=t, flag=flag, dep_id=i))


def _drive(noc, injections, limit=100_000):
    """Engine-style clock: land, inject, arbitrate, then jump to the next
    cycle at which something can happen. Returns the per-cycle deliveries."""
    log = []
    cycle = 0
    pending_inj = sorted(injections)
    k = 0
    while True:
        delivered = noc.begin_cycle(cycle)
        ejected = {tuple(p.dst_xy): noc.eject(p.dst_xy) for p in delivered}
        while k < len(pending_inj) and pending_inj[k][0] == cycle:
            _c, _i, pkt = pending_inj[k]
            noc.inject(pkt.src_xy, pkt, cycle)
            k += 1
        noc.end_cycle(cycle)
        nxt = noc.next_pending_cycle()
        log.append((cycle, [id(p) for p in delivered],
                    {xy: [id(p) for p in ps] for xy, ps in ejected.items()},
                    nxt, noc._queued))
        candidates = [c for c in (nxt,) if c is not None]
        if noc._queued:
            candidates.append(cycle + 1)
        if k < len(pending_inj):
            candidates.append(pending_inj[k][0])
        if not candidates:
            return log, cycle
        cycle = min(candidates)
        assert cycle < limit, "network failed to quiesce"


@settings(max_examples=50, deadline=None)
@given(noc_scenarios())
def test_one_pass_arbiter_matches_reference(scenario):
    grid, cfg, stream = scenario
    packets = [(c, i, _packet(i, kind, src, dst, t))
               for i, (c, kind, src, dst, t) in enumerate(stream)]
    new, ref = MeshNoc(grid, **cfg), ReferenceNoc(grid, **cfg)
    log_new, end_new = _drive(new, packets)
    log_ref, end_ref = _drive(ref, packets)
    assert log_new == log_ref
    assert end_new == end_ref
    assert new.hops == ref.hops
    assert new.blocked == ref.blocked
    assert new.stats(end_new) == ref.stats(end_ref)
    assert new.delivered == new.injected


def _layered_program():
    net = gen_layered([24, 24, 16], fanin=6, seed=3, t_max=12, input_rate=0.2)
    return compile_network(net, (3, 2))


@pytest.mark.parametrize("mode", ["sync", "se", "depasync"])
@pytest.mark.parametrize("which", ["tiny_program", "layered"])
def test_engine_reports_match_reference_noc(monkeypatch, which, mode):
    if which == "tiny_program":
        prog = load_program(FIXTURES / "tiny_program.json")
    else:
        prog = _layered_program()
    cfg = SimConfig(grid=tuple(prog.grid), mode=mode, m=2, debug=True)
    got = run(prog, cfg).to_dict()
    monkeypatch.setattr(engine, "MeshNoc", ReferenceNoc)
    want = run(prog, cfg).to_dict()
    assert got == want
    assert got["noc"]["hops"] > 0
