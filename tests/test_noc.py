import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from snnmesh.compiler import load_program
from snnmesh.engine import ConfigError, SimConfig, run

from snnmesh.noc import (
    DEP,
    FLAG_FINISH,
    FLAG_START,
    PORT_E,
    PORT_LOCAL,
    PORT_N,
    PORT_S,
    PORT_W,
    SPIKE,
    DepPacket,
    MeshNoc,
    NocError,
    SpikePacket,
    flow_vc,
    route_xy,
)

from stepped_noc import SteppedNoc, core_at, row_major

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

# Packets between the cores that a row-major placement puts on the given
# cells of a ``w``-wide grid (``SteppedNoc``'s placement).


def spike(src_xy, dst_xy, t=0, syn=0, delay=1, w=4):
    return SpikePacket(src_core=core_at(src_xy, w), dst_core=core_at(dst_xy, w),
                       timestep=t, synapse_id=syn, delay=delay)


def finish(src_xy, dst_xy, t=0, w=4):
    return DepPacket(src_core=core_at(src_xy, w), dst_core=core_at(dst_xy, w),
                     timestep=t, flag=FLAG_FINISH)


def start(src_xy, dst_xy, t=0, w=4):
    return DepPacket(src_core=core_at(src_xy, w), dst_core=core_at(dst_xy, w),
                     timestep=t, flag=FLAG_START)


def queued_vc(mesh, packet):
    """Inject ``packet`` and return the VC whose FIFO on its source router's
    local port it joined."""
    mesh.inject(packet)
    cell = mesh.placement[packet.src_core]
    router = next(r for r in mesh.routers if r.coord == cell)
    return next(vc for vc, q in enumerate(router.ports[PORT_LOCAL])
                if any(x is packet for x in q))


class TestRouteXY:
    def test_local_when_at_destination(self):
        assert route_xy((1, 1), (1, 1), (4, 4)) == PORT_LOCAL

    def test_x_resolved_first(self):
        assert route_xy((0, 0), (2, 1), (4, 4)) == PORT_E
        assert route_xy((3, 2), (1, 3), (4, 4)) == PORT_W

    def test_y_after_x(self):
        assert route_xy((2, 1), (2, 3), (4, 4)) == PORT_N
        assert route_xy((2, 3), (2, 0), (4, 4)) == PORT_S

    def test_out_of_grid_rejected(self):
        with pytest.raises(NocError):
            route_xy((0, 0), (4, 0), (4, 4))
        with pytest.raises(NocError):
            route_xy((-1, 0), (0, 0), (4, 4))


class TestPacketFormat:
    def test_each_record_fixes_its_kind_in_a_slot(self):
        s, f = spike((0, 0), (1, 1)), finish((0, 0), (1, 1))
        assert (s.kind, f.kind) == (SPIKE, DEP)
        for p in (s, f):
            assert "kind" in type(p).__slots__
            assert not hasattr(p, "vc")

    def test_control_packets_share_their_flows_vc(self):
        cells = row_major((4, 4))
        for n_vc in (1, 2, 3, 4):
            for dst in [(0, 0), (1, 1), (3, 2), (0, 3)]:
                mesh = MeshNoc((4, 4), cells, n_vc=n_vc)
                vcs = {queued_vc(mesh, make((2, 1), dst))
                       for make in (spike, start, finish)}
                assert vcs == {flow_vc((2, 1), dst, n_vc)}
                assert vcs.pop() < n_vc

    def test_flow_vc_is_deterministic(self):
        mesh = MeshNoc((4, 4), row_major((4, 4)))
        a = queued_vc(mesh, spike((0, 0), (3, 2)))
        b = queued_vc(mesh, spike((0, 0), (3, 2), t=9, syn=5))
        assert a == b

    def test_flow_vc_hashes_the_cells_not_the_core_ids(self):
        # cores 0 and 1 swap cells: the VC follows the cells
        p = spike((0, 0), (1, 0))
        swapped = [(1, 0), (0, 0)]
        assert (queued_vc(MeshNoc((2, 1), row_major((2, 1))), p)
                == queued_vc(MeshNoc((2, 1), swapped), SpikePacket(1, 0, 0, 0, 1)))


class TestLatency:
    def test_single_packet_two_cycles_per_hop(self):
        mesh = SteppedNoc((4, 4))
        p = spike((0, 0), (0, 0))
        mesh.inject(p)
        delivered = []
        c = 0
        while mesh.busy():
            delivered += mesh.step(c)
            c += 1
        # distance 0 -> one local hop -> 2 cycles: delivered during cycle 2
        assert delivered == [p]
        assert c - 1 == 2

    @pytest.mark.parametrize("dst,expect_hops", [((3, 0), 4), ((0, 3), 4),
                                                 ((3, 3), 7), ((1, 2), 4)])
    def test_unblocked_latency_formula(self, dst, expect_hops):
        mesh = SteppedNoc((4, 4), cycles_per_hop=2)
        p = spike((0, 0), dst)
        mesh.inject(p)
        deliveries = {}
        c = 0
        while mesh.busy():
            for q in mesh.step(c):
                deliveries[id(q)] = c
            c += 1
        dist = dst[0] + dst[1]
        assert deliveries[id(p)] == 2 * (dist + 1)
        assert mesh.hops == dist + 1

    @pytest.mark.parametrize("field", ["cycles_per_hop", "fifo_depth",
                                       "inter_cluster_slowdown", "cluster_size"])
    def test_nonpositive_parameter_rejected_not_clamped(self, field):
        # MeshNoc takes its parameters as validated; a run rejects a
        # nonpositive one before any mesh is built
        prog = load_program(os.path.join(FIXTURES, "tiny_program.json"))
        with pytest.raises(ConfigError, match=field):
            run(prog, SimConfig(grid=(2, 2), **{field: 0}))


class TestInjectChecks:
    # a core id outside the placement has no cell on the grid
    @pytest.mark.parametrize("packet", [
        SpikePacket(src_core=16, dst_core=0, timestep=0, synapse_id=0, delay=1),
        SpikePacket(src_core=0, dst_core=16, timestep=0, synapse_id=0, delay=1),
        SpikePacket(src_core=0, dst_core=-1, timestep=0, synapse_id=0, delay=1),
    ], ids=["source-off-grid", "destination-off-grid", "negative-destination"])
    def test_rejected_packet_leaves_no_trace(self, packet):
        mesh = MeshNoc((4, 4), row_major((4, 4)))
        with pytest.raises(NocError, match="outside the 16-core placement"):
            mesh.inject(packet)
        assert mesh.queued == 0
        assert mesh.injected == {SPIKE: 0, DEP: 0}


class TestPlacement:
    def test_off_grid_placement_rejected(self):
        for cell in [(4, 0), (0, 4), (-1, 2)]:
            with pytest.raises(NocError, match="outside 4x4 grid"):
                MeshNoc((4, 4), [(0, 0), cell])

    def test_packets_travel_between_the_cells_of_their_cores(self):
        # core 0 on (3, 1), core 1 on (0, 0): three hops west, one south,
        # one local, whatever the core ids' order
        mesh = MeshNoc((4, 2), [(3, 1), (0, 0)], cycles_per_hop=1)
        p = SpikePacket(src_core=0, dst_core=1, timestep=0, synapse_id=0, delay=1)
        mesh.inject(p)
        delivered = []
        for c in range(10):
            delivered += mesh.begin_cycle(c)
            mesh.end_cycle(c)
        assert delivered == [p]
        assert mesh.hops == 5
        path = [(3, 1), (2, 1), (1, 1), (0, 1), (0, 0)]
        assert [mesh.routers[y * 4 + x].route[1] for x, y in path] == [
            PORT_W, PORT_W, PORT_W, PORT_S, PORT_LOCAL]


@st.composite
def engine_order_streams(draw):
    """A small grid, a NoC config and the packets its cores inject, in the
    order ``engine.run`` injects them: a core that commits timestep t sends
    its spikes of t, then FINISH(t) to the cores it notifies, then START(t+1)
    to them as it begins the next step."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cfg = dict(n_vc=draw(st.integers(1, 4)), fifo_depth=draw(st.integers(1, 4)),
               inter_cluster_slowdown=draw(st.sampled_from([1, 3])))
    core = st.integers(0, w * h - 1)
    # (cycle, source, spike destinations, notified cores) per commit
    commits = draw(st.lists(
        st.tuples(st.integers(0, 20), core, st.lists(core, max_size=6),
                  st.lists(core, max_size=3, unique=True)),
        min_size=1, max_size=30))
    commits.sort(key=lambda c: c[0])
    step = {}
    injections = []  # (cycle, packet)
    for cycle, src, spike_dsts, notified in commits:
        t = step.get(src, 0)
        step[src] = t + 1
        for k, dst in enumerate(spike_dsts):
            injections.append((cycle, SpikePacket(src, dst, t, k, 1)))
        for flag, ts in ((FLAG_FINISH, t), (FLAG_START, t + 1)):
            injections += [(cycle, DepPacket(src, dst, ts, flag)) for dst in notified]
    return (w, h), cfg, injections


class TestFlowOrder:
    """Each (source, destination) flow arrives in injection order, and a
    packet waits only for the packets ahead of it in its own flow."""

    @settings(max_examples=60, deadline=None)
    @given(engine_order_streams())
    def test_every_flow_arrives_in_injection_order(self, stream):
        # One VC and one XY path per (source, destination) flow: FIFO order puts
        # each FINISH behind the spikes it vouches for, on any NoC config.
        grid, cfg, injections = stream
        mesh = SteppedNoc(grid, **cfg)
        delivered = []
        cycle = 0
        for at, pkt in injections:
            while cycle < at:
                delivered += mesh.step(cycle)
                cycle += 1
            mesh.inject(pkt)
        _end, rest = mesh.drain(cycle, limit=100_000)  # NocError if it never quiesces
        delivered += rest
        sent_by_flow, got_by_flow = {}, {}
        for _at, p in injections:
            sent_by_flow.setdefault((p.src_core, p.dst_core), []).append(id(p))
        for p in delivered:
            got_by_flow.setdefault((p.src_core, p.dst_core), []).append(id(p))
        assert got_by_flow == sent_by_flow
        assert mesh.injected == mesh.delivered
        assert not mesh.busy()

    def test_finish_for_older_timestep_not_blocked_by_newer_spike(self):
        # A FINISH(5) queued ahead of a spike of t=9 leaves first, and the
        # spike on the next round-robin turn: nothing holds the FINISH until
        # the newer spike has gone through the whole network.
        mesh = SteppedNoc((4, 1))
        s = spike((0, 0), (3, 0), t=9)
        f = finish((0, 0), (3, 0), t=5)
        mesh.inject(f)
        mesh.inject(s)
        when = {}
        c = 0
        while mesh.busy():
            for q in mesh.step(c):
                when[id(q)] = c
            c += 1
        assert abs(when[id(f)] - when[id(s)]) <= 1

    def test_start_packet_ahead_of_a_spike_is_delivered(self):
        mesh = SteppedNoc((4, 1))
        s = spike((0, 0), (3, 0), t=5)
        st_pkt = start((0, 0), (3, 0), t=6)
        mesh.inject(st_pkt)
        mesh.inject(s)
        order = []
        c = 0
        while mesh.busy():
            order += mesh.step(c)
            c += 1
        assert st_pkt in order


class TestArbitration:
    def test_round_robin_alternation_between_vcs(self):
        # Two spike flows hashed to different VCs on the same input port.
        mesh = SteppedNoc((4, 2), n_vc=4)
        flows = [((0, 0), (3, 0)), ((0, 0), (3, 1))]
        vcs = {flow_vc(*f, 4) for f in flows}
        assert len(vcs) == 2, "flows must land on distinct VCs for this test"
        pkts = []
        for i in range(4):
            for f in flows:
                p = spike(*f, t=i)
                pkts.append(p)
                mesh.inject(p)
        # Read which VC each step drained from the per-VC queue lengths of
        # the local port: at most one packet leaves it per cycle, and the
        # round-robin pointer makes the two VCs take turns.
        local = mesh.routers[0].ports[PORT_LOCAL]
        drained = []
        c = 0
        while any(local):
            before = [len(q) for q in local]
            mesh.step(c)
            c += 1
            left = [vc for vc, q in enumerate(local) if len(q) < before[vc]]
            assert len(left) <= 1
            drained += left
        assert sorted(vcs) == [1, 2]
        assert drained == [1, 2, 1, 2, 1, 2, 1, 2]

    def test_per_flow_fifo_order(self):
        mesh = SteppedNoc((4, 4))
        sent = [spike((0, 0), (3, 2), t=i, syn=i) for i in range(6)]
        for p in sent:
            mesh.inject(p)
        got = []
        c = 0
        while mesh.busy():
            got += mesh.step(c)
            c += 1
        assert got == sent


class TestConservation:
    def test_random_traffic_conservation_audit(self):
        rng = random.Random(42)
        mesh = SteppedNoc((4, 4), n_vc=4)
        injected = []
        cycle = 0
        delivered = []
        for _ in range(100):
            sx, sy = rng.randrange(4), rng.randrange(4)
            dx, dy = rng.randrange(4), rng.randrange(4)
            p = spike((sx, sy), (dx, dy), t=rng.randrange(10),
                      syn=rng.randrange(100))
            mesh.inject(p)
            injected.append(p)
            delivered += mesh.step(cycle)
            cycle += 1
        while mesh.busy():
            delivered += mesh.step(cycle)
            cycle += 1
        assert len(delivered) == len(injected)
        assert {id(p) for p in delivered} == {id(p) for p in injected}
        # per-flow FIFO: packets of one (src, dst) flow arrive in injection order
        sent_by_flow, got_by_flow = {}, {}
        for p in injected:
            sent_by_flow.setdefault((p.src_core, p.dst_core), []).append(id(p))
        for p in delivered:
            got_by_flow.setdefault((p.src_core, p.dst_core), []).append(id(p))
        assert got_by_flow == sent_by_flow
        assert mesh.injected[SPIKE] == mesh.delivered[SPIKE] == 100

    def test_zero_packets_quiescent(self):
        mesh = SteppedNoc((2, 2))
        assert not mesh.busy()
        assert mesh.step(0) == []
        assert mesh.hops == 0

    def test_drain_runs_to_quiescence(self):
        mesh = SteppedNoc((3, 3))
        pkts = [spike((0, 0), (2, 2), t=i, w=3) for i in range(4)]
        for p in pkts:
            mesh.inject(p)
        end, delivered = mesh.drain(0)
        assert delivered == pkts
        assert not mesh.busy()
        assert end > 0

    def test_delivery_at_destination_only(self):
        mesh = SteppedNoc((3, 3))
        p = spike((0, 0), (2, 2), w=3)
        mesh.inject(p)
        c = 0
        while mesh.busy():
            for q in mesh.step(c):
                assert mesh.placement[q.dst_core] == (2, 2)
                assert mesh.eject((2, 2)) == [q]
                assert mesh.eject((0, 0)) == []
            c += 1


class TestVcScaling:
    def _congested_run(self, n_vc):
        # Many flows funnel through the central column: classic head-of-line
        # congestion, relieved by more virtual channels.
        mesh = SteppedNoc((6, 6), n_vc=n_vc, fifo_depth=2)
        rng = random.Random(7)
        cycle = 0
        for burst in range(30):
            for sy in range(6):
                for k in range(2):
                    dy = rng.randrange(6)
                    p = spike((0, sy), (5, dy), t=burst, syn=k, w=6)
                    mesh.inject(p)
            mesh.step(cycle)
            cycle += 1
        while mesh.busy():
            mesh.step(cycle)
            cycle += 1
        return mesh.blocked[SPIKE]

    def test_blocked_cycles_decrease_with_more_vcs(self):
        b2 = self._congested_run(2)
        b4 = self._congested_run(4)
        b8 = self._congested_run(8)
        assert b2 > b4 > b8, (b2, b4, b8)


class TestInterClusterSlowdown:
    def test_boundary_hop_is_slower(self):
        fast = SteppedNoc((4, 1), inter_cluster_slowdown=1, cluster_size=2)
        slow = SteppedNoc((4, 1), inter_cluster_slowdown=4, cluster_size=2)
        for mesh in (fast, slow):
            mesh.inject(spike((0, 0), (3, 0)))
        def drain_time(mesh):
            c = 0
            while mesh.busy():
                mesh.step(c)
                c += 1
            return c
        t_fast = drain_time(fast)
        t_slow = drain_time(slow)
        # exactly one link (x=1 -> x=2) crosses the 2x1 cluster boundary
        assert t_slow == t_fast + 2 * 3  # one hop takes 8 instead of 2


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
              st.integers(0, 3), st.integers(0, 9)),
    min_size=1, max_size=40,
))
def test_conservation_property(moves):
    mesh = SteppedNoc((4, 4), n_vc=2, fifo_depth=2)
    n = 0
    for cycle, (sx, sy, dx, dy, t) in enumerate(moves):
        mesh.inject(spike((sx, sy), (dx, dy), t=t))
        n += 1
        mesh.step(cycle)
    cycle = len(moves)
    while mesh.busy():
        mesh.step(cycle)
        cycle += 1
    assert mesh.injected[SPIKE] == mesh.delivered[SPIKE] == n
