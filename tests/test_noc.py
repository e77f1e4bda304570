import random

import pytest
from hypothesis import given, settings, strategies as st

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
    SYNC,
    DepBody,
    MeshNoc,
    NocError,
    Packet,
    SpikeBody,
    SyncBody,
    packet_from_dict,
    packet_to_dict,
    route_xy,
    vc_for_packet,
)


def spike(src_xy, dst_xy, t=0, syn=0, delay=1, src_core=0, dst_core=0):
    return Packet(kind=SPIKE, src_core=src_core, dst_core=dst_core,
                  src_xy=src_xy, dst_xy=dst_xy,
                  body=SpikeBody(synapse_id=syn, delay=delay, timestep=t))


def finish(src_xy, dst_xy, t=0, dep_id=0):
    return Packet(kind=DEP, src_core=0, dst_core=0, src_xy=src_xy,
                  dst_xy=dst_xy,
                  body=DepBody(timestep=t, flag=FLAG_FINISH, dep_id=dep_id))


def start(src_xy, dst_xy, t=0, dep_id=0):
    return Packet(kind=DEP, src_core=0, dst_core=0, src_xy=src_xy,
                  dst_xy=dst_xy,
                  body=DepBody(timestep=t, flag=FLAG_START, dep_id=dep_id))


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
    def test_exactly_one_body_variant(self):
        with pytest.raises(NocError):
            Packet(kind=SPIKE, src_core=0, dst_core=0, src_xy=(0, 0),
                   dst_xy=(0, 0), body=SyncBody(timestep=1)).validate()
        with pytest.raises(NocError):
            Packet(kind="BOGUS", src_core=0, dst_core=0, src_xy=(0, 0),
                   dst_xy=(0, 0), body=SyncBody(timestep=1)).validate()

    def test_wire_round_trip_all_kinds(self):
        pkts = [
            spike((0, 0), (1, 1), t=3, syn=7, delay=2),
            finish((1, 0), (0, 1), t=5, dep_id=2),
            start((1, 1), (0, 0), t=4, dep_id=1),
            Packet(kind=SYNC, src_core=0, dst_core=1, src_xy=(0, 0),
                   dst_xy=(1, 0), body=SyncBody(timestep=9)),
        ]
        for p in pkts:
            p.vc = vc_for_packet(p, 4)
            assert packet_from_dict(packet_to_dict(p)) == p

    def test_control_packets_use_reserved_vc(self):
        assert vc_for_packet(finish((0, 0), (1, 1)), 4) == 4
        assert vc_for_packet(spike((0, 0), (1, 1)), 4) < 4

    def test_flow_vc_is_deterministic(self):
        a = vc_for_packet(spike((0, 0), (3, 2)), 4)
        b = vc_for_packet(spike((0, 0), (3, 2), t=9, syn=5), 4)
        assert a == b


class TestLatency:
    def test_single_packet_two_cycles_per_hop(self):
        mesh = MeshNoc((4, 4))
        p = spike((0, 0), (0, 0))
        mesh.inject((0, 0), p, cycle=0)
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
        mesh = MeshNoc((4, 4), cycles_per_hop=2)
        p = spike((0, 0), dst)
        mesh.inject((0, 0), p, cycle=0)
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
        with pytest.raises(NocError, match=field):
            MeshNoc((2, 2), **{field: 0})

    def test_inject_at_wrong_coordinate_rejected(self):
        mesh = MeshNoc((4, 4))
        with pytest.raises(NocError):
            mesh.inject((1, 0), spike((0, 0), (2, 2)), cycle=0)


class TestFinishMask:
    def test_spike_always_beats_cohabiting_finish(self):
        # Same source, same input port: the FINISH may not leave before the
        # spike with an equal timestep.
        mesh = MeshNoc((4, 1))
        s = spike((0, 0), (3, 0), t=5)
        f = finish((0, 0), (3, 0), t=5)
        mesh.inject((0, 0), f, cycle=0)  # FINISH queued first
        mesh.inject((0, 0), s, cycle=0)
        order = []
        c = 0
        while mesh.busy():
            order += mesh.step(c)
            c += 1
        assert order == [s, f]

    def test_finish_for_older_timestep_not_blocked_by_newer_spike(self):
        # A FINISH(5) is eligible next to a spike of t=9, so both leave on
        # adjacent round-robin turns: the mask must not hold the FINISH until
        # the newer spike has gone through the whole network.
        mesh = MeshNoc((4, 1))
        s = spike((0, 0), (3, 0), t=9)
        f = finish((0, 0), (3, 0), t=5)
        mesh.inject((0, 0), f, cycle=0)
        mesh.inject((0, 0), s, cycle=0)
        when = {}
        c = 0
        while mesh.busy():
            for q in mesh.step(c):
                when[id(q)] = c
            c += 1
        assert abs(when[id(f)] - when[id(s)]) <= 1

    def test_start_packets_are_not_masked(self):
        mesh = MeshNoc((4, 1))
        s = spike((0, 0), (3, 0), t=5)
        st_pkt = start((0, 0), (3, 0), t=6)
        mesh.inject((0, 0), st_pkt, cycle=0)
        mesh.inject((0, 0), s, cycle=0)
        order = []
        c = 0
        while mesh.busy():
            order += mesh.step(c)
            c += 1
        assert st_pkt in order


class TestArbitration:
    def test_round_robin_alternation_between_vcs(self):
        # Two spike flows hashed to different VCs on the same input port.
        mesh = MeshNoc((4, 2), n_vc=4)
        flows = [((0, 0), (3, 0)), ((0, 0), (3, 1))]
        vcs = {vc_for_packet(spike(*f), 4) for f in flows}
        assert len(vcs) == 2, "flows must land on distinct VCs for this test"
        pkts = []
        for i in range(4):
            for f in flows:
                p = spike(*f, t=i)
                pkts.append(p)
                mesh.inject((0, 0), p, cycle=0)
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
        mesh = MeshNoc((4, 4))
        sent = [spike((0, 0), (3, 2), t=i, syn=i) for i in range(6)]
        for i, p in enumerate(sent):
            mesh.inject((0, 0), p, cycle=i)
        got = []
        c = 0
        while mesh.busy():
            got += mesh.step(c)
            c += 1
        assert got == sent


class TestConservation:
    def test_random_traffic_conservation_audit(self):
        rng = random.Random(42)
        mesh = MeshNoc((4, 4), n_vc=4)
        injected = []
        cycle = 0
        delivered = []
        for _ in range(100):
            sx, sy = rng.randrange(4), rng.randrange(4)
            dx, dy = rng.randrange(4), rng.randrange(4)
            p = spike((sx, sy), (dx, dy), t=rng.randrange(10),
                      syn=rng.randrange(100))
            mesh.inject((sx, sy), p, cycle)
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
            sent_by_flow.setdefault((p.src_xy, p.dst_xy), []).append(id(p))
        for p in delivered:
            got_by_flow.setdefault((p.src_xy, p.dst_xy), []).append(id(p))
        assert got_by_flow == sent_by_flow
        assert mesh.injected[SPIKE] == mesh.delivered[SPIKE] == 100
        assert mesh.in_flight[SPIKE] == 0

    def test_zero_packets_quiescent(self):
        mesh = MeshNoc((2, 2))
        assert not mesh.busy()
        assert mesh.step(0) == []
        assert mesh.hops == 0

    def test_drain_runs_to_quiescence(self):
        mesh = MeshNoc((3, 3))
        pkts = [spike((0, 0), (2, 2), t=i) for i in range(4)]
        for p in pkts:
            mesh.inject((0, 0), p, 0)
        end, delivered = mesh.drain(0)
        assert delivered == pkts
        assert not mesh.busy()
        assert end > 0

    def test_delivery_at_destination_only(self):
        mesh = MeshNoc((3, 3))
        p = spike((0, 0), (2, 2))
        mesh.inject((0, 0), p, 0)
        c = 0
        while mesh.busy():
            for q in mesh.step(c):
                assert tuple(q.dst_xy) == (2, 2)
                assert mesh.eject((2, 2)) == [q]
                assert mesh.eject((0, 0)) == []
            c += 1


class TestVcScaling:
    def _congested_run(self, n_vc):
        # Many flows funnel through the central column: classic head-of-line
        # congestion, relieved by more virtual channels.
        mesh = MeshNoc((6, 6), n_vc=n_vc, fifo_depth=2)
        rng = random.Random(7)
        cycle = 0
        for burst in range(30):
            for sy in range(6):
                for k in range(2):
                    dy = rng.randrange(6)
                    p = spike((0, sy), (5, dy), t=burst, syn=k)
                    mesh.inject((0, sy), p, cycle)
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
        fast = MeshNoc((4, 1), inter_cluster_slowdown=1, cluster_size=2)
        slow = MeshNoc((4, 1), inter_cluster_slowdown=4, cluster_size=2)
        for mesh in (fast, slow):
            mesh.inject((0, 0), spike((0, 0), (3, 0)), 0)
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
    mesh = MeshNoc((4, 4), n_vc=2, fifo_depth=2)
    n = 0
    for cycle, (sx, sy, dx, dy, t) in enumerate(moves):
        mesh.inject((sx, sy), spike((sx, sy), (dx, dy), t=t), cycle)
        n += 1
        mesh.step(cycle)
    cycle = len(moves)
    while mesh.busy():
        mesh.step(cycle)
        cycle += 1
    assert mesh.delivered[SPIKE] == n
    assert mesh.in_flight[SPIKE] == 0
