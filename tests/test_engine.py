import json

import pytest
from hypothesis import given, settings, strategies as st

from snnmesh.compiler import compile_network
from snnmesh.engine import (
    ConfigError,
    DeadlockError,
    SimConfig,
    drain_detect,
    parse_grid,
    run,
)
from snnmesh.fixedpoint import fx
from snnmesh.model import (
    Network,
    NeuronParams,
    NeuronState,
    Synapse,
    gen_layered,
    gen_synthetic,
    reference_run,
)
from snnmesh.noc import FLAG_FINISH, FLAG_START, MeshNoc, Packet, SpikeBody, SPIKE

from conftest import build_staircase_net


def quiet_single_core_net(n_neurons=5, t_max=10):
    p = NeuronParams(tau_m=fx(2.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
    return Network(neurons=[(p, NeuronState(v=0)) for _ in range(n_neurons)],
                   synapses=[], inputs={}, t_max=t_max, max_delay=1)


class TestConfig:
    def test_defaults_mirror_the_standard_setup(self):
        cfg = SimConfig()
        assert cfg.grid == (4, 4)
        assert cfg.n_vc == 4
        assert cfg.cycles_per_hop == 2
        assert cfg.m == 4
        assert cfg.period == 4  # P defaults to m

    def test_round_trip_and_validation(self):
        cfg = SimConfig.from_dict({"grid": "8x4", "mode": "sync", "m": 2})
        assert cfg.grid == (8, 4)
        back = SimConfig.from_dict(cfg.to_dict())
        assert back == cfg
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"mode": "warp"})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"bogus_key": 1})
        with pytest.raises(ConfigError):
            parse_grid("4by4")

    @pytest.mark.parametrize("field,value", [
        ("fifo_depth", 0), ("inter_cluster_slowdown", 0), ("cluster_size", 0),
        ("t_max", -3),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SimConfig.from_dict({field: value})
        with pytest.raises(ConfigError, match=field):
            SimConfig(**{field: value}).validate()

    def test_zero_t_max_accepted(self):
        assert SimConfig.from_dict({"t_max": 0}).t_max == 0


class TestSingleCore:
    @pytest.mark.parametrize("mode", ["sync", "se", "depasync"])
    def test_total_cycles_is_pure_compute(self, mode):
        net = quiet_single_core_net(n_neurons=5, t_max=10)
        prog = compile_network(net, (1, 1))
        cfg = SimConfig(grid=(1, 1), mode=mode, m=4, c_update=3, c_spike=1)
        rep = run(prog, cfg)
        assert rep.total_cycles == 10 * 3 * 5
        assert rep.raster == []
        assert rep.cores[0]["busy"] == 150
        assert rep.cores[0]["wait"] == 0

    def test_zero_timesteps(self):
        net = quiet_single_core_net(t_max=0)
        prog = compile_network(net, (1, 1))
        rep = run(prog, SimConfig(grid=(1, 1)))
        assert rep.total_cycles == 0
        assert rep.raster == []


class TestDeterminism:
    @pytest.mark.parametrize("mode", ["sync", "se", "depasync"])
    def test_identical_reports_byte_for_byte(self, mode):
        net = gen_synthetic(60, 500, seed=3, t_max=30, input_rate=0.15)
        prog = compile_network(net, (2, 2))
        cfg = SimConfig(grid=(2, 2), mode=mode, m=4)
        a = json.dumps(run(prog, cfg).to_dict(), sort_keys=True)
        b = json.dumps(run(prog, cfg).to_dict(), sort_keys=True)
        assert a == b


class TestModeEquivalence:
    @pytest.mark.parametrize("mode", ["sync", "se", "depasync"])
    def test_small_synthetic_matches_reference(self, mode):
        net = gen_synthetic(80, 700, seed=17, t_max=40, input_rate=0.12)
        ref = reference_run(net).ordered()
        prog = compile_network(net, (2, 2))
        rep = run(prog, SimConfig(grid=(2, 2), mode=mode, m=4, debug=True))
        assert [tuple(p) for p in rep.raster] == ref
        assert rep.violations == 0

    @pytest.mark.parametrize("mode", ["sync", "se", "depasync"])
    def test_layered_with_delays_matches_reference(self, mode):
        net = gen_layered([24, 24, 16], fanin=8, seed=5, t_max=30, max_delay=3)
        ref = reference_run(net).ordered()
        prog = compile_network(net, (2, 2))
        rep = run(prog, SimConfig(grid=(2, 2), mode=mode, m=2, debug=True))
        assert [tuple(p) for p in rep.raster] == ref

    def test_work_conservation(self):
        net = gen_synthetic(60, 500, seed=23, t_max=25, input_rate=0.15)
        prog = compile_network(net, (2, 2))
        for mode in ("sync", "depasync"):
            rep = run(prog, SimConfig(grid=(2, 2), mode=mode))
            assert rep.counts["neuron_updates"] == 60 * 25
            assert rep.counts["rollback_updates"] == 0
        rep = run(prog, SimConfig(grid=(2, 2), mode="se"))
        assert rep.counts["neuron_updates"] == 60 * 25 + rep.counts["rollback_updates"]


@pytest.fixture(scope="module")
def trace_report(diamond_trace_program):
    _net, prog = diamond_trace_program
    cfg = SimConfig(grid=(2, 2), mode="depasync", m=2, c_update=10,
                    c_spike=20, trace=True, debug=True)
    return run(prog, cfg)


class TestTraceReplay:
    """The four-core diamond with tuned speeds: replay the documented
    blocking events of the dependency-driven mode with m=2."""

    @pytest.fixture
    def report(self, trace_report):
        return trace_report

    def _segments(self, report, core):
        return sorted(
            [r for r in report.trace if r[2] == core], key=lambda r: r[3]
        )

    def test_every_core_runs_every_timestep(self, report):
        for core in range(4):
            segs = self._segments(report, core)
            assert [s[3] for s in segs] == [0, 1, 2, 3]

    def test_head_core_blocked_before_last_timestep_by_window(self, report):
        segs = self._segments(report, 0)
        end_t2 = segs[2][1]
        start_t3 = segs[3][0]
        assert start_t3 > end_t2, "head core should stall before its last timestep"
        # The stall ends exactly when the second post-dependency reports
        # having started timestep 2 (the forward window opens).
        first_ge2 = {}
        for (c, dst, src, flag, t) in report.dep_log:
            if dst == 0 and flag == FLAG_START and t >= 2 and src not in first_ge2:
                first_ge2[src] = c
        assert len(first_ge2) == 2, "both post-dependencies must report"
        assert start_t3 == max(first_ge2.values())

    def test_tail_core_released_by_the_late_finish(self, report):
        segs = self._segments(report, 3)
        end_t1 = segs[1][1]
        start_t2 = segs[2][0]
        assert start_t2 > end_t1, "tail core should stall waiting for a FINISH"
        finishes = [c for (c, dst, src, flag, t) in report.dep_log
                    if dst == 3 and flag == FLAG_FINISH and t >= 1 and src == 1]
        assert finishes, "no FINISH(>=1) from core 1 reached core 3"
        assert start_t2 == min(finishes)

    def test_one_compute_row_per_core_timestep_pair(self, report):
        compute_rows = [r for r in report.trace if r[4] == "compute"]
        assert len(compute_rows) == 4 * 4


class TestLockstepFallback:
    def test_m1_skew_bounded_on_acyclic_net(self):
        net = gen_layered([16, 16, 16], fanin=6, seed=8, t_max=20)
        prog = compile_network(net, (2, 2))
        ref = reference_run(net).ordered()
        rep = run(prog, SimConfig(grid=(2, 2), mode="depasync", m=1, debug=True))
        assert [tuple(p) for p in rep.raster] == ref
        assert rep.max_edge_skew <= 1

    def test_m1_on_mutual_dependency_deadlocks_with_diagnostic(self):
        # Two cores feeding each other cannot satisfy the m=1 window beyond
        # t=0; the watchdog must name the stuck cores instead of hanging.
        p = NeuronParams(tau_m=fx(2.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
        net = Network(
            neurons=[(p, NeuronState(v=0)) for _ in range(2)],
            synapses=[Synapse(0, 1, fx(1.0), 1), Synapse(1, 0, fx(1.0), 1)],
            inputs={}, t_max=5, max_delay=1,
        )
        prog = compile_network(net, (2, 1), assignment=[0, 1])
        with pytest.raises(DeadlockError, match="deadlock"):
            run(prog, SimConfig(grid=(2, 1), mode="depasync", m=1))


class TestCyclicFallsBackNotDeadlocks:
    def test_mutual_dependency_with_m2_progresses(self):
        p = NeuronParams(tau_m=fx(2.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
        net = Network(
            neurons=[(p, NeuronState(v=0)) for _ in range(4)],
            synapses=[Synapse(0, 2, fx(1.0), 1), Synapse(2, 1, fx(1.0), 1),
                      Synapse(3, 0, fx(1.0), 1)],
            inputs={}, t_max=12, max_delay=1,
        )
        prog = compile_network(net, (2, 1), assignment=[0, 0, 1, 1])
        rep = run(prog, SimConfig(grid=(2, 1), mode="depasync", m=4, debug=True))
        assert rep.total_cycles > 0  # completed without DeadlockError


class TestSpeculativeRollback:
    """Hand-built 2-core scenario: a slow producer's spike lands after the
    fast consumer has speculated past its consuming timestep."""

    def _scenario(self, period):
        # producer: 40 neurons, one of them fires exactly at t=2 (spike for
        # t=3 at the consumer); consumer: 2 neurons, computes 20x faster.
        net, assignment = build_staircase_net(
            [40, 2], chain=[(0, 1)], t_max=16,
            pulses={}, local_fan={})
        net.inputs = {0: [(2, fx(40.0))]}
        net.validate()
        prog = compile_network(net, (2, 1), assignment=assignment)
        return net, prog, SimConfig(grid=(2, 1), mode="se", m=period,
                                    P=period, c_update=4)

    def test_late_spike_rolls_back_and_recomputes(self):
        net, prog, cfg = self._scenario(period=6)
        ref = reference_run(net).ordered()
        rep = run(prog, cfg)
        assert [tuple(p) for p in rep.raster] == ref
        # consumer waits at the epoch edge (t_cur=5) when the spike for t=3
        # arrives: rollback to 3, recompute 3..5 = 3 timesteps of 2 neurons
        assert rep.rollbacks == 1
        assert rep.counts["rollback_updates"] == 3 * 2
        assert sum(c["rollback"] for c in rep.cores) > 0

    def test_no_late_spikes_means_no_rollbacks(self):
        net, prog, cfg = self._scenario(period=6)
        net.inputs = {}  # nothing ever fires
        prog = compile_network(net, (2, 1),
                               assignment=[0] * 40 + [1] * 2)
        rep = run(prog, cfg)
        assert rep.rollbacks == 0
        assert rep.counts["rollback_updates"] == 0
        assert rep.raster == []


class TestRandomizedModeEquivalence:
    """Property: any small random workload produces the reference raster in
    every mode, for any window m >= 2 (m = 1 additionally requires an acyclic
    core graph, covered elsewhere)."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(4, 18),
        density=st.floats(0.5, 4.0),
        max_delay=st.integers(1, 3),
        m=st.integers(2, 4),
        mode=st.sampled_from(["sync", "se", "depasync"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_raster_matches_reference(self, seed, n, density, max_delay, m, mode):
        net = gen_synthetic(n, int(n * density), seed=seed, t_max=12,
                            max_delay=max_delay, input_rate=0.3,
                            rate_knobs=(1.0, 2.0, 4.0, 8.0))
        ref = reference_run(net).ordered()
        prog = compile_network(net, (2, 2))
        rep = run(prog, SimConfig(grid=(2, 2), mode=mode, m=m, debug=True))
        assert [tuple(p) for p in rep.raster] == ref
        assert rep.violations == 0


class TestDrainDetect:
    def test_counter_tracks_spikes_in_flight(self):
        mesh = MeshNoc((2, 1))
        assert drain_detect(mesh)
        pkt = Packet(kind=SPIKE, src_core=0, dst_core=1, src_xy=(0, 0),
                     dst_xy=(1, 0),
                     body=SpikeBody(synapse_id=0, delay=1, timestep=0))
        mesh.inject((0, 0), pkt, 0)
        assert not drain_detect(mesh)
        c = 0
        while mesh.busy():
            mesh.step(c)
            c += 1
        assert drain_detect(mesh)


class TestWindowEdgeDelivery:
    """A fast producer firing every timestep at the edge of its forward
    window: its spikes land exactly one buffer revolution ahead at the slow
    consumer, the case the recycled-head write path exists for."""

    @pytest.mark.parametrize("mode", ["sync", "se", "depasync"])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_sustained_firing_across_the_window(self, mode, m):
        p = NeuronParams(tau_m=fx(1.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
        neurons = [(p, NeuronState(v=0)) for _ in range(31)]
        synapses = [Synapse(0, 1, fx(1.0), 1), Synapse(0, 2, fx(1.0), 1)]
        inputs = {0: [(t, fx(20.0)) for t in range(30)]}
        net = Network(neurons=neurons, synapses=synapses, inputs=inputs,
                      t_max=30, max_delay=1)
        prog = compile_network(net, (2, 1),
                               assignment=[0] + [1] * 30)
        ref = reference_run(net).ordered()
        rep = run(prog, SimConfig(grid=(2, 1), mode=mode, m=m, c_update=8,
                                  debug=True))
        assert [tuple(pr) for pr in rep.raster] == ref
        assert rep.violations == 0
        assert len(rep.raster) == 30  # producer fires every timestep


class TestBarrierLockstep:
    def test_sync_mode_keeps_cores_within_one_timestep(self):
        net, assignment = build_staircase_net(
            [4, 2], chain=[(0, 1)], t_max=10, pulses={1: [2, 5]},
            local_fan={1: 3})
        prog = compile_network(net, (2, 1), assignment=assignment)
        rep = run(prog, SimConfig(grid=(2, 1), mode="sync", debug=True))
        assert rep.max_edge_skew <= 1


class TestBandwidthHierarchy:
    def test_slow_cluster_links_cost_cycles_not_correctness(self):
        net = gen_synthetic(64, 600, seed=41, t_max=25, input_rate=0.15)
        ref = reference_run(net).ordered()
        prog = compile_network(net, (4, 4))
        totals = {}
        for slowdown in (1, 4):
            cfg = SimConfig(grid=(4, 4), mode="depasync",
                            inter_cluster_slowdown=slowdown, cluster_size=2)
            rep = run(prog, cfg)
            assert [tuple(p) for p in rep.raster] == ref
            totals[slowdown] = rep.total_cycles
        assert totals[4] > totals[1]
