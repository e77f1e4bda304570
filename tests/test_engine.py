import dataclasses
import json
import os
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from snnmesh.compiler import compile_network, load_program
from snnmesh.engine import (
    Barrier,
    ConfigError,
    DeadlockError,
    DependencyDriven,
    SimConfig,
    parse_value,
    run,
)
from snnmesh.fixedpoint import fx
from snnmesh.model import (
    Network,
    NeuronParams,
    Synapse,
    gen_layered,
    gen_synthetic,
    reference_run,
)
from snnmesh.noc import FLAG_FINISH, FLAG_START, SpikePacket

from conftest import build_staircase_net
from stepped_noc import SteppedNoc

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def quiet_single_core_net(n_neurons=5, t_max=10):
    p = NeuronParams(tau_m=fx(2.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
    return Network(neurons=[(p, 0)] * n_neurons,
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
            parse_value("grid", "4by4")

    @pytest.mark.parametrize("field,value", [
        ("fifo_depth", 0), ("inter_cluster_slowdown", 0), ("cluster_size", 0),
        ("t_max", -3), ("m", 0), ("n_vc", 0), ("cycles_per_hop", 0),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SimConfig.from_dict({field: value})
        with pytest.raises(ConfigError, match=field):
            SimConfig(**{field: value}).validate()

    def test_zero_t_max_accepted(self):
        assert SimConfig.from_dict({"t_max": 0}).t_max == 0

    def test_readme_config_table_lists_exactly_the_fields(self):
        with open(os.path.join(FIXTURES, "..", "..", "README.md"),
                  encoding="utf-8") as f:
            section = f.read().split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
        first_cells = [row.split("|")[1] for row in section.splitlines()
                       if row.startswith("| `")]
        keys = [k for cell in first_cells for k in re.findall(r"`(\w+)`", cell)]
        assert sorted(keys) == sorted(SimConfig.__dataclass_fields__)


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


class TestRuntimeImage:
    """Every run of a program shares its one read-only runtime image."""

    TINY = os.path.join(FIXTURES, "tiny_program.json")
    CONFIGS = {"sync": {"mode": "sync"}, "sync-t10": {"mode": "sync", "t_max": 10},
               "se": {"mode": "se"}, "se-P1": {"mode": "se", "P": 1},
               "depasync": {"mode": "depasync"}}

    @staticmethod
    def dump(prog, keys):
        report = run(prog, SimConfig(grid=(2, 2), m=2, debug=True, **keys))
        return json.dumps([report.to_dict(), report.dep_log], sort_keys=True)

    def test_shared_image_runs_match_fresh_programs(self):
        fresh = {name: self.dump(load_program(self.TINY), keys)
                 for name, keys in self.CONFIGS.items()}
        shared = load_program(self.TINY)
        order = list(self.CONFIGS)
        for name in order + order[::-1] + order[:1]:
            assert self.dump(shared, self.CONFIGS[name]) == fresh[name], name

    def test_image_arrays_are_read_only(self):
        import dataclasses

        prog = load_program(self.TINY)
        self.dump(prog, {"mode": "se"})
        image = prog.image
        arrays = [a for img in image for a in (img.tau, img.g, img.vr, img.vth, img.v0)]
        assert len(arrays) == 5 * len(image)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        inputs = [ext for img in image for ext in img.external]
        assert inputs and any(inputs)
        for ext in inputs:
            assert type(ext) is tuple and all(type(row) is tuple for row in ext)
        with pytest.raises(dataclasses.FrozenInstanceError):
            image[0].v0 = image[0].v0.copy()

    def test_image_tables_are_the_programs_own(self):
        compiled = compile_network(gen_synthetic(60, 500, seed=3, t_max=10), (2, 2))
        for prog in (compiled, load_program(self.TINY)):
            for lc, img in zip(prog.cores, prog.image, strict=True):
                assert img.neuron_ids is lc.neuron_ids
                assert img.fanout is lc.fanout
                assert img.in_synapses is lc.in_synapses
                assert img.pre is prog.dep_graph.pre[lc.id]
                assert img.post is prog.dep_graph.post[lc.id]

    def test_external_input_matches_the_per_event_loop(self):
        """Each timestep's input is the core's input events in neuron order,
        as the loop below collects them, each a reception ``(li, cur, -1)``."""
        p = NeuronParams(tau_m=fx(1.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
        signed = Network(neurons=[(p, 0)] * 5, synapses=[], t_max=4, max_delay=1,
                         inputs={0: [(0, fx(2.0)), (2, -fx(1.5)), (0, fx(0.25))],
                                 3: [(0, -fx(3.0)), (0, fx(1.0))],
                                 4: [(1, fx(30000.0)), (3, -fx(30000.0))]})
        for prog in (compile_network(signed, (2, 1)),
                     compile_network(gen_synthetic(3, 6, seed=2, t_max=10,
                                                   input_rate=0.6), (2, 2)),
                     load_program(self.TINY)):
            for lc, img in zip(prog.cores, prog.image, strict=True):
                rows = [[] for _ in range(prog.t_max)]
                for li, nid in enumerate(lc.neuron_ids):
                    for t, cur in prog.inputs.get(nid, ()):
                        rows[t].append((li, cur, -1))
                assert img.external == tuple(tuple(r) for r in rows)

    def test_verify_workload_builds_one_image_for_its_runs(self, monkeypatch):
        from snnmesh import compiler
        from snnmesh.cli import verify_workload
        from snnmesh.model import load_workload

        builds = []
        build_image = compiler.build_image

        def counted(prog):
            builds.append(prog)
            return build_image(prog)

        monkeypatch.setattr(compiler, "build_image", counted)
        net = load_workload(os.path.join(FIXTURES, "tiny_workload.json"))
        ok, details = verify_workload(net, SimConfig(grid=(2, 2)))
        assert ok and sorted(details["reports"]) == ["depasync", "se", "sync"]
        assert len(builds) == 1


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

    @pytest.mark.parametrize("mode", ["sync", "se", "depasync"])
    def test_cores_without_neurons_match_reference(self, mode):
        # 3 neurons on 16 cores: 13 cores step through every timestep empty
        net = gen_synthetic(3, 6, seed=2, t_max=30, input_rate=0.6)
        ref = reference_run(net).ordered()
        prog = compile_network(net, (4, 4))
        assert sum(not img.neuron_ids for img in prog.image) == 13
        rep = run(prog, SimConfig(grid=(4, 4), mode=mode, debug=True))
        assert ref and [tuple(p) for p in rep.raster] == ref
        assert rep.violations == 0

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
            neurons=[(p, 0)] * 2,
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
            neurons=[(p, 0)] * 4,
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
        P=st.one_of(st.none(), st.integers(1, 6)),
    )
    @settings(max_examples=40, deadline=None)
    def test_raster_matches_reference(self, seed, n, density, max_delay, m, mode, P):
        net = gen_synthetic(n, int(n * density), seed=seed, t_max=12,
                            max_delay=max_delay, input_rate=0.3,
                            rate_knobs=(1.0, 2.0, 4.0, 8.0))
        ref = reference_run(net).ordered()
        prog = compile_network(net, (2, 2))
        rep = run(prog, SimConfig(grid=(2, 2), mode=mode, m=m, P=P, debug=True))
        assert [tuple(p) for p in rep.raster] == ref
        assert rep.violations == 0
        if mode == "depasync":
            self._check_control_plane(net, prog, ref, rep)

    @staticmethod
    def _check_control_plane(net, prog, ref, rep):
        """Every core notifies each dependency once per timestep; a FINISH
        rides a spike exactly when its source fired onto that core then."""
        graph = prog.dep_graph
        edges = sum(len(graph.pre[c]) + len(graph.post[c])
                    for c in range(prog.n_cores))
        core_of = {n: lc.id for lc in prog.cores for n in lc.neuron_ids}
        fired = set(ref)
        carried = {(core_of[s.src], core_of[s.dst], t)
                   for s in net.synapses for t in range(net.t_max)
                   if (s.src, t) in fired and core_of[s.src] != core_of[s.dst]}
        assert rep.noc["injected"]["DEP"] == net.t_max * edges - len(carried)
        assert rep.counts["scheduler_events"] == 2 * net.t_max * edges
        finishes = sorted((dst, src, t) for _c, dst, src, flag, t in rep.dep_log
                          if flag == FLAG_FINISH)
        assert finishes == sorted((b, a, t) for b in range(prog.n_cores)
                                  for a in graph.pre[b] for t in range(net.t_max))


class TestPinnedTinyFixture:
    """Exact modelled outputs of the committed 2x2 fixture program: a change
    to how a mode is coordinated must leave every one of them unchanged,
    unless it states a model change. The depasync rows were re-pinned by
    one: a FINISH rides the last spike its source sends that core for the
    timestep, and only a core sent no spike gets a FINISH packet (at m = 4,
    1,720 cycles, 2,028 hops and 11,159.8 energy before)."""

    @pytest.mark.parametrize("mode,m,P,cycles,rollbacks,hops,energy", [
        ("sync", 4, None, 1665, 0, 684, 7308.8),
        ("se", 4, None, 1594, 114, 684, 7841.8),
        ("se", 4, 3, 1622, 84, 684, 7703.4),
        ("se", 2, 5, 1599, 116, 684, 7852.4),
        ("depasync", 4, None, 1669, 0, 1803, 10699.6),
    ])
    def test_modelled_outputs(self, mode, m, P, cycles, rollbacks, hops, energy):
        prog = load_program(os.path.join(FIXTURES, "tiny_program.json"))
        rep = run(prog, SimConfig(grid=(2, 2), mode=mode, m=m, P=P, debug=True))
        assert rep.total_cycles == cycles
        assert rep.rollbacks == rollbacks
        assert rep.noc["hops"] == hops
        assert rep.energy["total"] == pytest.approx(energy, abs=1e-6)
        assert len(rep.raster) == 42

    # cost-model corners: no update cost, and spike costs small and large
    # next to it, so a step's true cost differs from its update cost alone
    @pytest.mark.parametrize("mode,c_update,c_spike,cycles,rollbacks,hops,energy", [
        ("sync", 0, 5, 1542, 0, 684, 7284.2),
        ("se", 0, 5, 1413, 161, 902, 15889.2),
        ("depasync", 0, 5, 1544, 0, 1803, 10674.6),
        ("sync", 1, 3, 1313, 0, 684, 7238.4),
        ("se", 1, 3, 1212, 134, 778, 10928.0),
        ("depasync", 1, 3, 1308, 0, 1803, 10627.4),
        ("sync", 2, 40, 11073, 0, 684, 9190.4),
        ("se", 2, 40, 10417, 134, 826, 14255.0),
        ("depasync", 2, 40, 11061, 0, 1803, 12578.0),
    ])
    def test_cost_model_corners(self, mode, c_update, c_spike, cycles, rollbacks,
                                hops, energy):
        prog = load_program(os.path.join(FIXTURES, "tiny_program.json"))
        rep = run(prog, SimConfig(grid=(2, 2), mode=mode, m=4, c_update=c_update,
                                  c_spike=c_spike, debug=True))
        assert rep.total_cycles == cycles
        assert rep.rollbacks == rollbacks
        assert rep.noc["hops"] == hops
        assert rep.energy["total"] == pytest.approx(energy, abs=1e-6)
        assert len(rep.raster) == 42


class TestSaturationCount:
    """``counts.saturations`` counts the Q16.16 clamps of every timestep a
    core begins, including the speculative ones a rollback cancels."""

    @pytest.fixture(scope="class")
    def saturating(self):
        # weights and currents large enough that most steps clamp
        net = gen_layered([24, 24, 16], fanin=6, seed=3, t_max=16, max_delay=2)
        lo, hi = fx(-32000.0), fx(32000.0)
        net.synapses = [dataclasses.replace(s, weight=max(lo, min(hi, s.weight * 4000)))
                        for s in net.synapses]
        net.inputs = {n: [(t, fx(30000.0)) for t, _cur in events]
                      for n, events in net.inputs.items()}
        return net, compile_network(net, (3, 3)), reference_run(net).ordered()

    @pytest.mark.parametrize("mode,P,saturations", [
        ("sync", None, 220), ("depasync", None, 220), ("se", None, 947),
        ("se", 1, 220), ("se", 3, 929),
    ])
    def test_counts_clamps_of_every_begun_step(self, saturating, mode, P,
                                               saturations):
        _net, prog, ref = saturating
        rep = run(prog, SimConfig(grid=(3, 3), mode=mode, m=2, P=P))
        assert [tuple(pr) for pr in rep.raster] == ref
        assert rep.counts["saturations"] == saturations


class TestDrainDetect:
    def test_counter_tracks_spikes_in_flight(self):
        # the barrier holds timestep 1 back while a spike of timestep 0 is
        # still in the network, and releases it once the spike has landed
        barrier = Barrier(SimConfig(grid=(2, 1), mode="sync"), t_max=2)
        cores = [SimpleNamespace(t_cur=0)]
        mesh = SteppedNoc((2, 1))
        pkt = SpikePacket(src_core=0, dst_core=1, timestep=0, synapse_id=0, delay=1)
        mesh.inject(pkt)
        assert not barrier.gate(cores, mesh)
        mesh.drain(0)
        assert barrier.gate(cores, mesh)
        assert barrier.t == 1


class TestWindowEdgeDelivery:
    """A fast producer firing every timestep at the edge of its forward
    window: its spikes reach the slow consumer for the furthest timestep its
    input window still accepts."""

    @pytest.mark.parametrize("mode", ["sync", "se", "depasync"])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_sustained_firing_across_the_window(self, mode, m):
        p = NeuronParams(tau_m=fx(1.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
        neurons = [(p, 0)] * 31
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


class TestSafetyCounter:
    """Under an admission rule that ignores the consumer window, producers
    outrun their consumers' input window: the report's ``violations`` must
    count every reception the store refused."""

    @pytest.fixture(scope="class")
    def layered(self):
        net = gen_layered([64, 64, 64], fanin=8, seed=3, t_max=40)
        return reference_run(net).ordered(), compile_network(net, (2, 2))

    @pytest.mark.parametrize("m,violations", [(1, 1877), (2, 1762), (4, 1595)])
    def test_window_blind_admission_counts_violations(self, layered, monkeypatch,
                                                      m, violations):
        def pre_only(self, core):
            return all(t >= core.t_cur for t in core.pre_finish.values())

        monkeypatch.setattr(DependencyDriven, "admits", pre_only)
        ref, prog = layered
        rep = run(prog, SimConfig(grid=(2, 2), mode="depasync", m=m))
        assert [tuple(p) for p in rep.raster] != ref
        assert rep.violations == violations


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
