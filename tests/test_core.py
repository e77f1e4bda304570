import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from snnmesh.core import (
    InputStore,
    NeuromorphicCore,
    ProtocolFault,
    SpeculativeStore,
    input_sum,
)
from snnmesh.engine import DependencyDriven, SimConfig, Speculative
from snnmesh.noc import DEP, FLAG_FINISH, FLAG_START, SPIKE, SpikePacket

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bare_core(pre=(), post=(), cid=0):
    """A core without neurons whose pre- and post-dependencies are the
    given core ids."""
    image = SimpleNamespace(cid=cid, neuron_ids=(), v0=np.zeros(0, dtype=np.int64),
                            pre=tuple(pre), post=tuple(post))
    return NeuromorphicCore(image, InputStore(1), t_max=100, c_update=1, c_spike=1)


def admits(core, m):
    return DependencyDriven(SimConfig(m=m), t_max=100).admits(core)


class TestAdvanceCondition:
    """``DependencyDriven.admits``: may the core begin timestep t_cur + 1?"""

    def test_head_core_blocked_by_forward_window(self):
        # No pre-deps; both post-deps have only started t=1; with the core
        # already done with t=2 and a window of 2, starting t=3 is refused.
        core = bare_core(post=(1, 2))
        core.post_start.update({1: 1, 2: 1})
        core.t_cur = 2
        assert admits(core, m=2) is False

    def test_tail_core_released_by_finishes(self):
        # Pre-deps finished (1, 2); the core is done with t=1; it may proceed.
        core = bare_core(pre=(1, 2))
        core.pre_finish.update({1: 1, 2: 2})
        core.t_cur = 1
        assert admits(core, m=2) is True

    def test_no_dependencies_always_true(self):
        core = bare_core()
        for t_cur in (-1, 0, 5, 99):
            core.t_cur = t_cur
            for m in (1, 2, 8):
                assert admits(core, m) is True

    def test_initial_tables_admit_t0_for_any_window(self):
        core = bare_core(pre=(1, 2, 3), post=(4, 5, 6))
        for m in (1, 2, 4, 16):
            assert admits(core, m) is True

    def test_pre_condition_requires_all(self):
        core = bare_core(pre=(1, 2))
        core.t_cur = 3
        core.pre_finish.update({1: 3, 2: 2})
        assert admits(core, m=4) is False
        core.pre_finish[2] = 3
        assert admits(core, m=4) is True


class TestDependencyTables:
    """``NeuromorphicCore.on_dep`` keeps the last FINISH per pre-dependency
    and the last START per post-dependency, keyed by the sender."""

    def test_finish_updates_pre_table(self):
        core = bare_core(pre=(1, 2))
        core.pre_finish[2] = 2
        core.on_dep(1, FLAG_FINISH, 1)
        assert core.pre_finish == {1: 1, 2: 2}

    def test_stale_update_is_ignored(self):
        core = bare_core(pre=(1,))
        core.pre_finish[1] = 1
        core.on_dep(1, FLAG_FINISH, 0)
        assert core.pre_finish == {1: 1}

    def test_start_updates_post_table(self):
        core = bare_core(post=(1, 2))
        core.post_start.update({1: 1, 2: 1})
        core.on_dep(2, FLAG_START, 2)
        assert core.post_start == {1: 1, 2: 2}

    def test_tables_never_decrease(self):
        core = bare_core(pre=(1,), post=(2,))
        hi = -1
        for t in [3, 1, 4, 2, 7, 5]:
            core.on_dep(1, FLAG_FINISH, t)
            hi = max(hi, t)
            assert core.pre_finish[1] == hi

    def test_notification_from_non_dependency_is_a_protocol_fault(self):
        # core 1 is only a pre-dependency and core 2 only a post-dependency
        core = bare_core(pre=(1,), post=(2,))
        for src, flag in [(5, FLAG_FINISH), (2, FLAG_FINISH),
                          (5, FLAG_START), (1, FLAG_START)]:
            with pytest.raises(ProtocolFault):
                core.on_dep(src, flag, 0)
        assert core.pre_finish == {1: -1} and core.post_start == {2: 0}


def read(store, t, n_local=1):
    """What a core of ``n_local`` neurons does with its input store over one
    timestep."""
    return input_sum(store.take(t, None), n_local).tolist()


class TestInputStore:
    """The window ``consumed < consuming_t <= consumed + window``, where
    ``window`` is max_delay + m - 1 and ``consumed`` the last timestep read."""

    def test_receive_then_take(self):
        store = InputStore(window=4)
        store.receive(0, 1, 10)
        store.receive(2, 0, 7)
        assert read(store, 0, 2) == [0, 10]
        assert read(store, 1, 2) == [0, 0]
        assert read(store, 2, 2) == [7, 0]
        assert store.violations == 0

    def test_write_before_read_is_safe(self):
        store = InputStore(window=4)
        read(store, 0)
        store.receive(1, 0, 5)  # t=1 not read yet
        assert store.violations == 0
        assert read(store, 1) == [5]

    def test_late_write_after_read_is_a_violation(self):
        store = InputStore(window=4)
        store.take(0, None)
        store.receive(0, 0, 5)
        assert store.violations == 1
        assert not store.recv  # dropped, not kept for later

    def test_write_at_window_edge_after_read_is_kept(self):
        store = InputStore(window=2)
        store.take(0, None)       # reading t=0
        store.receive(2, 0, 9)    # 0 + window: the furthest safe timestep
        assert store.violations == 0
        read(store, 1)
        assert read(store, 2) == [9]

    def test_write_beyond_window_is_a_violation(self):
        store = InputStore(window=2)
        store.receive(2, 0, 1)  # t=0 unread: only t=0 and t=1 fit
        store.receive(5, 0, 1)
        assert store.violations == 2

    def test_future_write_survives_a_seal(self):
        store = InputStore(window=4)
        store.receive(2, 0, 4)
        read(store, 0)
        read(store, 1)
        assert read(store, 2) == [4]

    @pytest.mark.parametrize("n_receptions", [1, 2, 40, 200])
    def test_take_sums_receptions_per_neuron(self, n_receptions):
        # few receptions for many neurons and many for few take different
        # summing paths; both give the exact int64 sums
        rng = np.random.default_rng(n_receptions)
        store = InputStore(window=1)
        want = [0] * 16
        for tgt, w in zip(rng.integers(0, 16, n_receptions).tolist(),
                          rng.integers(-(1 << 31), 1 << 31, n_receptions).tolist()):
            store.receive(0, tgt, w)
            want[tgt] += w
        acc = input_sum(store.take(0, None), 16)
        assert acc.dtype == np.int64
        assert acc.tolist() == want

    def test_speculative_store_has_no_window(self):
        store = SpeculativeStore()
        state = (np.zeros(1, dtype=np.int64), (0, 0))
        assert store.receive(9, 0, 1) is None  # far ahead: kept
        store.take(0, state)
        assert store.receive(0, 0, 3) == 0     # already read: roll back to 0
        assert store.violations == 0
        assert input_sum(store.take(0, state), 1).tolist() == [3]


class TestPacketEmission:
    """Direct checks of what a core injects at timestep start and finish,
    its spikes and the dependency-driven protocol's notifications."""

    def _cores(self):
        from conftest import build_diamond_trace_program
        from snnmesh.engine import new_cores

        _net, prog = build_diamond_trace_program()
        cfg = SimConfig(grid=(2, 2), mode="depasync", m=2, c_update=10,
                        c_spike=20)
        return (new_cores(prog, cfg, t_max=prog.t_max),
                DependencyDriven(cfg, prog.t_max))

    def test_start_notifications_go_to_pre_dependencies(self):
        cores, protocol = self._cores()
        cores[3].begin(cycle=0)
        starts = protocol.after_begin(cores[3])
        assert [p.dst_core for p in starts] == list(cores[3].image.pre) == [1, 2]
        for p in starts:
            assert p.kind == DEP
            assert p.flag == FLAG_START
            assert p.timestep == 0
            assert p.src_core == 3
            # the sender is a post-dependency there
            cores[p.dst_core].on_dep(p.src_core, p.flag, p.timestep)
            assert cores[p.dst_core].post_start[3] == 0
        assert cores[3].counters["scheduler_events"] == 2

    def test_finish_notifications_go_to_post_dependencies(self):
        cores, protocol = self._cores()
        cores[1].begin(cycle=0)
        spikes = cores[1].finish(cycle=10)
        assert spikes == []  # nothing fires at t=0, so the FINISH is a packet
        finishes = protocol.after_finish(cores[1], spikes)
        assert [p.dst_core for p in finishes] == list(cores[1].image.post) == [3]
        assert finishes[0].flag == FLAG_FINISH
        assert finishes[0].src_core == 1
        assert finishes[0].timestep == 0
        cores[3].on_dep(finishes[0].src_core, finishes[0].flag, 0)
        assert cores[3].pre_finish == {1: 0, 2: -1}

    def test_finish_rides_the_last_spike_to_each_destination(self):
        # post-dependencies 1, 2 and 3; the spikes of t=5 go to 1 and 2 only
        core = bare_core(post=(1, 2, 3))
        core.t_cur = 5
        spikes = [SpikePacket(0, dst, 5, syn, 1)
                  for syn, dst in enumerate([1, 2, 1, 1, 2])]
        finishes = DependencyDriven(SimConfig(), t_max=100).after_finish(
            core, spikes)
        assert [p.finish for p in spikes] == [False, False, False, True, True]
        assert [(p.src_core, p.dst_core, p.flag, p.timestep)
                for p in finishes] == [(0, 3, FLAG_FINISH, 5)]
        # one scheduler event per post-dependency, carried or not
        assert core.counters["scheduler_events"] == 3

    def test_core_without_dependencies_emits_nothing(self):
        cores, protocol = self._cores()
        cores[0].begin(cycle=0)  # no pre-dependencies
        assert protocol.after_begin(cores[0]) == []
        # the sink core has no post-dependencies and nothing fires at t=0
        cores[3].begin(cycle=0)
        assert cores[3].finish(cycle=10) == []
        assert protocol.after_finish(cores[3], []) == []

    def test_one_spike_packet_per_remote_fanout_synapse(self):
        from snnmesh.compiler import compile_network
        from snnmesh.engine import new_cores
        from snnmesh.fixedpoint import fx
        from snnmesh.model import Network, NeuronParams, Synapse

        p = NeuronParams(tau_m=fx(1.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
        # one source neuron with three synapses spread over two other cores
        # and, between them, one to a second neuron of its own core
        net = Network(
            neurons=[(p, 0)] * 5,
            synapses=[Synapse(0, 1, fx(1.0), 1), Synapse(0, 4, fx(1.0), 2),
                      Synapse(0, 2, fx(1.0), 1), Synapse(0, 3, fx(1.0), 1)],
            inputs={0: [(0, fx(20.0))]},
            t_max=3, max_delay=2,
        )
        prog = compile_network(net, (3, 1), assignment=[0, 1, 1, 2, 0])
        cfg = SimConfig(grid=(3, 1), mode="depasync", c_update=1, c_spike=1)
        cores = new_cores(prog, cfg, t_max=3)
        earliest = cores[0].begin(cycle=0)
        assert earliest == 1 * 2  # the update alone
        cost = cores[0].evaluate()  # completion cycle of a step begun at 0
        assert cost == 1 * 2 + 1 * 4  # update plus four emissions
        spikes = cores[0].finish(cycle=cost)
        assert [pk.kind for pk in spikes] == [SPIKE] * 3
        assert sorted(pk.dst_core for pk in spikes) == [1, 1, 2]
        assert [(pk.dst_core, pk.synapse_id) for pk in spikes] == [(1, 0), (1, 1), (2, 0)]
        # the local synapse is a reception (local target, weight, sending
        # timestep) under the timestep that consumes it
        assert cores[0].inputs.recv == {2: [(1, fx(1.0), 0)]}

    def test_rollback_cancels_the_undone_spikes_in_send_order(self):
        from snnmesh.compiler import compile_network
        from snnmesh.engine import new_cores
        from snnmesh.fixedpoint import fx
        from snnmesh.model import Network, NeuronParams, Synapse

        p = NeuronParams(tau_m=fx(1.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
        # neurons 0 and 1 of core 0 fire at t=0 and t=1; each sends to
        # neuron 2 of its own core and to cores 1 and 2
        net = Network(
            neurons=[(p, 0)] * 5,
            synapses=[Synapse(0, 3, fx(1.0), 1), Synapse(0, 2, fx(1.0), 1),
                      Synapse(0, 4, fx(1.0), 2), Synapse(1, 4, fx(1.0), 1),
                      Synapse(1, 2, fx(1.0), 2), Synapse(1, 3, fx(1.0), 2)],
            inputs={t: [(0, fx(20.0)), (1, fx(20.0))] for t in (0, 1)},
            t_max=3, max_delay=2,
        )
        prog = compile_network(net, (3, 1), assignment=[0, 0, 0, 1, 2])
        cfg = SimConfig(grid=(3, 1), mode="se", c_update=1, c_spike=1)
        core = new_cores(prog, cfg, t_max=3)[0]
        sent, cycle = [], 0
        for _t in range(2):
            core.begin(cycle)
            cycle = core.evaluate()
            sent.append(core.finish(cycle))
        assert core.raster == {0: [0, 1], 1: [0, 1]}
        # the local synapse to neuron 2 is a reception, not a packet
        assert [len(spikes) for spikes in sent] == [4, 4]
        anti = core.rollback(0, cycle)
        assert anti == [SpikePacket(pk.src_core, pk.dst_core, pk.timestep,
                                    pk.synapse_id, pk.delay, anti=True)
                        for spikes in sent for pk in spikes]
        assert [pk.timestep for pk in anti] == [0] * 4 + [1] * 4
        assert all(pk.dst_core != core.cid for pk in anti)
        assert core.raster == {}


class TestDeferredEvaluation:
    """``begin`` only reads a timestep's input; the step is computed when
    its earliest completion comes, unless ``se``'s ``after_begin`` finds
    that it may saturate."""

    def test_cancelled_step_is_never_computed(self, monkeypatch):
        from snnmesh import core as core_module
        from snnmesh.compiler import compile_network
        from snnmesh.engine import new_cores
        from snnmesh.fixedpoint import fx
        from snnmesh.model import Network, NeuronParams, Synapse

        calls = []
        real = core_module.lif_step_arrays

        def counted(*args, **kwargs):
            calls.append(args[0].size)
            return real(*args, **kwargs)

        monkeypatch.setattr(core_module, "lif_step_arrays", counted)
        # g_l = 0.5 doubles the input: 30000.0 saturates, 1.0 cannot
        p = NeuronParams(tau_m=fx(1.0), v_rst=0, g_l=fx(0.5), v_th=fx(16.0))
        net = Network(neurons=[(p, 0)] * 2, synapses=[Synapse(0, 1, fx(1.0), 1)],
                      inputs={1: [(0, fx(1.0)), (2, fx(30000.0))]},
                      t_max=3, max_delay=1)
        prog = compile_network(net, (2, 1), assignment=[0, 1])
        cfg = SimConfig(grid=(2, 1), mode="se", c_update=5, c_spike=1)
        sink = new_cores(prog, cfg, t_max=3)[1]
        late = SpikePacket(0, 1, timestep=0, synapse_id=0, delay=1)

        assert sink.begin(cycle=0) == 5
        assert calls == []
        sink.finish(cycle=5)  # evaluates t=0
        assert calls == [1]
        sink.begin(cycle=5)   # t=1
        # a spike for t=1 lands before the earliest completion at cycle 10
        assert sink.on_spike(late) == 1
        sink.rollback(1, cycle=7)
        assert calls == [1]   # the cancelled step never ran
        assert sink.rollback_cycles == 2
        sink.begin(cycle=7)
        assert sink.evaluate() == 7 + 5
        sink.finish(cycle=12)
        assert calls == [1, 1]
        assert sink.counters["saturations"] == 0

        # t=2's input cannot be proven clamp-free: se's after_begin computes
        # it, and its clamps stay counted when a rollback cancels it
        sink.begin(cycle=12)
        assert calls == [1, 1]
        Speculative(cfg, 3).after_begin(sink)
        assert calls == [1, 1, 1]
        clamps = sink.counters["saturations"]
        assert clamps > 0
        assert sink.on_spike(SpikePacket(0, 1, timestep=1, synapse_id=0, delay=1)) == 2
        sink.rollback(2, cycle=13)
        assert sink.counters["saturations"] == clamps
        assert calls == [1, 1, 1]

    def test_step_sums_its_receptions_and_external_input_once(self):
        """A timestep's external current and its receptions are each summed
        once, also when ``se`` runs the timestep again after a rollback."""
        from snnmesh.compiler import compile_network
        from snnmesh.engine import new_cores
        from snnmesh.fixedpoint import fx
        from snnmesh.model import Network, NeuronParams, Synapse, lif_step_arrays

        p = NeuronParams(tau_m=fx(2.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
        ext, w_a, w_b = fx(1.0), fx(2.0), fx(4.0)
        net = Network(neurons=[(p, 0)] * 3,
                      synapses=[Synapse(0, 1, w_a, 1), Synapse(2, 1, w_b, 1)],
                      inputs={1: [(1, ext)]}, t_max=3, max_delay=1)
        prog = compile_network(net, (2, 1), assignment=[0, 1, 0])
        cfg = SimConfig(grid=(2, 1), mode="se", c_update=5, c_spike=1)
        sink = new_cores(prog, cfg, t_max=3)[1]
        img = sink.image
        speculative = Speculative(cfg, 3)

        def step(cycle):
            sink.begin(cycle)
            speculative.after_begin(sink)
            sink.finish(cycle + 5)

        def expected(v, total):
            acc = np.array([total], dtype=np.int64)
            return lif_step_arrays(v, acc, img.tau, img.g, img.vr, img.vth)[0].tolist()

        step(0)
        v0 = sink.v
        row = img.in_synapses.index
        spike_a = SpikePacket(0, 1, timestep=0, synapse_id=row((0, w_a)), delay=1)
        spike_b = SpikePacket(0, 1, timestep=0, synapse_id=row((0, w_b)), delay=1)
        assert sink.on_spike(spike_a) is None
        step(5)
        assert sink.v.tolist() == expected(v0, ext + w_a)

        # a late spike for t=1 rolls it back; the step run again sums the
        # external current and both spikes, each once
        assert sink.on_spike(spike_b) == 1
        sink.rollback(1, cycle=11)
        step(11)
        assert sink.v.tolist() == expected(v0, ext + w_a + w_b)
        step(16)
        assert sink.raster == {0: [], 1: [], 2: []}


class TestBenchAttribution:
    """The benchmark's per-layer trace wraps six ``NeuromorphicCore`` methods
    by name on the class. Each must be reached, through the class, in every
    mode the harness reports it for; a subclass override or a renamed method
    would silently zero those metrics."""

    @pytest.fixture(scope="class")
    def run_bench(self):
        bench_dir = os.path.join(ROOT, "bench")
        if bench_dir not in sys.path:
            sys.path.insert(0, bench_dir)
        import run_bench

        return run_bench

    def test_traced_core_methods_reached_in_their_modes(self, run_bench, monkeypatch):
        from snnmesh.compiler import load_program
        from snnmesh.core import NeuromorphicCore
        from snnmesh.engine import run

        traced = {attr: name for owner, attr, name in run_bench.TRACE_POINTS
                  if owner is NeuromorphicCore}
        assert sorted(traced) == ["begin", "epoch_reset", "finish", "on_dep",
                                  "on_spike", "rollback"]
        calls: dict[str, int] = {}

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for attr, name in traced.items():
            monkeypatch.setattr(NeuromorphicCore, attr,
                                counted(getattr(NeuromorphicCore, attr), name))
        prog = load_program(os.path.join(ROOT, "tests", "fixtures",
                                         "tiny_program.json"))
        for mode in run_bench.MODES:
            calls.clear()
            run(prog, SimConfig(grid=(2, 2), mode=mode, m=run_bench.M_WINDOW))
            for name in traced.values():
                reached = calls.get(name, 0) > 0
                assert reached == (mode in run_bench.TRACED_CALLS[name]), (mode, name)
