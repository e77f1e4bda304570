import os
import sys

import numpy as np
import pytest

from snnmesh.core import (
    DependencyTables,
    InputStore,
    ProtocolFault,
    SpeculativeStore,
    advance_condition,
    input_sum,
)
from snnmesh.noc import DEP, FLAG_FINISH, FLAG_START, SpikePacket

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestAdvanceCondition:
    def test_head_core_blocked_by_forward_window(self):
        # No pre-deps; both post-deps have only started t=1; with the core
        # already done with t=2 and a window of 2, starting t=3 is refused.
        tables = DependencyTables(n_pre=0, n_post=2)
        tables.post_start = [1, 1]
        assert advance_condition(tables, t_cur=2, m=2) is False

    def test_tail_core_released_by_finishes(self):
        # Pre-deps finished (1, 2); the core is done with t=1; it may proceed.
        tables = DependencyTables(n_pre=2, n_post=0)
        tables.pre_finish = [1, 2]
        assert advance_condition(tables, t_cur=1, m=2) is True

    def test_no_dependencies_always_true(self):
        tables = DependencyTables(0, 0)
        for t_cur in (-1, 0, 5, 99):
            for m in (1, 2, 8):
                assert advance_condition(tables, t_cur, m) is True

    def test_initial_tables_admit_t0_for_any_window(self):
        tables = DependencyTables(3, 3)
        for m in (1, 2, 4, 16):
            assert advance_condition(tables, t_cur=-1, m=m) is True

    def test_pre_condition_requires_all(self):
        tables = DependencyTables(2, 0)
        tables.pre_finish = [3, 2]
        assert advance_condition(tables, t_cur=3, m=4) is False
        tables.pre_finish = [3, 3]
        assert advance_condition(tables, t_cur=3, m=4) is True


class TestDependencyTables:
    def test_finish_updates_pre_table(self):
        tables = DependencyTables(2, 0)
        tables.pre_finish = [-1, 2]
        tables.update(FLAG_FINISH, 0, 1)
        assert tables.pre_finish == [1, 2]

    def test_stale_update_is_ignored(self):
        tables = DependencyTables(1, 0)
        tables.pre_finish = [1]
        tables.update(FLAG_FINISH, 0, 0)
        assert tables.pre_finish == [1]

    def test_start_updates_post_table(self):
        tables = DependencyTables(0, 2)
        tables.post_start = [1, 1]
        tables.update(FLAG_START, 1, 2)
        assert tables.post_start == [1, 2]

    def test_tables_never_decrease(self):
        tables = DependencyTables(1, 1)
        seq = [3, 1, 4, 2, 7, 5]
        hi = -1
        for t in seq:
            tables.update(FLAG_FINISH, 0, t)
            hi = max(hi, t)
            assert tables.pre_finish[0] == hi

    def test_out_of_range_dep_id_is_a_protocol_fault(self):
        tables = DependencyTables(1, 1)
        with pytest.raises(ProtocolFault):
            tables.update(FLAG_FINISH, 5, 0)


def read(store, t):
    """What a core does with its input store over one timestep."""
    row = input_sum(store.take(t, None), store.n_local).tolist()
    store.seal(t, [])
    return row


class TestInputStore:
    """The window ``consumed < consuming_t <= consumed + window``, where
    ``window`` is max_delay + m - 1 and ``consumed`` the last timestep read."""

    def test_receive_then_take(self):
        store = InputStore(2, window=4)
        store.receive(0, 1, 10)
        store.receive(2, 0, 7)
        assert read(store, 0) == [0, 10]
        assert read(store, 1) == [0, 0]
        assert read(store, 2) == [7, 0]
        assert store.violations == 0

    def test_write_before_read_is_safe(self):
        store = InputStore(1, window=4)
        read(store, 0)
        store.receive(1, 0, 5)  # t=1 not read yet
        assert store.violations == 0
        assert read(store, 1) == [5]

    def test_late_write_after_read_is_a_violation(self):
        store = InputStore(1, window=4)
        store.take(0, None)
        store.receive(0, 0, 5)
        assert store.violations == 1
        assert not store.recv  # dropped, not kept for later

    def test_write_at_window_edge_after_read_is_kept(self):
        store = InputStore(1, window=2)
        store.take(0, None)       # reading t=0
        store.receive(2, 0, 9)    # 0 + window: the furthest safe timestep
        assert store.violations == 0
        store.seal(0, [])
        read(store, 1)
        assert read(store, 2) == [9]

    def test_write_beyond_window_is_a_violation(self):
        store = InputStore(1, window=2)
        store.receive(2, 0, 1)  # t=0 unread: only t=0 and t=1 fit
        store.receive(5, 0, 1)
        assert store.violations == 2

    def test_future_write_survives_a_seal(self):
        store = InputStore(1, window=4)
        store.receive(2, 0, 4)
        read(store, 0)
        read(store, 1)
        assert read(store, 2) == [4]

    @pytest.mark.parametrize("n_receptions", [1, 2, 40, 200])
    def test_take_sums_receptions_per_neuron(self, n_receptions):
        # few receptions for many neurons and many for few take different
        # summing paths; both give the exact int64 sums
        rng = np.random.default_rng(n_receptions)
        store = InputStore(16, window=1)
        want = [0] * 16
        for tgt, w in zip(rng.integers(0, 16, n_receptions).tolist(),
                          rng.integers(-(1 << 31), 1 << 31, n_receptions).tolist()):
            store.receive(0, tgt, w)
            want[tgt] += w
        acc = input_sum(store.take(0, None), 16)
        assert acc.dtype == np.int64
        assert acc.tolist() == want

    def test_speculative_store_has_no_window(self):
        store = SpeculativeStore(1)
        state = (np.zeros(1, dtype=np.int64), (0, 0))
        assert store.receive(9, 0, 1) is None  # far ahead: kept
        store.take(0, state)
        assert store.receive(0, 0, 3) == 0     # already read: roll back to 0
        assert store.violations == 0
        assert input_sum(store.take(0, state), 1).tolist() == [3]


class TestPacketEmission:
    """Direct checks of what a core injects at timestep start and finish."""

    def _cores(self):
        from conftest import build_diamond_trace_program
        from snnmesh.engine import SimConfig, new_cores

        _net, prog = build_diamond_trace_program()
        cfg = SimConfig(grid=(2, 2), mode="depasync", m=2, c_update=10,
                        c_spike=20)
        return prog, new_cores(prog, cfg, t_max=prog.t_max)

    def test_start_notifications_go_to_pre_dependencies(self):
        prog, cores = self._cores()
        _cost, starts = cores[3].begin(cycle=0)
        assert sorted(p.dst_core for p in starts) == [1, 2]
        for p in starts:
            assert p.kind == DEP
            assert p.flag == FLAG_START
            assert p.timestep == 0
            # the carried dep id addresses this core's row in the
            # receiver's post table
            assert prog.dep_graph.post[p.dst_core][p.dep_id] == 3

    def test_finish_notifications_go_to_post_dependencies(self):
        prog, cores = self._cores()
        cores[1].begin(cycle=0)
        packets = cores[1].finish(cycle=10)
        finishes = [p for p in packets if p.kind == DEP]
        assert [p.dst_core for p in finishes] == [3]
        assert finishes[0].flag == FLAG_FINISH
        assert prog.dep_graph.pre[3][finishes[0].dep_id] == 1

    def test_core_without_dependencies_emits_nothing(self):
        _prog, cores = self._cores()
        _cost, starts = cores[0].begin(cycle=0)  # no pre-dependencies
        assert starts == []
        # the sink core has no post-dependencies and nothing fires at t=0
        cores[3].begin(cycle=0)
        assert cores[3].finish(cycle=10) == []

    def test_one_spike_packet_per_remote_fanout_synapse(self):
        from snnmesh.compiler import compile_network
        from snnmesh.engine import SimConfig, new_cores
        from snnmesh.fixedpoint import fx
        from snnmesh.model import Network, NeuronParams, Synapse

        p = NeuronParams(tau_m=fx(1.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
        # one source neuron with three synapses spread over two other cores
        net = Network(
            neurons=[(p, 0)] * 4,
            synapses=[Synapse(0, 1, fx(1.0), 1), Synapse(0, 2, fx(1.0), 1),
                      Synapse(0, 3, fx(1.0), 1)],
            inputs={0: [(0, fx(20.0))]},
            t_max=2, max_delay=1,
        )
        prog = compile_network(net, (3, 1), assignment=[0, 1, 1, 2])
        cfg = SimConfig(grid=(3, 1), mode="depasync", c_update=1, c_spike=1)
        cores = new_cores(prog, cfg, t_max=2)
        earliest, _starts = cores[0].begin(cycle=0)
        assert earliest == 1 * 1  # the update alone
        cost = cores[0].evaluate()  # completion cycle of a step begun at 0
        assert cost == 1 * 1 + 1 * 3  # update plus three emitted spikes
        packets = cores[0].finish(cycle=cost)
        spikes = [pk for pk in packets if pk.kind == "SPIKE"]
        assert len(spikes) == 3
        assert sorted(pk.dst_core for pk in spikes) == [1, 1, 2]


class TestDeferredEvaluation:
    """``begin`` only reads a timestep's input; the step is computed when
    its earliest completion comes, unless it may saturate."""

    def test_cancelled_step_is_never_computed(self, monkeypatch):
        from snnmesh import core as core_module
        from snnmesh.compiler import compile_network
        from snnmesh.engine import SimConfig, new_cores
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

        assert sink.begin(cycle=0)[0] == 5
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

        # t=2's input cannot be proven clamp-free: begin computes it, and
        # its clamps stay counted when a rollback cancels it
        sink.begin(cycle=12)
        assert calls == [1, 1, 1]
        clamps = sink.counters["saturations"]
        assert clamps > 0
        assert sink.on_spike(SpikePacket(0, 1, timestep=1, synapse_id=0, delay=1)) == 2
        sink.rollback(2, cycle=13)
        assert sink.counters["saturations"] == clamps
        assert calls == [1, 1, 1]


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
        from snnmesh.engine import SimConfig, run

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
