import os
import sys

import pytest

from snnmesh.core import (
    CircularSpikeBuffer,
    DependencyTables,
    ProtocolFault,
    advance_condition,
    on_dep_packet,
)
from snnmesh.noc import DEP, FLAG_FINISH, FLAG_START, DepBody, Packet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dep_packet(flag, t, dep_id):
    return Packet(kind=DEP, src_core=0, dst_core=1, src_xy=(0, 0),
                  dst_xy=(1, 0), body=DepBody(timestep=t, flag=flag,
                                              dep_id=dep_id))


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

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            advance_condition(DependencyTables(0, 0), 0, 0)


class TestDependencyTables:
    def test_finish_updates_pre_table(self):
        tables = DependencyTables(2, 0)
        tables.pre_finish = [-1, 2]
        on_dep_packet(tables, dep_packet(FLAG_FINISH, 1, 0))
        assert tables.pre_finish == [1, 2]

    def test_stale_update_is_ignored(self):
        tables = DependencyTables(1, 0)
        tables.pre_finish = [1]
        on_dep_packet(tables, dep_packet(FLAG_FINISH, 0, 0))
        assert tables.pre_finish == [1]

    def test_start_updates_post_table(self):
        tables = DependencyTables(0, 2)
        tables.post_start = [1, 1]
        on_dep_packet(tables, dep_packet(FLAG_START, 2, 1))
        assert tables.post_start == [1, 2]

    def test_tables_never_decrease(self):
        tables = DependencyTables(1, 1)
        seq = [3, 1, 4, 2, 7, 5]
        hi = -1
        for t in seq:
            on_dep_packet(tables, dep_packet(FLAG_FINISH, t, 0))
            hi = max(hi, t)
            assert tables.pre_finish[0] == hi

    def test_out_of_range_dep_id_is_a_protocol_fault(self):
        tables = DependencyTables(1, 1)
        with pytest.raises(ProtocolFault):
            on_dep_packet(tables, dep_packet(FLAG_FINISH, 0, 5))


class TestCircularSpikeBuffer:
    def test_slot_count_matches_window_formula(self):
        # max_delay=1, m=4 -> 4 slots
        buf = CircularSpikeBuffer(n_slot=1 + 4 - 1, n_local=3)
        assert buf.n_slot == 4

    def test_write_then_consume(self):
        buf = CircularSpikeBuffer(4, 2)
        buf.write(0, 1, 10)
        buf.write(2, 0, 7)
        row = buf.consume()
        assert list(row) == [0, 10]
        buf.rotate()
        buf.consume()
        buf.rotate()
        assert list(buf.consume()) == [7, 0]

    def test_head_boundary_write_before_read_is_safe(self):
        buf = CircularSpikeBuffer(4, 1)
        buf.head_t = 1
        assert buf.write(1, 0, 5) is True  # head not consumed yet
        assert buf.violations == 0
        assert list(buf.consume()) == [5]

    def test_late_write_after_read_is_a_violation(self):
        buf = CircularSpikeBuffer(4, 1)
        buf.consume()
        assert buf.write(0, 0, 5) is False
        assert buf.violations == 1

    def test_write_one_revolution_ahead_lands_after_rotation(self):
        buf = CircularSpikeBuffer(2, 1)
        buf.consume()                      # reading t=0
        assert buf.write(2, 0, 9) is True  # t=2 aliases the recycled head row
        assert buf.violations == 0
        buf.rotate()                       # head now t=1
        buf.consume()
        buf.rotate()                       # head now t=2
        assert list(buf.consume()) == [9]

    def test_write_beyond_window_is_a_violation(self):
        buf = CircularSpikeBuffer(2, 1)
        assert buf.write(2, 0, 1) is False  # head unread, t=2 would corrupt t=0
        assert buf.write(5, 0, 1) is False
        assert buf.violations == 2

    def test_rotate_zeroes_unconsumed_and_advances(self):
        buf = CircularSpikeBuffer(4, 1)
        assert buf.head == 0
        buf.write(0, 0, 3)
        buf.rotate()  # t=0 never consumed: discarded
        assert buf.head == 1
        assert buf.head_t == 1
        for _ in range(3):
            buf.rotate()
        assert buf.head == 0
        assert not buf.slots.any()

    def test_future_write_survives_one_rotation(self):
        buf = CircularSpikeBuffer(4, 1)
        buf.write(2, 0, 4)
        buf.consume()
        buf.rotate()
        buf.consume()
        buf.rotate()
        assert list(buf.consume()) == [4]


class TestPacketEmission:
    """Direct checks of what a core injects at timestep start and finish."""

    def _cores(self):
        from conftest import build_diamond_trace_program
        from snnmesh.engine import SimConfig, _build_cores

        _net, prog = build_diamond_trace_program()
        cfg = SimConfig(grid=(2, 2), mode="depasync", m=2, c_update=10,
                        c_spike=20)
        return prog, _build_cores(prog, cfg, t_max=prog.t_max)

    def test_start_notifications_go_to_pre_dependencies(self):
        prog, cores = self._cores()
        _cost, starts = cores[3].begin(cycle=0)
        assert sorted(p.dst_core for p in starts) == [1, 2]
        for p in starts:
            assert p.kind == DEP
            assert p.body.flag == FLAG_START
            assert p.body.timestep == 0
            # the carried dep id addresses this core's row in the
            # receiver's post table
            assert prog.dep_graph.post[p.dst_core][p.body.dep_id] == 3

    def test_finish_notifications_go_to_post_dependencies(self):
        prog, cores = self._cores()
        cores[1].begin(cycle=0)
        packets = cores[1].finish(cycle=10)
        finishes = [p for p in packets if p.kind == DEP]
        assert [p.dst_core for p in finishes] == [3]
        assert finishes[0].body.flag == FLAG_FINISH
        assert prog.dep_graph.pre[3][finishes[0].body.dep_id] == 1

    def test_core_without_dependencies_emits_nothing(self):
        _prog, cores = self._cores()
        _cost, starts = cores[0].begin(cycle=0)  # no pre-dependencies
        assert starts == []
        # the sink core has no post-dependencies and nothing fires at t=0
        cores[3].begin(cycle=0)
        assert cores[3].finish(cycle=10) == []

    def test_one_spike_packet_per_remote_fanout_synapse(self):
        from snnmesh.compiler import compile_network
        from snnmesh.engine import SimConfig, _build_cores
        from snnmesh.fixedpoint import fx
        from snnmesh.model import Network, NeuronParams, NeuronState, Synapse

        p = NeuronParams(tau_m=fx(1.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
        # one source neuron with three synapses spread over two other cores
        net = Network(
            neurons=[(p, NeuronState(v=0)) for _ in range(4)],
            synapses=[Synapse(0, 1, fx(1.0), 1), Synapse(0, 2, fx(1.0), 1),
                      Synapse(0, 3, fx(1.0), 1)],
            inputs={0: [(0, fx(20.0))]},
            t_max=2, max_delay=1,
        )
        prog = compile_network(net, (3, 1), assignment=[0, 1, 1, 2])
        cfg = SimConfig(grid=(3, 1), mode="depasync", c_update=1, c_spike=1)
        cores = _build_cores(prog, cfg, t_max=2)
        cost, _starts = cores[0].begin(cycle=0)
        assert cost == 1 * 1 + 1 * 3  # update plus three emitted spikes
        packets = cores[0].finish(cycle=cost)
        spikes = [pk for pk in packets if pk.kind == "SPIKE"]
        assert len(spikes) == 3
        assert sorted(pk.dst_core for pk in spikes) == [1, 1, 2]


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
