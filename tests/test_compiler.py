import copy
import gc
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from snnmesh.compiler import (
    Capacity,
    CompileError,
    DepGraph,
    compile_network,
    exchange_with_core0,
    exchanged_assignment,
    extract_deps,
    hilbert_index_to_xy,
    load_program,
    map_hilbert,
    map_plain,
    partition,
    program_to_dict,
    save_program,
)
from snnmesh.engine import PROTOCOLS, SimConfig, run
from snnmesh.fixedpoint import fx
from snnmesh.model import Network, NeuronParams, Synapse, gen_layered, gen_synthetic

FIXTURES = Path(__file__).parent / "fixtures"


def dep_edges(graph: DepGraph) -> list[tuple[int, int]]:
    return [(a, b) for a, post in enumerate(graph.post) for b in post]


def avg_dep_distance(placement: list[tuple[int, int]], graph: DepGraph) -> float:
    """Mean Manhattan hop distance over all dependency edges (0.0 if none)."""
    edges = dep_edges(graph)
    if not edges:
        return 0.0
    total = 0
    for a, b in edges:
        xa, ya = placement[a]
        xb, yb = placement[b]
        total += abs(xa - xb) + abs(ya - yb)
    return total / len(edges)


def simple_net(n, synapse_pairs, t_max=4):
    p = NeuronParams(tau_m=fx(2.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
    return Network(
        neurons=[(p, 0)] * n,
        synapses=[Synapse(src=a, dst=b, weight=fx(1.0), delay=1)
                  for a, b in synapse_pairs],
        inputs={}, t_max=t_max, max_delay=1,
    )


class TestPartition:
    def test_layered_one_layer_per_core(self):
        net = gen_layered([4, 2], fanin=2, seed=0, t_max=4)
        cores = partition(net, 2)
        assert cores[0].neuron_ids == [0, 1, 2, 3]
        assert cores[1].neuron_ids == [4, 5]

    def test_round_robin_balance_at_scale(self):
        net = simple_net(10240, [])
        cores = partition(net, 16)
        assert all(len(c.neuron_ids) == 640 for c in cores)

    def test_partition_property(self):
        net = gen_synthetic(97, 500, seed=5, t_max=4)
        cores = partition(net, 8)
        seen = sorted(nid for c in cores for nid in c.neuron_ids)
        assert seen == list(range(97))

    def test_every_synapse_appears_once(self):
        net = gen_synthetic(50, 400, seed=6, t_max=4)
        cores = partition(net, 4)
        total = sum(len(v) for c in cores for v in c.fanout.values())
        assert total == len(net.synapses)
        total_in = sum(len(c.in_synapses) for c in cores)
        assert total_in == len(net.synapses)

    def test_capacity_violation_names_the_core(self):
        net = simple_net(6, [])
        with pytest.raises(CompileError, match="core 0"):
            partition(net, 2, Capacity(max_neurons=4),
                      assignment=[0, 0, 0, 0, 0, 1])
        net2 = simple_net(10, [])
        with pytest.raises(CompileError, match="cannot fit"):
            partition(net2, 2, Capacity(max_neurons=3))

    def test_explicit_assignment(self):
        net = simple_net(4, [(0, 3)])
        cores = partition(net, 2, assignment=[1, 1, 0, 0])
        assert cores[0].neuron_ids == [2, 3]
        assert cores[1].neuron_ids == [0, 1]


class TestExtractDeps:
    def test_diamond_topology(self):
        # c0 -> {c1, c2}, c1 -> c3, c2 -> c3
        net = simple_net(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        cores = partition(net, 4, assignment=[0, 1, 2, 3])
        g = extract_deps(cores)
        assert g.pre[3] == [1, 2]
        assert g.post[0] == [1, 2]
        assert g.pre[0] == []

    def test_single_core_has_empty_graph(self):
        net = simple_net(5, [(0, 1), (1, 2)])
        cores = partition(net, 1)
        g = extract_deps(cores)
        assert g.pre == [[]]
        assert g.post == [[]]

    def test_matches_brute_force_oracle(self):
        net = gen_synthetic(64, 700, seed=12, t_max=4)
        n_cores = 8
        cores = partition(net, n_cores)
        assignment = {}
        for c in cores:
            for nid in c.neuron_ids:
                assignment[nid] = c.id
        expected = set()
        for s in net.synapses:
            a, b = assignment[s.src], assignment[s.dst]
            if a != b:
                expected.add((a, b))
        g = extract_deps(cores)
        assert set(dep_edges(g)) == expected

    def test_symmetry_invariant(self):
        net = gen_synthetic(40, 300, seed=13, t_max=4)
        g = extract_deps(partition(net, 6))
        for a in range(6):
            for b in g.post[a]:
                assert a in g.pre[b]
        for b in range(6):
            for a in g.pre[b]:
                assert b in g.post[a]

    def test_dep_table_limit_enforced(self):
        net = simple_net(4, [(0, 1), (0, 2), (0, 3)])
        cores = partition(net, 4, assignment=[0, 1, 2, 3])
        with pytest.raises(CompileError, match="core 0"):
            extract_deps(cores, Capacity(max_deps=2))


class TestMapping:
    def test_plain_row_major(self):
        net = simple_net(6, [])
        cores = partition(net, 6)
        p = map_plain(cores, (4, 4))
        assert p[0] == (0, 0)
        assert p[5] == (1, 1)

    def test_plain_bijective_on_full_grid(self):
        net = simple_net(16, [])
        p = map_plain(partition(net, 16), (4, 4))
        assert set(p) == {(x, y) for y in range(4) for x in range(4)}
        assert len(set(p)) == 16
        # same for hilbert
        ph = map_hilbert(partition(net, 16), (4, 4))
        assert sorted(ph) == sorted(p)

    def test_too_many_cores_rejected(self):
        net = simple_net(5, [])
        with pytest.raises(CompileError):
            map_plain(partition(net, 5), (2, 2))

    def test_hilbert_against_enumeration_oracle(self):
        # Independent recursive construction of the curve as the oracle.
        def curve(order):
            if order == 0:
                return [(0, 0)]
            prev = curve(order - 1)
            s = 1 << (order - 1)
            a = [(y, x) for x, y in prev]                     # transpose
            b = [(x, y + s) for x, y in prev]                 # up
            c = [(x + s, y + s) for x, y in prev]             # up-right
            d = [(2 * s - 1 - y, s - 1 - x) for x, y in prev]  # reflect
            return a + b + c + d

        for order in (1, 2, 3):
            side = 1 << order
            expected = curve(order)
            got = [hilbert_index_to_xy(side, d) for d in range(side * side)]
            assert got == expected

    def test_hilbert_origin_and_index5(self):
        assert hilbert_index_to_xy(4, 0) == (0, 0)
        # consecutive curve cells are mesh neighbours; index 5 per enumeration
        a = hilbert_index_to_xy(4, 4)
        b = hilbert_index_to_xy(4, 5)
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_hilbert_falls_back_on_bad_grid(self):
        net = simple_net(6, [])
        cores = partition(net, 6)
        with pytest.warns(UserWarning, match="falling back"):
            p = map_hilbert(cores, (3, 3))
        assert p == map_plain(cores, (3, 3))
        with pytest.warns(UserWarning):
            map_hilbert(cores, (4, 2))


class TestAvgDepDistance:
    def test_single_edge_adjacent(self):
        net = simple_net(2, [(0, 1)])
        cores = partition(net, 2, assignment=[0, 1])
        g = extract_deps(cores)
        p = map_plain(cores, (2, 1))
        assert avg_dep_distance(p, g) == 1.0

    def test_diamond_on_2x2_plain(self):
        net = simple_net(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        cores = partition(net, 4, assignment=[0, 1, 2, 3])
        g = extract_deps(cores)
        p = map_plain(cores, (2, 2))
        # edges c0-c1, c0-c2, c1-c3, c2-c3 at (0,0),(1,0),(0,1),(1,1)
        assert avg_dep_distance(p, g) == 1.0

    def test_empty_graph_is_zero(self):
        net = simple_net(4, [])
        cores = partition(net, 4)
        assert avg_dep_distance(map_plain(cores, (2, 2)),
                                extract_deps(cores)) == 0.0

    def test_hilbert_beats_plain_on_layered_nets(self):
        wins = []
        for seed in range(10):
            sizes = [random.Random(seed).randint(48, 96) for _ in range(8)]
            net = gen_layered(sizes, fanin=8, seed=seed, t_max=2)
            cores = partition(net, 64)
            g = extract_deps(cores)
            d_plain = avg_dep_distance(map_plain(cores, (8, 8)), g)
            d_hilb = avg_dep_distance(map_hilbert(cores, (8, 8)), g)
            wins.append((d_hilb, d_plain))
        mean_h = sum(h for h, _ in wins) / len(wins)
        mean_p = sum(p for _, p in wins) / len(wins)
        assert mean_h <= mean_p, (mean_h, mean_p)


class TestExchange:
    def test_exchange_creates_cycle_through_core0(self):
        net = gen_layered([40, 40, 40, 40], fanin=8, seed=3, t_max=4)
        cores = partition(net, 4)
        base_assign = [0] * net.n_neurons
        for c in cores:
            for nid in c.neuron_ids:
                base_assign[nid] = c.id
        g0 = extract_deps(cores)
        assert not g0.pre[0]  # layer 0, on core 0, hears from no core
        swapped = exchange_with_core0(base_assign, fraction=0.2, seed=1)
        cores2 = partition(net, 4, assignment=swapped)
        g = extract_deps(cores2)
        # some edge back into core 0 must now exist
        assert g.pre[0], "exchange did not create an inbound dependency on core 0"

    def test_zero_fraction_is_identity(self):
        assign = [0, 0, 1, 1, 2, 2]
        assert exchange_with_core0(assign, 0.0) == assign


class TestProgramFile:
    def test_round_trip(self, tmp_path):
        layered = gen_layered([8, 8, 8], fanin=4, seed=2, t_max=5)
        cyclic = compile_network(
            layered, (2, 2), assignment=exchanged_assignment(layered, 4, 0.5, seed=1))
        assert cyclic.dep_graph.pre[0], "the exchange must feed a cycle into core 0"
        for prog in (compile_network(gen_synthetic(40, 300, seed=4, t_max=6), (2, 2)),
                     compile_network(layered, (2, 2), mapping="hilbert"),
                     cyclic):
            path = tmp_path / "p.json"
            save_program(prog, path)
            back = load_program(path)
            assert program_to_dict(back) == program_to_dict(prog)
            assert back.dep_graph == prog.dep_graph
            assert back.placement == prog.placement

    def test_saved_file_is_compact_sorted_json(self, tmp_path):
        """``save_program`` formats the text itself; it must write the bytes
        ``json.dumps`` writes for the reference document."""
        wide = compile_network(
            gen_synthetic(60, 900, frac_inhibitory=0.5, seed=4, t_max=6, input_rate=0.2),
            (2, 2))
        # 15 neurons per core: fanout key "10" sorts before "2" as a string
        assert any(10 in c.fanout and 2 in c.fanout for c in wide.cores)
        assert any(w < 0 for c in wide.cores for _t, w in c.in_synapses)
        sparse = compile_network(gen_synthetic(3, 4, seed=1, t_max=5), (2, 2))
        assert not sparse.cores[3].neuron_ids  # a core with no neurons
        silent = compile_network(gen_synthetic(30, 100, seed=2, t_max=5, input_rate=0.0),
                                 (2, 2))
        assert not silent.inputs
        layered = gen_layered([24, 24, 12], fanin=6, seed=3, t_max=8, max_delay=3)
        progs = [compile_network(gen_synthetic(40, 300, seed=4, t_max=6, input_rate=0.2),
                                 (2, 2)),
                 wide, sparse, silent,
                 compile_network(layered, (2, 2), mapping="hilbert"),
                 compile_network(layered, (2, 2),
                                 assignment=exchanged_assignment(layered, 4, 0.5, seed=1)),
                 load_program(FIXTURES / "tiny_program.json"),
                 load_program(FIXTURES / "tiny_program_legacy.json")]
        path = tmp_path / "p.json"
        for prog in progs:
            save_program(prog, path)
            got = path.read_text(encoding="utf-8")
            expected = json.dumps(program_to_dict(prog), sort_keys=True) + "\n"
            if got != expected:  # pytest's diff of one long line takes minutes
                at = next(i for i, (a, b) in enumerate(zip(got + "\0", expected + "\1"))
                          if a != b)
                lo = max(at - 40, 0)
                pytest.fail(f"first difference at {at}: "
                            f"{got[lo:at + 40]!r} != {expected[lo:at + 40]!r}")

    def test_indented_fixture_equals_its_compact_resave(self, tmp_path):
        fixture = FIXTURES / "tiny_program.json"
        assert fixture.read_text(encoding="utf-8").startswith("{\n")
        prog = load_program(fixture)
        path = tmp_path / "p.json"
        save_program(prog, path)
        assert "\n" not in path.read_text(encoding="utf-8").rstrip("\n")
        back = load_program(path)
        assert program_to_dict(back) == program_to_dict(prog)
        assert back.dep_graph == prog.dep_graph

    def test_legacy_fixture_loads_and_runs_like_the_new_one(self, tmp_path):
        """Older files also store the dependency graph and each fanout
        weight; those keys are ignored, even when the stored graph is wrong."""
        legacy_doc = json.loads(
            (FIXTURES / "tiny_program_legacy.json").read_text(encoding="utf-8"))
        new = load_program(FIXTURES / "tiny_program.json")
        legacy = load_program(FIXTURES / "tiny_program_legacy.json")
        assert program_to_dict(legacy) == program_to_dict(new)
        assert legacy.dep_graph == new.dep_graph == DepGraph(**legacy_doc["dep_graph"])

        damaged_doc = copy.deepcopy(legacy_doc)
        next(row for row in damaged_doc["dep_graph"]["pre"] if row).pop()
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(damaged_doc), encoding="utf-8")
        damaged = load_program(path)
        assert damaged.dep_graph == new.dep_graph
        for mode in PROTOCOLS:
            cfg = SimConfig(grid=(2, 2), mode=mode, debug=True)
            expected = run(new, cfg).to_dict()
            assert run(legacy, cfg).to_dict() == expected
            assert run(damaged, cfg).to_dict() == expected

    def test_load_peak_memory_stays_below_twice_what_the_program_keeps(self, tmp_path):
        """Each record is decoded as the parser closes it, so the parsed
        record dicts never pile up beside the program being built."""
        path = tmp_path / "p.json"
        save_program(compile_network(gen_synthetic(2000, 8000, seed=3, t_max=20), (2, 2)),
                     path)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prog = load_program(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prog.n_cores == 4
        assert peak - base < 2 * (kept - base), (
            f"peak {(peak - base) / 1e6:.1f} MB, kept {(kept - base) / 1e6:.1f} MB")

    def test_image_allocates_under_a_fifth_of_what_the_program_keeps(self, tmp_path):
        """The runtime image reads the program's routing, synapse and
        dependency tables in place: it allocates only what it derives."""
        path = tmp_path / "p.json"
        save_program(compile_network(gen_synthetic(2000, 8000, seed=3, t_max=20), (2, 2)),
                     path)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prog = load_program(path)
            loaded = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert len(prog.image) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - loaded < (loaded - base) / 5, (
            f"image {(peak - loaded) / 1e6:.2f} MB, program {(loaded - base) / 1e6:.2f} MB")

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"cores": []}', encoding="utf-8")
        with pytest.raises(CompileError, match="malformed program document"):
            load_program(path)

    def test_compile_network_pipeline(self):
        net = gen_layered([8, 8], fanin=4, seed=2, t_max=5)
        prog = compile_network(net, (2, 2), mapping="hilbert")
        assert prog.n_cores == 4
        assert prog.t_max == 5
        with pytest.raises(CompileError):
            compile_network(net, (2, 2), mapping="zigzag")
