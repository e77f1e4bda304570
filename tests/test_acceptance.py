"""Acceptance suite: one test per criterion, each registering a pass/fail
line in the terminal summary.

Criteria 1, 2, and 11 share one batch of simulation runs (the exactness
suite); the others build purpose-built workloads.
"""

import random
import time

import pytest

from conftest import IMBALANCED_COSTS, IMBALANCED_GRID, record_criterion
from snnmesh.cli import main, summarize_results, verify_workload
from snnmesh.compiler import compile_network, exchange_with_core0, partition
from snnmesh.engine import SimConfig, run
from snnmesh.metrics import EnergyCostTable
from snnmesh.model import (
    gen_layered,
    gen_synthetic,
    rate_knobs_for_level,
    reference_run,
    save_workload,
)
from snnmesh.noc import (
    DEP,
    FLAG_FINISH,
    FLAG_START,
    SPIKE,
    DepPacket,
    SpikePacket,
)
from stepped_noc import SteppedNoc, core_at

N_SYNTHETIC = 20
N_LAYERED = 5
MODES = ("sync", "se", "depasync")


@pytest.fixture(scope="module")
def exactness_suite():
    """20 synthetic + 5 layered workloads, each run through the reference
    interpreter and all three modes with invariant checking on."""
    t0 = time.time()
    entries = []
    base_cfg = SimConfig(grid=(4, 4), m=4, debug=True)
    for i in range(N_SYNTHETIC):
        net = gen_synthetic(1000, 50000, seed=1000 + i, t_max=100,
                            input_rate=0.05)
        ok, details = verify_workload(net, base_cfg)
        entries.append({
            "kind": "synthetic", "seed": 1000 + i, "ok": ok,
            "details": details, "n_neurons": net.n_neurons, "t_max": net.t_max,
        })
    for i in range(N_LAYERED):
        net = gen_layered([256, 256, 256, 232], fanin=12, seed=2000 + i,
                          t_max=100, input_rate=0.06, max_delay=2)
        ok, details = verify_workload(net, base_cfg)
        entries.append({
            "kind": "layered", "seed": 2000 + i, "ok": ok,
            "details": details, "n_neurons": net.n_neurons, "t_max": net.t_max,
        })
    return {"entries": entries, "elapsed": time.time() - t0}


def test_criterion_01_time_accuracy(exactness_suite):
    entries = exactness_suite["entries"]
    kinds = [e["kind"] for e in entries]
    assert kinds.count("synthetic") >= 20
    assert kinds.count("layered") >= 5
    bad = [(e["kind"], e["seed"], mode, info["first_divergence"])
           for e in entries
           for mode, info in e["details"]["modes"].items()
           if not info["match"]]
    spikes = sum(e["details"]["reference_spikes"] for e in entries)
    elapsed = exactness_suite["elapsed"]
    detail = (f"{len(entries)} workloads x 3 modes bit-identical to the "
              f"reference, {spikes} spikes, {elapsed:.0f}s")
    ok = not bad and elapsed < 300
    record_criterion(1, "time accuracy across sync/se/depasync", ok, detail)
    assert not bad, f"raster divergence: {bad[:3]}"
    assert elapsed < 300, f"suite took {elapsed:.0f}s, budget is 300s"


def test_criterion_02_scheduler_safety(exactness_suite):
    entries = exactness_suite["entries"]
    total_violations = 0
    for e in entries:
        for mode, rep in e["details"]["reports"].items():
            total_violations += rep.violations
            # debug mode re-checks the per-edge conditions at every state
            # change (states are constant between changes, so that covers
            # every cycle); a violation raises inside run() and would have
            # failed the fixture already.
            assert rep.config["debug"] is True
    ok = total_violations == 0
    record_criterion(2, "buffer safety counter 0 and per-edge invariants hold",
                     ok, f"{len(entries) * 3} runs, {total_violations} violations")
    assert total_violations == 0


def test_criterion_03_trace_replay(diamond_trace_program):
    _net, prog = diamond_trace_program
    cfg = SimConfig(grid=(2, 2), mode="depasync", m=2, c_update=10,
                    c_spike=20, trace=True, debug=True)
    rep = run(prog, cfg)

    segs = {c: sorted([r for r in rep.trace if r[2] == c], key=lambda r: r[3])
            for c in range(4)}
    # head core stalls after its third timestep until the forward window
    # opens: both post-dependencies must have reported starting timestep 2
    end_t2, start_t3 = segs[0][2][1], segs[0][3][0]
    first_ge2 = {}
    for (c, dst, src, flag, t) in rep.dep_log:
        if dst == 0 and flag == FLAG_START and t >= 2 and src not in first_ge2:
            first_ge2[src] = c
    window_open = max(first_ge2.values())
    head_blocked = start_t3 > end_t2 and start_t3 == window_open
    # tail core stalls before its third timestep until the slow sibling's
    # FINISH(1) arrives
    end_t1, start_t2 = segs[3][1][1], segs[3][2][0]
    finishes = [c for (c, dst, src, flag, t) in rep.dep_log
                if dst == 3 and flag == FLAG_FINISH and t >= 1 and src == 1]
    tail_released = start_t2 > end_t1 and start_t2 == min(finishes)
    ok = head_blocked and tail_released
    record_criterion(
        3, "4-core diamond trace: window stall and FINISH release replayed", ok,
        f"head stall [{end_t2},{start_t3}), tail stall [{end_t1},{start_t2})")
    assert head_blocked
    assert tail_released


def test_criterion_04_m1_lockstep_fallback():
    skews, deltas = [], []
    for seed in (31, 32):
        net = gen_layered([96, 96, 96, 96], fanin=10, seed=seed, t_max=40)
        ref = reference_run(net).ordered()
        prog = compile_network(net, (2, 2))
        sync = run(prog, SimConfig(grid=(2, 2), mode="sync"))
        dep = run(prog, SimConfig(grid=(2, 2), mode="depasync", m=1, debug=True))
        assert [tuple(p) for p in dep.raster] == ref
        skews.append(dep.max_edge_skew)
        deltas.append(abs(dep.total_cycles - sync.total_cycles)
                      / sync.total_cycles)
    ok = max(skews) <= 1 and max(deltas) <= 0.10
    record_criterion(4, "m=1 degenerates to lockstep", ok,
                     f"max skew {max(skews)}, cycle delta vs barrier "
                     f"{max(deltas):.1%}")
    assert max(skews) <= 1
    assert max(deltas) <= 0.10, deltas


@pytest.fixture(scope="module")
def imbalanced_runs(imbalanced_program):
    net, prog = imbalanced_program
    ref = reference_run(net)

    def go(mode, m):
        cfg = SimConfig(grid=IMBALANCED_GRID, mode=mode, m=m,
                        **IMBALANCED_COSTS)
        rep = run(prog, cfg)
        assert [tuple(p) for p in rep.raster] == ref.ordered()
        return rep

    return {
        "sync": go("sync", 4),
        "se": go("se", 4),
        "dep": {m: go("depasync", m) for m in (2, 4, 8, 16)},
    }


def test_criterion_05_speedup_direction(imbalanced_runs):
    sync = imbalanced_runs["sync"].total_cycles
    se = imbalanced_runs["se"].total_cycles
    dep = imbalanced_runs["dep"][4].total_cycles
    speedup = sync / dep
    ok = dep < sync and speedup >= 1.2 and dep <= se
    record_criterion(
        5, "imbalanced workload: depasync beats the barrier", ok,
        f"speedup {speedup:.2f}x over sync, {se / dep:.2f}x over se")
    assert dep < sync
    assert speedup >= 1.2, speedup
    assert dep <= se


def test_criterion_06_buffer_size_monotonicity(imbalanced_runs):
    sync = imbalanced_runs["sync"].total_cycles
    speedups = [sync / imbalanced_runs["dep"][m].total_cycles
                for m in (2, 4, 8, 16)]
    ok = all(b >= a * 0.99 for a, b in zip(speedups, speedups[1:]))
    record_criterion(
        6, "speedup non-decreasing in the window m", ok,
        "m=2,4,8,16 -> " + ", ".join(f"{s:.2f}x" for s in speedups))
    assert ok, speedups


def test_criterion_06_cli_sweep_speedup_column(imbalanced_program, tmp_path):
    # Same trend through the CLI surface, as the sweep example demands.
    net, _prog = imbalanced_program
    wpath = tmp_path / "imbalanced.json"
    save_workload(net, wpath)
    results = tmp_path / "results.csv"
    code = main([
        "sweep", "--workload", str(wpath), "--axis", "m=2,4,8,16",
        "--modes", "sync,depasync", "--grid", "3x1",
        "--c-update", "10", "--c-spike", "10", "--out", str(results),
    ])
    assert code == 0
    import csv as _csv
    rows = list(_csv.DictReader(results.open()))
    for r in rows:
        r["value"] = int(r["value"])
        r["seed"] = int(r["seed"])
    summary = summarize_results(rows)
    speedups = [summary[f"m|{m}|depasync"]["harmonic_speedup"]
                for m in (2, 4, 8, 16)]
    assert all(b >= a * 0.99 for a, b in zip(speedups, speedups[1:])), speedups


def test_criterion_07_firing_rate_crossover():
    shares, advantages = [], []
    for level in (0.5, 0.65, 0.8):
        net = gen_synthetic(640, 20000, rate_knobs=rate_knobs_for_level(level),
                            seed=777, t_max=50, input_rate=0.08)
        prog = compile_network(net, (4, 4))
        se = run(prog, SimConfig(grid=(4, 4), mode="se", m=4))
        dep = run(prog, SimConfig(grid=(4, 4), mode="depasync", m=4))
        shares.append(sum(c["rollback"] for c in se.cores)
                      / (16 * se.total_cycles))
        advantages.append(se.total_cycles / dep.total_cycles)
    share_up = shares[0] < shares[1] < shares[2]
    adv_up = advantages[0] < advantages[1] < advantages[2]
    ok = share_up and adv_up
    record_criterion(
        7, "rollback share grows with firing rate; depasync gains on se", ok,
        f"rollback shares {[f'{s:.2f}' for s in shares]}, "
        f"advantage {[f'{a:.3f}' for a in advantages]}")
    assert share_up, shares
    assert adv_up, advantages


def test_criterion_08_cyclic_fallback():
    net = gen_layered([64, 64, 64, 64], fanin=10, seed=55, t_max=48,
                      input_rate=0.15)
    ref = reference_run(net).ordered()
    prog = compile_network(net, (2, 2))
    cfg = SimConfig(grid=(2, 2), mode="depasync", m=4)
    base = run(prog, cfg)
    assert [tuple(p) for p in base.raster] == ref

    cores = partition(net, 4)
    assignment = [0] * net.n_neurons
    for c in cores:
        for nid in c.neuron_ids:
            assignment[nid] = c.id
    swapped = exchange_with_core0(assignment, fraction=0.25, seed=9)
    prog_cyc = compile_network(net, (2, 2), assignment=swapped)
    assert prog_cyc.dep_graph.pre[0], "exchange must feed a cycle into core 0"
    cyclic = run(prog_cyc, cfg)  # DeadlockError here would fail the test
    assert [tuple(p) for p in cyclic.raster] == ref

    sync = run(prog, SimConfig(grid=(2, 2), mode="sync"))
    slowdown = cyclic.total_cycles / base.total_cycles
    ok = slowdown > 1.0
    record_criterion(
        8, "cyclic exchange degrades depasync but never deadlocks", ok,
        f"slowdown {slowdown:.2f}x (sync at "
        f"{sync.total_cycles / base.total_cycles:.2f}x)")
    assert ok, slowdown


def test_criterion_09_scalability_direction():
    # The claim rests on each core proceeding without waiting for cores it
    # does not depend on, so it is checked where such cores exist: the
    # layered family of the exactness suite, weak-scaled by widening every
    # layer 4x from 4x4 to 8x8 (62.5 neurons per core and fan-in 12 at both
    # sizes). On a complete core dependency graph there is no core to skip
    # and dependency-driven forwarding is a barrier made of messages; the
    # README documents that limit with its numbers.
    speedups = {}
    for grid, k in (((4, 4), 1), ((8, 8), 4)):
        net = gen_layered([256 * k, 256 * k, 256 * k, 232 * k], fanin=12,
                          seed=404, t_max=24, input_rate=0.06, max_delay=2)
        prog = compile_network(net, grid)
        max_pre = max(len(p) for p in prog.dep_graph.pre)
        assert max_pre < prog.n_cores - 1, (
            f"{grid}: core dependency graph is complete ({max_pre} "
            f"pre-dependencies of {prog.n_cores - 1})")
        sync = run(prog, SimConfig(grid=grid, mode="sync", m=4))
        dep = run(prog, SimConfig(grid=grid, mode="depasync", m=4))
        speedups[grid] = sync.total_cycles / dep.total_cycles
    ok = speedups[(8, 8)] >= speedups[(4, 4)]
    record_criterion(
        9, "speedup at 8x8 >= speedup at 4x4 on weak-scaled shapes", ok,
        f"4x4 {speedups[(4, 4)]:.3f}x vs 8x8 {speedups[(8, 8)]:.3f}x")
    assert ok, f"depasync speedup over sync shrinks with scale: {speedups}"


class TestCriterion10NocProperties:
    def test_conservation_and_finish_ordering_10k(self):
        rng = random.Random(99)
        mesh = SteppedNoc((4, 4), n_vc=4)
        srcs = [(x, y) for x in range(4) for y in range(4)]
        dsts = {s: rng.sample([d for d in srcs if d != s], 3) for s in srcs}
        injected = 0
        cycle = 0
        deliveries = []  # (cycle, packet)
        T = 70
        for t in range(T):
            for s in srcs:
                for d in dsts[s]:
                    for _k in range(2):
                        p = SpikePacket(src_core=core_at(s, 4),
                                        dst_core=core_at(d, 4),
                                        timestep=t, synapse_id=0, delay=1)
                        mesh.inject(p)
                        injected += 1
                    f = DepPacket(src_core=core_at(s, 4), dst_core=core_at(d, 4),
                                  timestep=t, flag=FLAG_FINISH)
                    mesh.inject(f)
                    injected += 1
            for _ in range(3):
                for q in mesh.step(cycle):
                    deliveries.append((cycle, q))
                cycle += 1
        while mesh.busy():
            for q in mesh.step(cycle):
                deliveries.append((cycle, q))
            cycle += 1

        assert injected >= 10_000
        assert len(deliveries) == injected
        assert mesh.injected == mesh.delivered

        last_spike = {}
        finish_violations = []
        for at, p in deliveries:
            key = (p.src_core, p.dst_core)
            if p.kind == SPIKE:
                last_spike.setdefault(key, {})[p.timestep] = at
            elif p.kind == DEP and p.flag == FLAG_FINISH:
                for ts, seen_at in last_spike.get(key, {}).items():
                    if ts <= p.timestep and seen_at > at:
                        finish_violations.append((key, ts, p.timestep))
        record_criterion(
            10, "10k-packet conservation and FINISH ordering; VC trend", True,
            f"{injected} packets conserved, {len(finish_violations)} "
            "ordering violations")
        assert not finish_violations

    def test_blocked_cycles_shrink_with_more_vcs(self):
        def congested(n_vc):
            mesh = SteppedNoc((6, 6), n_vc=n_vc, fifo_depth=2)
            rng = random.Random(5)
            cycle = 0
            for burst in range(40):
                for sy in range(6):
                    for _k in range(2):
                        p = SpikePacket(src_core=core_at((0, sy), 6),
                                        dst_core=core_at((5, rng.randrange(6)), 6),
                                        timestep=burst, synapse_id=0, delay=1)
                        mesh.inject(p)
                mesh.step(cycle)
                cycle += 1
            while mesh.busy():
                mesh.step(cycle)
                cycle += 1
            return mesh.blocked[SPIKE]

        b = [congested(v) for v in (2, 4, 8)]
        assert b[0] > b[1] > b[2], b


def test_criterion_11_energy_and_work_accounting(exactness_suite):
    entries = exactness_suite["entries"]
    costs = EnergyCostTable()
    checked = 0
    for e in entries:
        n, t_max = e["n_neurons"], e["t_max"]
        for mode, rep in e["details"]["reports"].items():
            c = rep.counts
            expected = (
                c["neuron_updates"] * costs.neuron_update
                + c["synapse_acc"] * costs.synapse_acc
                + c["buffer_reads"] * costs.buffer_read
                + c["buffer_writes"] * costs.buffer_write
                + c["scheduler_events"] * costs.scheduler_event
                + c["noc_hops"] * costs.noc_hop
                + costs.static_per_core_cycle * 16 * rep.total_cycles
            )
            assert rep.energy["total"] == expected, (mode, e["seed"])
            if mode in ("sync", "depasync"):
                assert c["neuron_updates"] == n * t_max, (mode, e["seed"])
                assert c["rollback_updates"] == 0
            else:
                assert c["neuron_updates"] == n * t_max + c["rollback_updates"]
            checked += 1
    record_criterion(
        11, "energy equals the dot product; update counts conserved", True,
        f"{checked} reports re-checked exactly")
