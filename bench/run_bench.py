"""snnmesh benchmark: host time and modelled outputs of one closed-loop job.

A job is what one ``snnmesh verify`` point costs: generate a workload,
compile it, save and reload the program, run the reference interpreter, run
the engine in ``sync``, ``se`` and ``depasync`` one after another, and export
every report. The harness repeats jobs on one workload for ``--seconds`` and
prints every metric by name with its unit; the last line of standard output
is one JSON object.

    python3 bench/run_bench.py --workload dense-8x8 --seed 0 --seconds 40 --trace 0

``--trace 0`` times untraced jobs and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced jobs and prints the per-layer
metrics; the traced jobs wrap the public functions of each layer from this
file, so ``src/`` carries no tracing code. ``--smoke`` runs both kinds of job
on the committed tiny fixture and checks the harness itself. See
``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import numpy as np
    import snnmesh
    from snnmesh import compiler, engine, metrics, model
    from snnmesh import core as core_module
    from snnmesh.core import NeuromorphicCore
    from snnmesh.noc import DEP, SPIKE, MeshNoc
except ImportError as exc:
    sys.exit(f"run_bench: cannot import snnmesh from {SRC}: {exc}")
if os.path.dirname(os.path.dirname(os.path.abspath(snnmesh.__file__))) != SRC:
    sys.exit(f"run_bench: snnmesh was imported from {snnmesh.__file__}, not {SRC}")

MODES = ("sync", "se", "depasync")
M_WINDOW = 4
REFERENCE_MIN_S = 0.25
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
clock = time.perf_counter

# The speed of a shared host drifts by 10-50 % over tens of seconds to
# minutes (see bench/README.md), and the drift is common to all CPU-bound work. So each
# timed step is preceded by a fixed calibration workload that uses no
# snnmesh code, and every time of a job is scaled by CAL_NOMINAL_S over the
# job's median calibration time: times read as seconds on a host where the
# calibration takes CAL_NOMINAL_S.
CAL_NOMINAL_S = 0.04


def calibration_s() -> float:
    """Host seconds for a fixed workload with the simulator's instruction
    mix: integer and dict work, small objects through a heap, small numpy
    ops."""
    t0 = clock()
    acc, table = 0, {}
    for i in range(60_000):
        acc += i * i
        table[i & 1023] = acc
    heap = []
    for i in range(15_000):
        heapq.heappush(heap, ((i * 7919) % 1009, i, [i]))
    while heap:
        acc += heapq.heappop(heap)[2][0]
    a = np.arange(2048, dtype=np.int64)
    for _ in range(150):
        a = np.clip(a + 3, 0, 4096)
    return clock() - t0


@dataclass(frozen=True)
class Workload:
    grid: tuple[int, int]
    mapping: str
    gen_seed: int
    # gen_seed -> Network; generators are looked up on the module at call
    # time, so the traced job sees its wrappers
    make: Callable[[int], model.Network]


# Why each workload (measured at the seed commit; see bench/README.md):
# - dense-8x8: the criterion-9 shape with fewer synapses and timesteps. The
#   dependency graph is complete (4,032 edges), so DEP packets and router
#   arbitration carry depasync, rollbacks carry se, and saving and loading
#   the 32 k-synapse program carries setup.
# - layered-4x4: the paper's favourable case. A sparse acyclic dependency
#   graph (60 edges) and spike-dominated traffic; setup is negligible.
# - wide-4x4: 1,000 neurons per core and almost no spikes, so sync and se are
#   core compute and core construction, while depasync drives the same NoC
#   with DEP packets almost only.
WORKLOADS = {
    "dense-8x8": Workload((8, 8), "plain", 404, lambda s: model.gen_synthetic(
        1280, 32000, frac_inhibitory=0.5,
        rate_knobs=model.rate_knobs_for_level(0.8), seed=s,
        input_rate=0.1, t_max=6)),
    "layered-4x4": Workload((4, 4), "hilbert", 1, lambda s: model.gen_layered(
        [256, 256, 128], fanin=12, seed=s, t_max=60)),
    "wide-4x4": Workload((4, 4), "plain", 7, lambda s: model.gen_synthetic(
        16000, 32000, seed=s, input_rate=0.01, t_max=150)),
}
# The smoke workload is the source of the committed tiny_program.json.
SMOKE = Workload((2, 2), "plain", 0, lambda _s: model.load_workload(
    os.path.join(FIXTURES, "tiny_workload.json")))


# -- tracing ------------------------------------------------------------------

# (owner, attribute, span name): the public functions of each layer.
TRACE_POINTS = [
    (model, "gen_synthetic", "model.gen"),
    (model, "gen_layered", "model.gen"),
    (model, "load_workload", "model.gen"),
    (model, "reference_run", "model.reference_run"),
    (model, "lif_step_arrays", "model.lif_step_arrays"),
    (core_module, "lif_step_arrays", "model.lif_step_arrays"),
    (compiler, "compile_network", "compiler.compile_network"),
    (compiler, "partition", "compiler.partition"),
    (compiler, "extract_deps", "compiler.extract_deps"),
    (compiler, "map_plain", "compiler.map"),
    (compiler, "map_hilbert", "compiler.map"),
    (compiler, "save_program", "compiler.save"),
    (compiler, "load_program", "compiler.load"),
    (engine, "run", "engine.run"),
    (MeshNoc, "begin_cycle", "noc.begin_cycle"),
    (MeshNoc, "end_cycle", "noc.end_cycle"),
    (MeshNoc, "inject", "noc.inject"),
    (NeuromorphicCore, "begin", "core.begin"),
    (NeuromorphicCore, "finish", "core.finish"),
    (NeuromorphicCore, "on_spike", "core.on_spike"),
    (NeuromorphicCore, "on_dep", "core.on_dep"),
    (NeuromorphicCore, "rollback", "core.rollback"),
    (NeuromorphicCore, "epoch_reset", "core.epoch_reset"),
    (metrics, "energy_total", "metrics.energy_total"),
    (metrics, "check_report", "metrics.check_report"),
    (metrics, "export_report", "metrics.export_report"),
]


class Tracer:
    """In-memory spans ``[name, start, end, parent index, stage]``.

    ``stage`` names the step of the job the span belongs to (``setup``,
    ``run.sync``, ...); the harness sets it before each step."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stage = ""
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.stage]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TRACE_POINTS]
        try:
            for (owner, attr, fn), (_, _, name) in zip(saved, TRACE_POINTS):
                setattr(owner, attr, self.wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


def layer_totals(spans: list[list]) -> dict[tuple[str, str], list]:
    """(stage, span name) -> [calls, self seconds, total seconds]. Self time
    is a span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _stage in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[tuple[str, str], list] = {}
    for i, (name, start, end, _parent, stage) in enumerate(spans):
        rec = out.setdefault((stage, name), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += end - start - child[i]
        rec[2] += end - start
    return out


def engine_setup_s(spans: list[list], stage: str) -> float:
    """From ``engine.run`` entry to its first ``MeshNoc.begin_cycle`` call."""
    run_idx = next(i for i, s in enumerate(spans)
                   if s[4] == stage and s[0] == "engine.run")
    first = next(s for s in spans[run_idx + 1:]
                 if s[3] == run_idx and s[0] == "noc.begin_cycle")
    return first[1] - spans[run_idx][1]


# -- one job --------------------------------------------------------------------


def verify(report, ref: list[tuple[int, int]]) -> str | None:
    """The exactness gate: None if the run is exact, else why it is not."""
    if report.raster != ref:
        return "raster differs from reference_run(net).ordered()"
    try:
        metrics.check_report(report)
    except metrics.MetricsError as exc:
        return f"check_report: {exc}"
    return None


@dataclass
class Job:
    times: dict[str, float] = field(default_factory=dict)  # step -> seconds
    reports: dict = field(default_factory=dict)            # mode -> SimReport
    sha256: dict[str, str] = field(default_factory=dict)   # mode -> report hash
    report_bytes: dict[str, int] = field(default_factory=dict)
    program_bytes: int = 0
    t_max: int = 0
    errors: dict[str, str] = field(default_factory=dict)   # mode -> reason
    spans: list = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor from this job's host seconds to calibrated seconds."""
        return CAL_NOMINAL_S / statistics.median(self.calibration)

    def t(self, step: str) -> float:
        """Calibrated seconds of one step."""
        return self.times[step] * self.scale


def _timed(job: Job, step: str, tracer: Tracer | None, fn, *args, **kwargs):
    if tracer is not None:
        tracer.stage = step
    gc.collect()
    job.calibration.append(calibration_s())
    t0 = clock()
    out = fn(*args, **kwargs)
    job.times[step] = clock() - t0
    return out


def reference(net) -> tuple[list[tuple[int, int]], float]:
    """The reference raster and the median time of one reference run, over
    runs back to back until REFERENCE_MIN_S have passed: one short run is too
    little to time."""
    times, end = [], clock() + REFERENCE_MIN_S
    while not times or clock() < end:
        t0 = clock()
        ref = model.reference_run(net).ordered()
        times.append(clock() - t0)
    return ref, statistics.median(times)


def run_job(wl: Workload, gen_seed: int, order: tuple[str, ...], workdir: str,
            tracer: Tracer | None = None) -> Job:
    """One closed-loop job. Failures are recorded per mode, never raised."""
    job = Job()
    prog_path = os.path.join(workdir, "program.json")

    def setup():
        net = wl.make(gen_seed)
        prog = compiler.compile_network(net, wl.grid, mapping=wl.mapping)
        compiler.save_program(prog, prog_path)
        return net, compiler.load_program(prog_path)

    try:
        net, prog = _timed(job, "setup", tracer, setup)
        job.program_bytes = os.path.getsize(prog_path)
        job.t_max = prog.t_max
        ref, job.times["reference"] = _timed(job, "reference", tracer, reference, net)
    except Exception as exc:  # the job cannot go on; every mode fails
        traceback.print_exc()
        job.errors = {mode: f"setup: {exc!r}" for mode in MODES}
        return job

    for mode in order:
        report_path = os.path.join(workdir, f"report-{mode}.json")
        try:
            cfg = engine.SimConfig(grid=wl.grid, mode=mode, m=M_WINDOW)
            report = _timed(job, f"run.{mode}", tracer, engine.run, prog, cfg)
            _timed(job, f"export.{mode}", tracer, metrics.export_report, report, report_path)
            if tracer is not None:
                tracer.stage = "gate"
            reason = verify(report, ref)
        except Exception as exc:  # any escaping exception fails the run
            traceback.print_exc()
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            job.errors[mode] = reason
            continue
        with open(report_path, "rb") as f:
            data = f.read()
        job.sha256[mode] = hashlib.sha256(data).hexdigest()
        job.report_bytes[mode] = len(data)
        job.reports[mode] = report
    if tracer is not None:
        job.spans = tracer.spans
    return job


# -- metrics ----------------------------------------------------------------------


def summary(samples: list[float]) -> dict:
    """Sample count, and the highest percentile that still has at least ten
    samples beyond it (None below eleven samples)."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "pct": None, "pct_value": None}
    if n >= 11:
        out["pct"] = 100 * (n - 10) // n
        out["pct_value"] = xs[n - 11]
    return out


def end_to_end(jobs: list[Job], peak_rss_mb: float) -> dict[str, tuple]:
    """name -> (value, unit, samples or None) over complete untraced jobs."""
    out: dict[str, tuple] = {}

    def host(name, samples):
        out[name] = (statistics.median(samples), "s", samples)

    host("setup_s", [j.t("setup") for j in jobs])
    host("reference_s", [j.t("reference") for j in jobs])
    for mode in MODES:
        host(f"run_s.{mode}", [j.t(f"run.{mode}") for j in jobs])
    host("job_s", [sum(map(j.t, j.times)) for j in jobs])
    run_s = [sum(j.t(f"run.{m}") for m in MODES) for j in jobs]
    cycles = sum(jobs[0].reports[m].total_cycles for m in MODES)
    hops = sum(jobs[0].reports[m].noc["hops"] for m in MODES)
    rates = [cycles / s for s in run_s]
    out["sim_cycles_per_s"] = (statistics.median(rates), "1/s", rates)
    rates = [hops / s for s in run_s]
    out["hops_per_s"] = (statistics.median(rates), "1/s", rates)
    out["peak_rss_mb"] = (peak_rss_mb, "MB", None)
    for mode in MODES:
        out[f"sim_cycles.{mode}"] = (jobs[0].reports[mode].total_cycles, "cycles", None)
    for mode in MODES:
        out[f"energy.{mode}"] = (jobs[0].reports[mode].energy["total"], "units", None)
    return out


# traced function -> modes in which it is ever called
TRACED_CALLS = {
    "noc.begin_cycle": MODES,
    "noc.end_cycle": MODES,
    "noc.inject": MODES,
    "core.begin": MODES,
    "core.finish": MODES,
    "core.on_spike": MODES,
    "core.on_dep": ("depasync",),
    "core.rollback": ("se",),
    "core.epoch_reset": ("se",),
    "model.lif_step_arrays": MODES,
}
SETUP_SPANS = {
    "model.gen_s": "model.gen",
    "compiler.partition_s": "compiler.partition",
    "compiler.extract_deps_s": "compiler.extract_deps",
    "compiler.map_s": "compiler.map",
    "compiler.save_s": "compiler.save",
    "compiler.load_s": "compiler.load",
}
RUN_LAYERS = ("noc.", "core.", "model.", "engine.", "metrics.")


def per_layer(traced: list[Job], untraced: list[Job]) -> dict[str, tuple]:
    """name -> (value, unit, samples or None). Counts come from the last
    traced job (they repeat exactly); times are medians over traced jobs,
    in calibrated seconds."""
    totals = [layer_totals(j.spans) for j in traced]
    scales = [j.scale for j in traced]
    last, reports = totals[-1], traced[-1].reports
    out: dict[str, tuple] = {}

    def med_s(name, stage, span, col=1):
        values = [t.get((stage, span), [0, 0.0, 0.0])[col] * k
                  for t, k in zip(totals, scales)]
        out[name] = (statistics.median(values), "s", values)

    for metric, span in SETUP_SPANS.items():
        med_s(metric, "setup", span)
    out["compiler.program_bytes"] = (traced[-1].program_bytes, "bytes", None)

    for mode in MODES:
        stage = f"run.{mode}"
        run_s = []
        for job, t in zip(traced, totals):
            (run_total,) = [v[2] for (st, name), v in t.items()
                            if st == stage and name == "engine.run"]
            layered = sum(v[1] for (st, name), v in t.items()
                          if st == stage and name.startswith(RUN_LAYERS))
            # the layers' self times partition the run span exactly
            if abs(layered - run_total) > 1e-6 * run_total:
                raise RuntimeError(f"{stage}: self times sum to {layered}, "
                                   f"run span is {run_total}")
            run_s.append(run_total * job.scale)
        for name, modes in TRACED_CALLS.items():
            if mode in modes:
                out[f"{name}.calls.{mode}"] = (last.get((stage, name), [0])[0], "count", None)
                med_s(f"{name}.self_s.{mode}", stage, name)

        rep = reports[mode]
        noc = rep.noc
        out[f"noc.hops.{mode}"] = (noc["hops"], "count", None)
        out[f"noc.injected.SPIKE.{mode}"] = (noc["injected"][SPIKE], "count", None)
        out[f"noc.blocked.SPIKE.{mode}"] = (noc["blocked_cycles"][SPIKE], "cycles", None)
        if mode == "depasync":
            out[f"noc.injected.DEP.{mode}"] = (noc["injected"][DEP], "count", None)
            out[f"noc.blocked.DEP.{mode}"] = (noc["blocked_cycles"][DEP], "cycles", None)
            out[f"noc.dep_share.{mode}"] = (
                noc["injected"][DEP] / sum(noc["injected"].values()), "ratio", None)
        if mode == "se":
            out[f"core.rollbacks.{mode}"] = (rep.rollbacks, "count", None)
            # every core computes each timestep once usefully; every other
            # begun timestep was thrown away by a rollback
            out[f"core.useful_update_ratio.{mode}"] = (
                len(rep.cores) * traced[-1].t_max / last[(stage, "core.begin")][0],
                "ratio", None)
        out[f"core.wait_share.{mode}"] = (
            sum(row["wait"] for row in rep.cores)
            / (len(rep.cores) * rep.total_cycles), "ratio", None)

        values = [engine_setup_s(j.spans, stage) * j.scale for j in traced]
        out[f"engine.setup_s.{mode}"] = (statistics.median(values), "s", values)
        steps = last[(stage, "noc.end_cycle")][0]
        out[f"engine.steps.{mode}"] = (steps, "count", None)
        out[f"engine.steps_per_kcycle.{mode}"] = (
            1000 * steps / rep.total_cycles, "1/kcycle", None)
        med_s(f"engine.self_s.{mode}", stage, "engine.run")
        med_s(f"metrics.export_s.{mode}", f"export.{mode}", "metrics.export_report", col=2)
        out[f"metrics.report_bytes.{mode}"] = (traced[-1].report_bytes[mode], "bytes", None)
        out[f"trace.overhead_ratio.{mode}"] = (
            statistics.median(run_s)
            / statistics.median(j.t(stage) for j in untraced), "ratio", None)
    return out


# -- measurement loop and output ---------------------------------------------------


def measure(wl: Workload, gen_seed: int, seed: int, seconds: float, trace: bool):
    """Repeat jobs until the next one would overrun ``seconds``. With trace,
    untraced and traced jobs alternate. Returns (untraced, traced, failures,
    peak RSS in MB through the first job), where failures lists (job index,
    mode, reason). RSS is taken after the first job so that it does not grow
    with the number of jobs a faster program fits into ``seconds``."""
    untraced: list[Job] = []
    traced: list[Job] = []
    failures: list[tuple[int, str, str]] = []
    longest = 0.0
    start = clock()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as workdir:
        i = 0
        while True:
            # seed and job index rotate which mode runs first
            k = (seed + i) % len(MODES)
            order = MODES[k:] + MODES[:k]
            t0 = clock()
            if trace and i % 2 == 1:
                tracer = Tracer()
                with tracer.installed():
                    job = run_job(wl, gen_seed, order, workdir, tracer)
                traced.append(job)
            else:
                job = run_job(wl, gen_seed, order, workdir)
                untraced.append(job)
            longest = max(longest, clock() - t0)
            if i == 0:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            failures.extend((i, mode, why) for mode, why in job.errors.items())
            i += 1
            enough = len(untraced) >= (1 if trace else 3) and len(traced) >= trace
            if enough and clock() - start + longest > seconds:
                break
    return untraced, traced, failures, peak_rss_mb


def env_info() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def evaluate(wl: Workload, gen_seed: int, seed: int, seconds: float, trace: bool):
    """Measure and gate one workload. Returns (result line, record)."""
    untraced, traced, failures, peak_rss_mb = measure(wl, gen_seed, seed, seconds, trace)
    jobs = untraced + traced
    # a report that changes between identical jobs is a failure too
    for mode in MODES:
        hashes = {j.sha256[mode] for j in jobs if mode in j.sha256}
        if len(hashes) > 1:
            failures.append((-1, mode, f"report sha256 varies between jobs: {sorted(hashes)}"))
    complete = [j for j in untraced if not j.errors]
    complete_traced = [j for j in traced if not j.errors]
    values: dict[str, tuple] = {}
    if complete and (complete_traced or not trace):
        values = (per_layer(complete_traced, complete) if trace
                  else end_to_end(complete, peak_rss_mb))
    attempted = len(jobs) * len(MODES)
    failed = min(attempted, len(failures))
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _s) in values.items()},
    }
    record = {
        "seed": seed,
        "gen_seed": gen_seed,
        "seconds": seconds,
        "jobs": {"untraced": len(untraced), "traced": len(traced)},
        # host seconds of the calibration workload, median per job
        "calibration_s": [statistics.median(j.calibration) for j in jobs if j.calibration],
        "failures": [list(f) for f in failures],
        "report_sha256": {m: sorted({j.sha256[m] for j in jobs if m in j.sha256})
                          for m in MODES},
        "metrics": {name: dict(value=v, unit=unit,
                               **({} if s is None else dict(samples=s, **summary(s))))
                    for name, (v, unit, s) in values.items()},
        "result": result,
    }
    if trace and complete_traced:
        # the spans of the last traced job, as (step, span) -> calls, self, total
        record["layer_totals"] = {f"{stage} {name}": v for (stage, name), v
                                  in layer_totals(complete_traced[-1].spans).items()}
    return result, record


def print_human(record: dict) -> None:
    for name, m in record["metrics"].items():
        line = f"{name} = {m['value']:.6g} {m['unit']}"
        if "n" in m:
            line += f"  (median of n={m['n']}"
            if m["pct"] is not None:
                line += f", p{m['pct']}={m['pct_value']:.6g}"
            line += ")"
        print(line)
    cal = record["calibration_s"]
    if cal:
        print(f"calibration = {statistics.median(cal):.6g} s host "
              f"(nominal {CAL_NOMINAL_S} s; times above are calibrated)")
    for mode, hashes in record["report_sha256"].items():
        print(f"report sha256 {mode}: {' '.join(hashes) or '-'}")
    for i, mode, why in record["failures"]:
        print(f"FAILED job {i} {mode}: {why}", file=sys.stderr)


def save_record(path: str, key: str, record: dict) -> None:
    """Merge one run's record into a results file under ``key``."""
    doc = {"runs": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    doc["env"] = env_info()
    doc["runs"][key] = record
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def smoke() -> int:
    """Check the harness on the tiny fixture: the compiled program is the
    committed one, every metric named in BENCHMARK.json is emitted, and the
    gate fails a run whose raster was tampered with."""
    problems = []
    net = SMOKE.make(0)
    with open(os.path.join(FIXTURES, "tiny_program.json"), encoding="utf-8") as f:
        committed = json.load(f)
    compiled = compiler.program_to_dict(compiler.compile_network(net, SMOKE.grid))
    if compiled != committed:
        problems.append("tiny_workload.json no longer compiles to tiny_program.json")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, record = evaluate(SMOKE, SMOKE.gen_seed, 0, 0.0, trace)
        print_human(record)
        if not result["correct"]:
            problems.append(f"{section}: smoke run is not correct: {record['failures']}")
        emitted = set(result["metrics"])
        wanted = {m["name"] for m in spec[section]}
        if emitted != wanted:
            problems.append(f"{section}: missing {sorted(wanted - emitted)}, "
                            f"unlisted {sorted(emitted - wanted)}")
        for m in spec[section]:
            got = result["metrics"].get(m["name"])
            if got is not None and got["unit"] != m["unit"]:
                problems.append(f"{m['name']}: unit {got['unit']} != {m['unit']}")

    ref = model.reference_run(net).ordered()
    prog = compiler.compile_network(net, SMOKE.grid)
    report = engine.run(prog, engine.SimConfig(grid=SMOKE.grid, mode="depasync"))
    if verify(report, ref) is not None:
        problems.append("the untampered run does not pass the gate")
    n, t = report.raster[-1]
    report.raster[-1] = (n + 1, t)
    if verify(report, ref) is None:
        problems.append("a tampered raster passes the gate")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="rotates which mode runs first in each job")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gen-seed", type=int, default=None,
                    help="held-out generator seed instead of the workload's own")
    ap.add_argument("--out", help="merge this run's full record into a results file")
    ap.add_argument("--smoke", action="store_true",
                    help="check the harness on tests/fixtures and exit")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    wl = WORKLOADS[args.workload]
    gen_seed = wl.gen_seed if args.gen_seed is None else args.gen_seed
    result, record = evaluate(wl, gen_seed, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} gen_seed={gen_seed} seed={args.seed} "
          f"jobs={record['jobs']}")
    print_human(record)
    if args.out:
        record["workload"] = args.workload
        key = f"{args.workload}/{'traced' if args.trace else 'untraced'}"
        if args.gen_seed is not None:
            key += f"/gen_seed={gen_seed}"
        save_record(args.out, key, record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
