"""Command-line surface: workload generation, compilation, single runs,
oracle verification, experiment sweeps, and summary reporting.

Every failure maps to a distinct nonzero exit code with one machine-parsable
stderr line of the form ``snnmesh: error[<name>] <message>``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import metrics
from .atomic import atomic_open
from .compiler import (
    MAPPINGS,
    Capacity,
    CompileError,
    compile_network,
    exchanged_assignment,
    load_program,
    save_program,
)
from .engine import (
    PROTOCOLS,
    ConfigError,
    DeadlockError,
    SimConfig,
    parse_value,
    run,
)
from .metrics import MetricsError
from .model import (
    SpikeRaster,
    WorkloadError,
    gen_layered,
    gen_synthetic,
    load_document,
    load_workload,
    rate_knobs_for_level,
    reference_run,
    save_workload,
)
from .noc import NocError

EXIT_OK = 0
EXIT_USAGE = 2          # argparse's own convention
EXIT_MISSING_FILE = 3
EXIT_BAD_INPUT = 4
EXIT_COMPILE = 5
EXIT_VERIFY_MISMATCH = 6
EXIT_DEADLOCK = 7
EXIT_IO = 8

ENV_PREFIX = "SNNMESH_"


def _fail(name: str, message: str, code: int) -> int:
    print(f"snnmesh: error[{name}] {message}", file=sys.stderr)
    return code


def _check_outputs(*paths) -> None:
    """Fail before any work if an output path is a directory or its
    directory does not exist: a write there would fail only after the work,
    and name a temporary file or a missing input."""
    for path in paths:
        if not path:
            continue
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise OSError(f"cannot write {path}: its directory does not exist")


def env_overrides(environ=None) -> dict:
    """SimConfig keys taken from SNNMESH_<KEY> environment variables."""
    environ = os.environ if environ is None else environ
    return {key: parse_value(key, environ[ENV_PREFIX + key.upper()])
            for key in SimConfig.__dataclass_fields__
            if ENV_PREFIX + key.upper() in environ}


def _config_keys(doc) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"must hold a JSON object of config keys, "
                          f"got {type(doc).__name__}")
    return doc


def _flag(key: str) -> str:
    """The flag that sets config key ``key``."""
    return {"n_vc": "--vc", "P": "--period"}.get(key, "--" + key.replace("_", "-"))


def build_config(args, defaults: dict | None = None,
                 fixed: dict[str, str] | None = None) -> SimConfig:
    """Defaults, then config file, then environment, then CLI flags. Each
    config flag's dest is its config key; an unset flag is None. ``fixed``
    maps each key the command sets itself to why; a source that sets one
    would be ignored, so it is refused, by name."""
    sources = []  # (name of the source that sets a key, its keys)
    if getattr(args, "config", None):
        sources.append((lambda _key: args.config, load_document(
            args.config, None, _config_keys, ConfigError, "config")))
    sources.append((lambda key: ENV_PREFIX + key.upper(), env_overrides()))
    sources.append((_flag, {key: getattr(args, key)
                            for key in SimConfig.__dataclass_fields__
                            if getattr(args, key, None) is not None}))
    doc: dict = dict(defaults or {})
    for name, keys in sources:
        for key, why in (fixed or {}).items():
            if key in keys:
                raise ConfigError(f"{key} set by {name(key)} is not read: {why}")
        doc.update(keys)
    return SimConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


# the gen flags only one --kind reads, with their defaults
_GEN_FLAGS = {
    "synthetic": {"neurons": 1000, "synapses": 50000, "rate": None,
                  "frac_inhibitory": 0.2},
    "layered": {"layers": "100,100", "fanin": 10},
}


def cmd_gen(args) -> int:
    _check_outputs(args.out)
    for kind, flags in _GEN_FLAGS.items():
        for flag, default in flags.items():
            if getattr(args, flag) is None:
                setattr(args, flag, default)
            elif kind != args.kind:
                raise ConfigError(f"--{flag.replace('_', '-')} is not read by "
                                  f"--kind {args.kind}")
    # an unset --input-rate leaves each generator its own default
    rate = {} if args.input_rate is None else {"input_rate": args.input_rate}
    if args.kind == "synthetic":
        knobs = rate_knobs_for_level(args.rate) if args.rate is not None else None
        net = gen_synthetic(
            args.neurons, args.synapses, frac_inhibitory=args.frac_inhibitory,
            rate_knobs=knobs, seed=args.seed, t_max=args.t_max,
            max_delay=args.max_delay, **rate,
        )
    else:
        layers = _numbers(int, args.layers, "--layers")
        net = gen_layered(layers, fanin=args.fanin, seed=args.seed,
                          t_max=args.t_max, max_delay=args.max_delay, **rate)
    save_workload(net, args.out)
    print(f"wrote {args.out}: {net.n_neurons} neurons, "
          f"{len(net.synapses)} synapses, t_max={net.t_max}")
    return EXIT_OK


def _compile_from_args(net, args):
    grid = parse_value("grid", args.grid)
    capacity = Capacity(max_neurons=args.max_neurons_per_core,
                        max_synapses=args.max_synapses_per_core)
    assignment = None
    if args.exchange_frac:
        assignment = exchanged_assignment(
            net, args.cores or grid[0] * grid[1], args.exchange_frac,
            seed=args.exchange_seed)
    return compile_network(net, grid, mapping=args.mapping, capacity=capacity,
                           n_cores=args.cores, assignment=assignment)


def cmd_compile(args) -> int:
    _check_outputs(args.out)
    net = load_workload(args.workload)
    prog = _compile_from_args(net, args)
    save_program(prog, args.out)
    print(f"wrote {args.out}: {prog.n_cores} cores on "
          f"{prog.grid[0]}x{prog.grid[1]} grid, mapping={args.mapping}")
    return EXIT_OK


def cmd_run(args) -> int:
    _check_outputs(args.out, args.trace_file)
    prog = load_program(args.program)
    cfg = build_config(args, defaults={"grid": list(prog.grid)})
    if args.trace_file:
        cfg.trace = True  # the trace CSV is built from the report's rows
    report = run(prog, cfg)
    metrics.export_report(report, args.out)
    if args.trace_file:
        metrics.export_trace_csv(report, args.trace_file)
    print(f"mode={report.mode} total_cycles={report.total_cycles} "
          f"spikes={len(report.raster)} energy={report.energy['total']:.1f}")
    return EXIT_OK


def verify_workload(net, base_cfg: SimConfig):
    """Compile ``net`` onto ``base_cfg.grid`` (plain mapping), run the
    reference interpreter and every mode; returns (ok, details dict), whose
    ``reports`` holds each mode's report. A mode fails on its raster's first
    divergence, else on any violation; its ``failure`` says which, and is
    None for a mode that passes. The workhorse behind ``snnmesh verify``."""
    ref = reference_run(net)
    if base_cfg.t_max is not None and base_cfg.t_max < net.t_max:
        # an overridden horizon truncates the comparison on both sides
        horizon = base_cfg.t_max
        ref = SpikeRaster([(n, t) for n, t in ref if t < horizon], t_max=net.t_max)
    prog = compile_network(net, base_cfg.grid)
    details = {"reference_spikes": len(ref), "modes": {}, "reports": {}}
    for mode in PROTOCOLS:
        cfg = SimConfig.from_dict({**base_cfg.to_dict(), "mode": mode})
        rep = run(prog, cfg)
        got = SpikeRaster(rep.raster, t_max=net.t_max)
        divergence = ref.first_divergence(got)
        failure = (f"raster diverges at (neuron, timestep)={divergence}"
                   if divergence is not None else
                   f"{rep.violations} violations: receptions outside the buffer window"
                   if rep.violations else None)
        details["modes"][mode] = {
            "total_cycles": rep.total_cycles,
            "spikes": len(rep.raster),
            "violations": rep.violations,
            "match": divergence is None,
            "first_divergence": divergence,
            "failure": failure,
        }
        details["reports"][mode] = rep
    return all(info["failure"] is None for info in details["modes"].values()), details


def cmd_verify(args) -> int:
    cfg = build_config(args, fixed={"mode": "verify runs every mode"})
    net = load_workload(args.workload)
    _ok, details = verify_workload(net, cfg)
    for mode, info in details["modes"].items():
        print(f"{mode}: cycles={info['total_cycles']} spikes={info['spikes']} "
              f"{info['failure'] or 'ok'}")
    failures = [f"{mode}: {info['failure']}"
                for mode, info in details["modes"].items() if info["failure"]]
    if failures:
        return _fail("verify-mismatch", failures[0], EXIT_VERIFY_MISMATCH)
    print("all modes match the reference raster")
    return EXIT_OK


# -- sweep -------------------------------------------------------------------

_AXES = ("m", "vc", "mode", "mapping", "grid", "exchange", "rate")
_CONFIG_AXES = {"m": "m", "vc": "n_vc", "mode": "mode", "grid": "grid"}  # axis -> key
_PROGRAM_AXES = ("mapping", "grid", "exchange", "rate")  # a program per (value, seed)


def _raster_hash(raster) -> str:
    blob = json.dumps([list(p) for p in raster]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


_WORKER_PROGRAMS: list = []  # a sweep worker's programs, set once per process


def _init_worker(programs) -> None:
    _WORKER_PROGRAMS[:] = programs


def _run_task(task, programs=_WORKER_PROGRAMS):
    """A sweep task's results row: its row columns, then its run's measures."""
    index, cfg, columns = task
    report = run(programs[index], cfg)
    return {
        **columns,
        "total_cycles": report.total_cycles,
        "busy": sum(c["busy"] for c in report.cores),
        "wait": sum(c["wait"] for c in report.cores),
        "rollback_cycles": sum(c["rollback"] for c in report.cores),
        "rollbacks": report.rollbacks,
        "energy_total": report.energy["total"],
        "neuron_updates": report.counts["neuron_updates"],
        "noc_hops": report.counts["noc_hops"],
        "blocked_spike": report.noc["blocked_cycles"]["SPIKE"],
        "spikes": len(report.raster),
        "raster_sha256": _raster_hash(report.raster),
    }


def _numbers(cast, raw: str, what: str) -> list:
    try:
        return [cast(v) for v in raw.split(",")]
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated numbers, "
                          f"got {raw!r}") from None


def _axis_values(axis: str, raw: str):
    if axis in _CONFIG_AXES:
        return [parse_value(_CONFIG_AXES[axis], v) for v in raw.split(",")]
    if axis in ("exchange", "rate"):
        return _numbers(float, raw, f"sweep axis {axis}")
    return raw.split(",")


def build_sweep_tasks(args):
    """The programs and runs of a sweep: returns (programs, tasks), a task
    being a (program index, config, row columns) triple, one per row, that
    is per (axis value, mode, seed). An axis in ``_PROGRAM_AXES`` compiles a
    program per (value, seed); any other axis compiles one for every row.

    An input the axis does not read is refused: the seed is an input only
    of the ``rate`` and ``exchange`` axes, which regenerate the workload or
    exchange neurons, so on any other axis a second seed would repeat the
    first one's runs; the ``rate`` axis alone reads ``--neurons`` and
    ``--synapses`` and does not read ``--workload``; and an axis that sets
    the mapping, a config key or the mode ignores any other setting of it."""
    axis, eq, raw = args.axis.partition("=")
    if axis not in _AXES or not eq:
        raise ConfigError(f"sweep axis must look like <axis>=v1,v2 with <axis> "
                          f"one of {_AXES}, got {args.axis!r}")
    if args.jobs < 1:
        raise ConfigError(f"sweep jobs must be >= 1, got {args.jobs}")
    for flag, read in (("neurons", axis == "rate"), ("synapses", axis == "rate"),
                       ("workload", axis != "rate"), ("mapping", axis != "mapping")):
        if getattr(args, flag) is not None and not read:
            raise ConfigError(f"--{flag} is not read by the {axis} axis")
    if axis == "rate" and (args.neurons is None or args.synapses is None):
        raise ConfigError("rate sweeps need --neurons and --synapses to regenerate")
    if axis != "rate" and args.workload is None:
        raise ConfigError("sweep needs --workload (or a rate axis)")
    fixed = {"mode": "sweep runs the modes of --modes or of the mode axis"}
    if axis in _CONFIG_AXES:
        fixed.setdefault(_CONFIG_AXES[axis], f"the {axis} axis sets it")
    base_cfg = build_config(args, fixed=fixed)
    values = _axis_values(axis, raw)
    seeds = _numbers(int, args.seeds, "sweep seeds")
    if len(seeds) > 1 and axis not in ("exchange", "rate"):
        raise ConfigError(f"--seeds lists {len(seeds)} seeds, but only the rate "
                          f"and exchange axes read a seed, not {axis}")
    if axis == "mode":
        if args.modes is not None:
            raise ConfigError("--modes is not read by the mode axis, whose "
                              "values are the modes")
        modes = [None]  # each value sets the mode
    else:
        modes = list(PROTOCOLS) if args.modes is None else args.modes.split(",")
    # a row is a run: a repeated value, seed or mode would run it again
    for what, items in (("axis values", values), ("seeds", seeds), ("modes", modes)):
        if len(set(items)) != len(items):
            raise ConfigError(f"sweep {what} must be distinct")

    if axis == "mapping" and not set(values) <= set(MAPPINGS):
        raise ConfigError(f"sweep mapping values must be among {tuple(MAPPINGS)}, "
                          f"got {raw!r}")
    # every row's config, per axis value, is checked before anything loads
    value_cfgs = []
    for value in values:
        cfg_doc = base_cfg.to_dict()
        if axis in _CONFIG_AXES:
            cfg_doc[_CONFIG_AXES[axis]] = value
        value_cfgs.append([SimConfig.from_dict(
            cfg_doc if mode is None else {**cfg_doc, "mode": mode}) for mode in modes])

    net = None if axis == "rate" else load_workload(args.workload)
    programs: list = []
    tasks = []
    # the value column holds a grid as written, and any other value parsed
    for text, value, cfgs in zip(raw.split(","), values, value_cfgs):
        grid = cfgs[0].grid
        for seed in seeds:
            if axis in _PROGRAM_AXES or not programs:
                if axis == "rate":
                    horizon = {} if base_cfg.t_max is None else {"t_max": base_cfg.t_max}
                    net = gen_synthetic(args.neurons, args.synapses,
                                        rate_knobs=rate_knobs_for_level(value),
                                        seed=seed, **horizon)
                assignment = None
                if axis == "exchange" and value:
                    assignment = exchanged_assignment(
                        net, grid[0] * grid[1], value, seed=seed)
                mapping = value if axis == "mapping" else args.mapping or "plain"
                programs.append(compile_network(net, grid, mapping=mapping,
                                                assignment=assignment))
            tasks += [(len(programs) - 1, cfg, {
                "axis": axis, "value": text if axis == "grid" else value,
                "mode": cfg.mode, "seed": seed}) for cfg in cfgs]
    return programs, tasks


def cmd_sweep(args) -> int:
    _check_outputs(args.out)
    programs, tasks = build_sweep_tasks(args)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs, initializer=_init_worker,
                                 initargs=(programs,)) as pool:
            rows = list(pool.map(_run_task, tasks))
    else:
        rows = [_run_task(t, programs) for t in tasks]
    with atomic_open(args.out, newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def _harmonic_mean(values):
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return len(vals) / sum(1.0 / v for v in vals)


def _baseline_key(r: dict) -> tuple:
    """The run a row is compared with: the ``sync`` row of the same axis
    value and seed. On the mode axis the value is the mode itself, so it is
    left out."""
    value = None if r["axis"] == "mode" else r["value"]
    return (r["axis"], value, r["seed"])


def summarize_results(rows: list[dict]) -> dict:
    """Per (axis value, mode): harmonic-mean speedup and energy efficiency
    against the barrier baseline (``_baseline_key``)."""
    baseline = {_baseline_key(r): r for r in rows if r["mode"] == "sync"}
    cells: dict = {}  # "axis|value|mode" -> its rows
    for r in rows:
        cells.setdefault("|".join((r["axis"], str(r["value"]), r["mode"])), []).append(r)
    out = {}
    for key, cell in sorted(cells.items()):
        # (baseline, row) for each row with a baseline other than itself
        pairs = [(baseline[k], r) for r in cell
                 if (k := _baseline_key(r)) in baseline and baseline[k] is not r]
        out[key] = {
            "axis": cell[0]["axis"], "value": cell[0]["value"], "mode": cell[0]["mode"],
            "runs": len(cell),
            "mean_cycles": sum(int(r["total_cycles"]) for r in cell) / len(cell),
            "harmonic_speedup": _harmonic_mean(
                [float(base["total_cycles"]) / max(1.0, int(r["total_cycles"]))
                 for base, r in pairs]),
            "harmonic_energy_efficiency": _harmonic_mean(
                [float(base["energy_total"]) / max(1e-12, float(r["energy_total"]))
                 for base, r in pairs]),
            "mean_rollback_share": sum(
                float(r["rollback_cycles"]) / max(1.0, float(r["busy"]) + float(r["wait"])
                                                  + float(r["rollback_cycles"]))
                for r in cell) / len(cell),
        }
    return out


def cmd_report(args) -> int:
    _check_outputs(args.out)
    try:
        # utf-8-sig: spreadsheet programs save CSV with a byte-order mark
        with open(args.results, encoding="utf-8-sig", newline="") as f:
            rows = list(csv.DictReader(f))
        if not rows:
            return _fail("empty-results", f"{args.results} holds no rows",
                         EXIT_BAD_INPUT)
        for r in rows:
            r["value"] = _coerce(r["value"])
            r["seed"] = int(r["seed"])
        summary = summarize_results(rows)
    except (KeyError, TypeError, ValueError, csv.Error) as exc:
        return _fail("bad-input", f"{args.results} holds malformed results: "
                     f"{exc!r}", EXIT_BAD_INPUT)
    header = f"{'axis':9s} {'value':>8s} {'mode':9s} {'cycles':>12s} " \
             f"{'speedup':>8s} {'energy_eff':>10s} {'rb_share':>8s}"
    print(header)
    for cell in summary.values():
        print(f"{cell['axis']:9s} {str(cell['value']):>8s} {cell['mode']:9s} "
              f"{cell['mean_cycles']:12.1f} {cell['harmonic_speedup']:8.3f} "
              f"{cell['harmonic_energy_efficiency']:10.3f} "
              f"{cell['mean_rollback_share']:8.3f}")
    if args.out:
        metrics.write_json(args.out, summary)
    return EXIT_OK


def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with simulator config keys")
    p.add_argument("--m", type=int, help="spike buffer window (timesteps)")
    p.add_argument("--vc", dest="n_vc", type=int,
                   help="number of data virtual channels")
    p.add_argument("--grid", help="mesh size, e.g. 4x4")
    p.add_argument("--t-max", dest="t_max", type=int)
    p.add_argument("--period", dest="P", type=int,
                   help="speculative sync period P")
    p.add_argument("--c-update", dest="c_update", type=int)
    p.add_argument("--c-spike", dest="c_spike", type=int)
    p.add_argument("--cycles-per-hop", dest="cycles_per_hop", type=int)
    p.add_argument("--inter-cluster-slowdown", dest="inter_cluster_slowdown",
                   type=int)
    p.add_argument("--debug", action="store_true", default=None)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snnmesh",
        description="Cycle-accurate many-core SNN accelerator simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a workload file")
    g.add_argument("--kind", choices=["synthetic", "layered"], required=True)
    g.add_argument("--input-rate", type=float,
                   help="default 0.05 (synthetic) or 0.1 (layered)")
    # synthetic only (_GEN_FLAGS holds the defaults)
    g.add_argument("--neurons", type=int)
    g.add_argument("--synapses", type=int)
    g.add_argument("--rate", type=float, help="firing-rate level in [0,1]")
    g.add_argument("--frac-inhibitory", type=float)
    # layered only
    g.add_argument("--layers", help="layer sizes, e.g. 100,100")
    g.add_argument("--fanin", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--t-max", dest="t_max", type=int, default=100)
    g.add_argument("--max-delay", type=int, default=2)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("compile", help="compile a workload onto the mesh")
    c.add_argument("--workload", required=True)
    c.add_argument("--grid", default="4x4")
    c.add_argument("--mapping", choices=list(MAPPINGS), default="plain")
    c.add_argument("--cores", type=int, help="logic cores (default: all cells)")
    c.add_argument("--max-neurons-per-core", type=int, default=Capacity.max_neurons)
    c.add_argument("--max-synapses-per-core", type=int, default=Capacity.max_synapses)
    c.add_argument("--exchange-frac", type=float, default=0.0,
                   help="swap this fraction of core 0's neurons outward "
                        "(manufactures dependency cycles)")
    c.add_argument("--exchange-seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_compile)

    r = sub.add_parser("run", help="run one simulation")
    r.add_argument("--program", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--trace", dest="trace_file",
                   help="also write the timeline trace CSV here")
    r.add_argument("--mode", choices=list(PROTOCOLS))
    _add_config_flags(r)
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify",
                       help="check all modes against the reference raster")
    v.add_argument("--workload", required=True)
    _add_config_flags(v)
    v.set_defaults(func=cmd_verify)

    # flags match exactly: --mode or --seed must not read as --modes or --seeds
    s = sub.add_parser("sweep", help="run an experiment sweep", allow_abbrev=False)
    s.add_argument("--workload", help="every axis but rate")
    s.add_argument("--axis", required=True, help="e.g. m=2,4,8,16")
    s.add_argument("--modes", help="default: every mode; not with the mode axis")
    s.add_argument("--seeds", default="0", help="comma-separated distinct seeds; "
                   "more than one only on the rate and exchange axes")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--mapping", choices=list(MAPPINGS),
                   help="default plain; not with the mapping axis")
    s.add_argument("--neurons", type=int, help="rate axis only")
    s.add_argument("--synapses", type=int, help="rate axis only")
    s.add_argument("--out", required=True)
    _add_config_flags(s)
    s.set_defaults(func=cmd_sweep)

    rp = sub.add_parser("report", help="summarize sweep results")
    rp.add_argument("--results", required=True)
    rp.add_argument("--out")
    rp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail("missing-file", str(exc), EXIT_MISSING_FILE)
    except (WorkloadError, ConfigError, MetricsError, NocError,
            json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _fail("bad-input", str(exc), EXIT_BAD_INPUT)
    except CompileError as exc:
        return _fail("compile", str(exc), EXIT_COMPILE)
    except DeadlockError as exc:
        return _fail("deadlock", str(exc), EXIT_DEADLOCK)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
