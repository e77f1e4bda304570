"""Global cycle-accurate loop.

Routers and cores share one clock. The loop is event-driven only as an
optimization: between two events no component can change state, so skipping
those cycles is exact. Within a cycle the phase order is fixed (land packets,
commit completed timesteps, barrier checks, start new timesteps, arbitrate
routers), which makes every run a pure function of (program, config).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, asdict

import numpy as np

from . import metrics
from .compiler import CompiledProgram
from .core import (
    MODE_DEPASYNC,
    MODE_SE,
    MODE_SYNC,
    MODES,
    PHASE_DONE,
    NeuromorphicCore,
    ProtocolFault,
)
from .noc import DEP, SPIKE, MeshNoc


class ConfigError(ValueError):
    pass


class DeadlockError(RuntimeError):
    """No core and no router can ever make progress again, yet cores remain
    unfinished. Must never fire for a well-formed dependency graph."""


@dataclass
class SimConfig:
    grid: tuple[int, int] = (4, 4)
    mode: str = MODE_DEPASYNC
    m: int = 4
    P: int | None = None  # speculative sync period; defaults to m
    n_vc: int = 4
    cycles_per_hop: int = 2
    c_update: int = 4
    c_spike: int = 1
    inter_cluster_slowdown: int = 1
    cluster_size: int = 2
    seed: int = 0
    t_max: int | None = None  # None: take the program's horizon
    fifo_depth: int = 4
    trace: bool = False
    debug: bool = False
    energy_costs: dict | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if self.P is not None and self.P < 1:
            raise ConfigError("P must be >= 1")
        if self.n_vc < 1:
            raise ConfigError("n_vc must be >= 1")
        for name in ("cycles_per_hop", "fifo_depth", "inter_cluster_slowdown",
                     "cluster_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.t_max is not None and self.t_max < 0:
            raise ConfigError("t_max must be >= 0")
        if self.c_update < 0 or self.c_spike < 0:
            raise ConfigError("cycle costs must be >= 0")
        if min(self.grid) < 1:
            raise ConfigError("grid must be at least 1x1")

    @property
    def period(self) -> int:
        return self.m if self.P is None else self.P

    def to_dict(self) -> dict:
        d = asdict(self)
        d["grid"] = list(self.grid)
        return d

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        doc = dict(doc)
        if "grid" in doc:
            g = doc["grid"]
            if isinstance(g, str):
                doc["grid"] = parse_grid(g)
            else:
                doc["grid"] = tuple(g)
        cfg = cls(**doc)
        cfg.validate()
        return cfg


def parse_grid(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return (int(w), int(h))
    except ValueError as exc:
        raise ConfigError(f"grid must look like '4x4', got {text!r}") from exc


@dataclass
class SimReport:
    total_cycles: int
    mode: str
    config: dict
    cores: list[dict]
    raster: list[tuple[int, int]]
    noc: dict
    counts: dict
    energy: dict
    violations: int
    rollbacks: int
    max_edge_skew: int
    trace: list[tuple[int, int, int, int, str]] = field(default_factory=list)
    # debug only: (cycle, dst core, src core, flag, timestep) per DEP delivery
    dep_log: list[tuple[int, int, int, int, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "mode": self.mode,
            "config": self.config,
            "cores": self.cores,
            "raster": [list(p) for p in self.raster],
            "noc": self.noc,
            "counts": self.counts,
            "energy": self.energy,
            "violations": self.violations,
            "rollbacks": self.rollbacks,
            "max_edge_skew": self.max_edge_skew,
            "trace": [list(r) for r in self.trace],
        }


def drain_detect(noc: MeshNoc) -> bool:
    """True iff no spike packet is anywhere in the network."""
    return noc.in_flight[SPIKE] == 0


def _build_cores(program: CompiledProgram, cfg: SimConfig, t_max: int):
    n = program.n_neurons
    tau = np.empty(n, dtype=np.int64)
    g = np.empty(n, dtype=np.int64)
    vr = np.empty(n, dtype=np.int64)
    vth = np.empty(n, dtype=np.int64)
    v0 = np.empty(n, dtype=np.int64)
    for i, (p, v_init) in enumerate(program.neuron_params):
        tau[i], g[i], vr[i], vth[i], v0[i] = p.tau_m, p.g_l, p.v_rst, p.v_th, v_init

    core_of = [0] * n
    local_of = [0] * n
    for lc in program.cores:
        for li, nid in enumerate(lc.neuron_ids):
            core_of[nid] = lc.id
            local_of[nid] = li

    placement = program.placement
    graph = program.dep_graph
    cores = []
    for lc in program.cores:
        ids = np.array(lc.neuron_ids, dtype=np.int64)
        sel = ids if len(ids) else np.array([], dtype=np.int64)
        in_tgt = np.array([t for t, _w in lc.in_synapses], dtype=np.int64)
        in_w = np.array([w for _t, w in lc.in_synapses], dtype=np.int64)

        fan_remote = [[] for _ in range(len(ids))]
        fan_local = [[] for _ in range(len(ids))]
        for local, entries in lc.fanout.items():
            for e in entries:
                if e.dst_core == lc.id:
                    tgt_local = program.cores[e.dst_core].in_synapses[e.synapse_id][0]
                    fan_local[local].append((tgt_local, e.weight, e.delay))
                else:
                    fan_remote[local].append(
                        (e.dst_core, placement[e.dst_core], e.synapse_id, e.delay)
                    )

        ext: dict[int, tuple[list, list]] = {}
        for nid in lc.neuron_ids:
            for t, cur in program.inputs.get(nid, ()):
                if t >= t_max:
                    continue
                ext.setdefault(t, ([], []))
                ext[t][0].append(local_of[nid])
                ext[t][1].append(cur)
        ext_np = {
            t: (np.array(idx, dtype=np.int64), np.array(cur, dtype=np.int64))
            for t, (idx, cur) in ext.items()
        }

        start_routes = [(a, placement[a], dep_id)
                        for a, dep_id in graph.start_routes(lc.id)]
        finish_routes = [(b, placement[b], dep_id)
                         for b, dep_id in graph.finish_routes(lc.id)]

        cores.append(NeuromorphicCore(
            cid=lc.id, coord=placement[lc.id], neuron_ids=list(lc.neuron_ids),
            tau=tau[sel], g=g[sel], vr=vr[sel], vth=vth[sel], v0=v0[sel],
            in_syn_target=in_tgt, in_syn_weight=in_w,
            fanout_remote=fan_remote, fanout_local=fan_local,
            external=ext_np,
            n_pre=len(graph.pre[lc.id]), n_post=len(graph.post[lc.id]),
            start_routes=start_routes, finish_routes=finish_routes,
            mode=cfg.mode, m=cfg.m, max_delay=program.max_delay, t_max=t_max,
            c_update=cfg.c_update, c_spike=cfg.c_spike,
        ))
    return cores


def run(program: CompiledProgram, cfg: SimConfig) -> SimReport:
    """Execute one simulation; deterministic in (program, cfg)."""
    cfg.validate()
    w, h = cfg.grid
    if program.n_cores > w * h:
        raise ConfigError(f"{program.n_cores} cores exceed the {w}x{h} grid")
    for x, y in program.placement.coords:
        if not (0 <= x < w and 0 <= y < h):
            raise ConfigError(f"placement ({x},{y}) outside the {w}x{h} grid")

    t_max = program.t_max if cfg.t_max is None else min(cfg.t_max, program.t_max)
    mode = cfg.mode
    cores = _build_cores(program, cfg, t_max)
    n_cores = len(cores)
    mesh = MeshNoc(cfg.grid, n_vc=cfg.n_vc, cycles_per_hop=cfg.cycles_per_hop,
                   fifo_depth=cfg.fifo_depth,
                   inter_cluster_slowdown=cfg.inter_cluster_slowdown,
                   cluster_size=cfg.cluster_size)

    completions: list[tuple[int, int, int, int]] = []  # (cycle, seq, cid, gen)
    seq = 0
    sync_t = 0              # barrier mode: the timestep currently authorized
    period = cfg.period
    epoch_end = min(period, t_max)  # speculative mode: first epoch horizon
    dirty = set(range(n_cores))
    trace_rows: list[tuple[int, int, int, int, str]] = []
    dep_log: list[tuple[int, int, int, int, int]] = []
    last_completion = 0
    max_edge_skew = 0

    edges_in: list[list[int]] = [[] for _ in range(n_cores)]
    edges_out: list[list[int]] = [[] for _ in range(n_cores)]
    for a in range(n_cores):
        for b in program.dep_graph.post[a]:
            edges_out[a].append(b)
            edges_in[b].append(a)

    def check_edges(changed: set[int]) -> None:
        nonlocal max_edge_skew
        for c in changed:
            for b in edges_out[c]:
                _assert_edge(c, b)
            for a in edges_in[c]:
                _assert_edge(a, c)

    def _assert_edge(a: int, b: int) -> None:
        nonlocal max_edge_skew
        sa, sb = cores[a].started, cores[b].started
        skew = abs(sa - sb)
        if skew > max_edge_skew:
            max_edge_skew = skew
        if mode == MODE_DEPASYNC:
            if sb > cores[a].t_cur + 1:
                raise ProtocolFault(
                    f"safety violated on edge {a}->{b}: consumer started {sb} "
                    f"but producer only finished {cores[a].t_cur}"
                )
            if sa > sb + cfg.m - 1:
                raise ProtocolFault(
                    f"window violated on edge {a}->{b}: producer started {sa}, "
                    f"consumer started {sb}, m={cfg.m}"
                )

    def admissible(core: NeuromorphicCore) -> bool:
        if not core.may_advance():
            return False
        if mode == MODE_SYNC:
            return core.t_cur + 1 == sync_t
        if mode == MODE_SE:
            return core.t_cur + 1 < epoch_end
        return True

    cycle = 0
    while True:
        changed: set[int] = set()

        # 1. land packets: hops into FIFOs, ejections into cores
        for pkt in mesh.begin_cycle(cycle):
            core = cores[pkt.dst_core]
            if pkt.kind == DEP:
                core.on_dep(pkt)
                dirty.add(core.cid)
                if cfg.debug:
                    dep_log.append((cycle, pkt.dst_core, pkt.src_core,
                                    pkt.body.flag, pkt.body.timestep))
            elif pkt.kind == SPIKE:
                rollback_to = core.on_spike(pkt)
                if rollback_to is not None:
                    for anti in core.rollback(rollback_to, cycle):
                        mesh.inject(core.coord, anti, cycle)
                    dirty.add(core.cid)
                    changed.add(core.cid)

        # 2. commit completed timesteps
        while completions and completions[0][0] == cycle:
            _c, _s, cid, gen = heapq.heappop(completions)
            core = cores[cid]
            if gen != core.gen or core.computing is None:
                continue  # cancelled by a rollback
            t, start_cycle, *_rest = core.computing
            kind = "rollback" if (mode == MODE_SE and t <= core.frontier) else "compute"
            for pkt in core.finish(cycle):
                mesh.inject(core.coord, pkt, cycle)
            if cfg.trace:
                trace_rows.append((start_cycle, cycle, cid, t, kind))
            last_completion = cycle
            dirty.add(cid)
            changed.add(cid)

        # 3. global gates for the barrier and speculative modes
        if mode == MODE_SYNC and sync_t < t_max:
            if all(c.t_cur == sync_t for c in cores) and drain_detect(mesh):
                sync_t += 1
                dirty.update(range(n_cores))
        elif mode == MODE_SE and epoch_end < t_max:
            if (sum(mesh.in_flight.values()) == 0
                    and all(c.t_cur == epoch_end - 1 and c.computing is None
                            for c in cores)):
                new_start = epoch_end
                epoch_end = min(epoch_end + period, t_max)
                for c in cores:
                    c.epoch_reset(new_start)
                dirty.update(range(n_cores))

        # 4. start admissible timesteps
        if dirty:
            for cid in sorted(dirty):
                core = cores[cid]
                if admissible(core):
                    cost, starts = core.begin(cycle)
                    for pkt in starts:
                        mesh.inject(core.coord, pkt, cycle)
                    seq += 1
                    heapq.heappush(completions, (cycle + cost, seq, cid, core.gen))
                    changed.add(cid)
            dirty.clear()

        # 5. router arbitration
        mesh.end_cycle(cycle)

        if cfg.debug and changed:
            check_edges(changed)

        nxt_candidates = []
        p = mesh.next_pending_cycle()
        if p is not None:
            nxt_candidates.append(p)
        if completions:
            nxt_candidates.append(completions[0][0])
        if mesh._queued:
            nxt_candidates.append(cycle + 1)
        if not nxt_candidates:
            if all(c.phase == PHASE_DONE for c in cores):
                break
            waiting = [c.cid for c in cores if c.phase != PHASE_DONE]
            raise DeadlockError(
                f"protocol deadlock at cycle {cycle}: cores {waiting} can "
                "never progress (no packets in flight, no work scheduled)"
            )
        cycle = min(nxt_candidates)

    # -- assemble the report -------------------------------------------------

    total_cycles = last_completion
    raster_pairs = []
    for core in cores:
        for t, fired in core.raster.items():
            for li in fired:
                raster_pairs.append((core.neuron_ids[li], t))
    raster_pairs.sort(key=lambda p: (p[1], p[0]))

    counts = {
        "neuron_updates": 0, "rollback_updates": 0, "synapse_acc": 0,
        "buffer_reads": 0, "buffer_writes": 0, "scheduler_events": 0,
        "saturations": 0,
    }
    core_rows = []
    violations = 0
    rollbacks = 0
    for core in cores:
        for k in counts:
            counts[k] += core.counters[k]
        violations += core.buffer.violations
        rollbacks += core.rollbacks
        wait = total_cycles - core.busy_cycles - core.rollback_cycles
        core_rows.append({
            "id": core.cid, "busy": core.busy_cycles,
            "rollback": core.rollback_cycles, "wait": wait,
        })
    counts["noc_hops"] = mesh.hops
    counts["spikes"] = len(raster_pairs)

    cost_table = metrics.EnergyCostTable.from_dict(cfg.energy_costs)
    energy = metrics.energy_total(counts, cost_table, n_cores, total_cycles)

    return SimReport(
        total_cycles=total_cycles,
        mode=mode,
        config=cfg.to_dict(),
        cores=core_rows,
        raster=raster_pairs,
        noc=mesh.stats(cycle),
        counts=counts,
        energy=energy,
        violations=violations,
        rollbacks=rollbacks,
        max_edge_skew=max_edge_skew,
        trace=trace_rows,
        dep_log=dep_log,
    )
