"""Global cycle-accurate loop.

Routers and cores share one clock. The loop is event-driven only as an
optimization: between two events no component can change state, so skipping
those cycles is exact. Within a cycle the phase order is fixed (land packets,
commit completed timesteps, the protocol's global gate, start new timesteps,
arbitrate routers), which makes every run a pure function of (program,
config).

Each coordination mode is one protocol class, picked from ``PROTOCOLS`` by
``SimConfig.mode``: it owns the mode's admission rule, its global gate, the
control packets its cores send, its debug edge invariant, and the input
store its cores are built with.
"""

from __future__ import annotations

import heapq
import json
import numbers
import reprlib
from dataclasses import asdict, dataclass, field, fields

from . import metrics
from .compiler import CompiledProgram
from .core import (
    COUNTERS,
    InputStore,
    NeuromorphicCore,
    ProtocolFault,
    SpeculativeStore,
)
from .model import lif_clamp_free
from .noc import FLAG_FINISH, FLAG_START, SPIKE, DepPacket, MeshNoc, SpikePacket


class ConfigError(ValueError):
    pass


class DeadlockError(RuntimeError):
    """No core and no router can ever make progress again, yet cores remain
    unfinished. Must never fire for a well-formed dependency graph."""


class Protocol:
    """A timestep-coordination mode. Built once per run; ``admits`` is asked
    for every idle core before it begins timestep t_cur + 1, ``gate`` once
    per simulated cycle, ``check_edge`` for every dependency edge of a
    changed core under ``debug``. ``after_begin`` and ``after_finish`` are
    called right after a core begins or commits a timestep and return the
    control packets to inject; ``after_begin`` may also evaluate the begun
    step, and ``after_finish``, which gets the committed step's spikes
    before they are injected, may flag them."""

    def __init__(self, cfg: SimConfig, t_max: int):
        self.cfg, self.t_max = cfg, t_max

    @staticmethod
    def new_inputs(cfg: SimConfig, max_delay: int):
        return InputStore(max_delay + cfg.m - 1)

    def admits(self, core: NeuromorphicCore) -> bool:
        raise NotImplementedError

    def after_begin(self, core: NeuromorphicCore) -> list[DepPacket]:
        return []

    def after_finish(self, core: NeuromorphicCore,
                     spikes: list[SpikePacket]) -> list[DepPacket]:
        return []

    def gate(self, cores: list[NeuromorphicCore], mesh: MeshNoc) -> bool:
        """Advance the global gate if it can; True if that released cores."""
        return False

    def check_edge(self, a: NeuromorphicCore, b: NeuromorphicCore) -> None:
        """Raise ProtocolFault if producer ``a`` and consumer ``b`` break an
        invariant of the protocol."""


class Barrier(Protocol):
    """``sync``: timestep t starts everywhere once every core has finished
    t - 1 and no spike is in flight (an idealised, free global barrier)."""

    def __init__(self, cfg, t_max):
        super().__init__(cfg, t_max)
        self.t = 0  # the timestep currently authorized

    def admits(self, core):
        return core.t_cur + 1 == self.t

    def gate(self, cores, mesh):
        if (self.t < self.t_max and all(c.t_cur == self.t for c in cores)
                and mesh.injected[SPIKE] == mesh.delivered[SPIKE]):
            self.t += 1
            return True
        return False


class Speculative(Protocol):
    """``se``: cores run ahead freely inside an epoch of P timesteps and roll
    back on late spikes; the epoch is sealed once every core has finished it
    and the network is empty."""

    def __init__(self, cfg, t_max):
        super().__init__(cfg, t_max)
        self.epoch_end = min(cfg.period, t_max)

    @staticmethod
    def new_inputs(cfg, max_delay):
        return SpeculativeStore()

    def admits(self, core):
        return core.t_cur + 1 < self.epoch_end

    def after_begin(self, core):
        """Evaluate the begun step at once when the range proof cannot show
        it clamp-free, so that ``saturations`` counts its clamps even if a
        rollback cancels it; a step the proof clears has none to count. The
        proof reads the sums of the step's negative and positive inputs."""
        if core.n_local:
            neg = pos = 0
            for _tgt, w, _sender in core.computing[1]:
                if w < 0:
                    neg += w
                else:
                    pos += w
            if not lif_clamp_free(neg, pos, *core.v_range, core.image.lif_bounds):
                core.evaluate()
        return []

    def gate(self, cores, mesh):
        if (self.epoch_end < self.t_max and mesh.injected == mesh.delivered
                and all(c.t_cur == self.epoch_end - 1 and c.computing is None
                        for c in cores)):
            new_start = self.epoch_end
            self.epoch_end = min(self.epoch_end + self.cfg.period, self.t_max)
            for c in cores:
                c.epoch_reset(new_start)
            return True
        return False


class DependencyDriven(Protocol):
    """``depasync``: a core begins t + 1 once its pre-dependencies have
    finished t (their spikes for it have landed) and its post-dependencies
    have started t - m + 2 (they have buffer room for its spikes), as told
    by START/FINISH notifications over the NoC. A core sends a START to each
    pre-dependency when it begins a timestep and a FINISH to each
    post-dependency when it commits one. The FINISH to a core it sent spikes
    for that timestep rides the last of them; only a post-dependency sent
    no spike gets a FINISH packet (a null message, after Chandy and Misra)."""

    def admits(self, core):
        # a loop that stops at the first blocking dependency: on dense
        # graphs it is several times faster than min() over the table
        t_cur = core.t_cur
        for t in core.pre_finish.values():
            if t < t_cur:
                return False
        bound = t_cur - self.cfg.m + 1
        for t in core.post_start.values():
            if t <= bound:
                return False
        return True

    def after_begin(self, core):
        return self._notify(core, core.image.pre, FLAG_START)

    def after_finish(self, core, spikes):
        # spikes to one core share its flow, so the last lands after the rest
        last = {pkt.dst_core: pkt for pkt in spikes}
        for pkt in last.values():
            pkt.finish = True
        return self._notify(core, core.image.post, FLAG_FINISH, last)

    @staticmethod
    def _notify(core, dst_cores, flag, carried=()):
        """One notification of ``flag`` for ``core.started`` to each core:
        a packet to each core not in ``carried``, whose spikes carry it."""
        core.counters["scheduler_events"] += len(dst_cores)
        cid, t = core.cid, core.started
        return [DepPacket(cid, dst, t, flag) for dst in dst_cores
                if dst not in carried]

    def check_edge(self, a, b):
        sa, sb = a.started, b.started
        if sb > a.t_cur + 1:
            raise ProtocolFault(
                f"safety violated on edge {a.cid}->{b.cid}: consumer started {sb} "
                f"but producer only finished {a.t_cur}"
            )
        if sa > sb + self.cfg.m - 1:
            raise ProtocolFault(
                f"window violated on edge {a.cid}->{b.cid}: producer started {sa}, "
                f"consumer started {sb}, m={self.cfg.m}"
            )


PROTOCOLS: dict[str, type[Protocol]] = {
    "sync": Barrier, "se": Speculative, "depasync": DependencyDriven,
}


# Integer SimConfig fields and their least value (P and t_max may be None)
INT_FIELDS = {"m": 1, "P": 1, "n_vc": 1, "cycles_per_hop": 1, "c_update": 0,
              "c_spike": 0, "inter_cluster_slowdown": 1, "cluster_size": 1,
              "t_max": 0, "fifo_depth": 1}
BOOL_FIELDS = ("trace", "debug")
_BOOL_WORDS = {"1": True, "true": True, "yes": True,
               "0": False, "false": False, "no": False}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class SimConfig:
    grid: tuple[int, int] = (4, 4)
    mode: str = "depasync"
    m: int = 4
    P: int | None = None  # speculative sync period; defaults to m
    n_vc: int = 4
    cycles_per_hop: int = 2
    c_update: int = 4
    c_spike: int = 1
    inter_cluster_slowdown: int = 1
    cluster_size: int = 2
    t_max: int | None = None  # None: take the program's horizon
    fifo_depth: int = 4
    trace: bool = False
    debug: bool = False
    energy_costs: dict | None = None

    def validate(self) -> None:
        for name, low in INT_FIELDS.items():
            value = getattr(self, name)
            if value is None and name in ("P", "t_max"):
                continue
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ConfigError(f"{name} must be >= {low}")
        for name in BOOL_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(
                    f"{name} must be true or false, got {getattr(self, name)!r}")
        if not (isinstance(self.grid, (tuple, list)) and len(self.grid) == 2
                and all(map(_is_int, self.grid))):
            raise ConfigError(f"grid must be two integers, got {self.grid!r}")
        if min(self.grid) < 1:
            raise ConfigError("grid must be at least 1x1")
        if not isinstance(self.mode, str) or self.mode not in PROTOCOLS:
            raise ConfigError(
                f"mode must be one of {tuple(PROTOCOLS)}, got {self.mode!r}")
        metrics.EnergyCostTable.from_dict(self.energy_costs)

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
                doc["grid"] = parse_value("grid", g)
            elif isinstance(g, list):
                doc["grid"] = tuple(g)
        cfg = cls(**doc)
        cfg.validate()
        return cfg


def parse_value(key: str, text: str):
    """The value of config key ``key`` written as text: an environment
    variable, the ``--grid`` flag, a sweep axis value or a config file's
    grid. ``SimConfig.validate`` then checks its range."""
    try:
        if key == "grid":
            w, h = text.lower().split("x")
            return (int(w), int(h))
        if key in BOOL_FIELDS:
            return _BOOL_WORDS[text.lower()]
        if key in INT_FIELDS:
            return int(text)
        if key == "energy_costs":
            return json.loads(text)
    except (KeyError, ValueError, RecursionError):
        raise ConfigError(f"{key} cannot be {reprlib.repr(text)}") from None
    return text


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
    max_edge_skew: int | None  # measured only under debug
    trace: list[tuple[int, int, int, int, str]] = field(default_factory=list)
    # debug only: (cycle, dst core, src core, flag, timestep) per START or
    # FINISH delivered, as a DEP packet or on a spike
    dep_log: list[tuple[int, int, int, int, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field but ``dep_log``, with raster and trace rows as lists."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "dep_log"}
        doc["raster"] = [list(p) for p in self.raster]
        doc["trace"] = [list(r) for r in self.trace]
        return doc


def new_cores(program: CompiledProgram, cfg: SimConfig,
              t_max: int) -> list[NeuromorphicCore]:
    """Fresh run state for ``cfg`` over the program's shared runtime image."""
    protocol = PROTOCOLS[cfg.mode]
    return [NeuromorphicCore(image, protocol.new_inputs(cfg, program.max_delay),
                             t_max, cfg.c_update, cfg.c_spike)
            for image in program.image]


def run(program: CompiledProgram, cfg: SimConfig) -> SimReport:
    """Execute one simulation; deterministic in (program, cfg)."""
    cfg.validate()
    # the mesh checks that every placement cell lies on the grid
    mesh = MeshNoc(cfg.grid, program.placement, n_vc=cfg.n_vc,
                   cycles_per_hop=cfg.cycles_per_hop, fifo_depth=cfg.fifo_depth,
                   inter_cluster_slowdown=cfg.inter_cluster_slowdown,
                   cluster_size=cfg.cluster_size)
    t_max = program.t_max if cfg.t_max is None else min(cfg.t_max, program.t_max)
    protocol = PROTOCOLS[cfg.mode](cfg, t_max)
    cores = new_cores(program, cfg, t_max)
    n_cores = len(cores)

    completions: list[tuple[int, int, int, int]] = []  # (cycle, seq, cid, gen)
    seq = 0
    dirty = set(range(n_cores))
    trace_rows: list[tuple[int, int, int, int, str]] = []
    dep_log: list[tuple[int, int, int, int, int]] = []
    last_completion = 0
    max_edge_skew = 0

    graph = program.dep_graph

    def check_edges(changed: set[int]) -> None:
        for c in changed:
            for b in graph.post[c]:
                _assert_edge(c, b)
            for a in graph.pre[c]:
                _assert_edge(a, c)

    def _assert_edge(a: int, b: int) -> None:
        nonlocal max_edge_skew
        skew = abs(cores[a].started - cores[b].started)
        if skew > max_edge_skew:
            max_edge_skew = skew
        protocol.check_edge(cores[a], cores[b])

    cycle = 0
    while True:
        changed: set[int] = set()

        # 1. land packets: hops into FIFOs, ejections into cores; a flagged
        # spike's FINISH is recorded once the spike is buffered
        for pkt in mesh.begin_cycle(cycle):
            core = cores[pkt.dst_core]
            if pkt.kind == SPIKE:
                rollback_to = core.on_spike(pkt)
                if rollback_to is not None:
                    for anti in core.rollback(rollback_to, cycle):
                        mesh.inject(anti)
                    dirty.add(core.cid)
                    changed.add(core.cid)
                if not pkt.finish:
                    continue
                flag = FLAG_FINISH
            else:
                flag = pkt.flag
            core.on_dep(pkt.src_core, flag, pkt.timestep)
            dirty.add(core.cid)
            if cfg.debug:
                dep_log.append((cycle, pkt.dst_core, pkt.src_core, flag,
                                pkt.timestep))

        # 2. commit completed timesteps. A timestep is queued at its
        # earliest completion and evaluated when that comes; one whose
        # spikes cost more is queued again, same entry, at its true one.
        while completions and completions[0][0] == cycle:
            _c, s, cid, gen = heapq.heappop(completions)
            core = cores[cid]
            if gen != core.gen or core.computing is None:
                continue  # cancelled by a rollback
            done = core.evaluate()
            if done > cycle:
                heapq.heappush(completions, (done, s, cid, gen))
                continue
            t, start_cycle = core.started, core.computing[0]
            kind = "rollback" if t <= core.frontier else "compute"
            spikes = core.finish(cycle)
            notices = protocol.after_finish(core, spikes)
            for pkt in spikes:
                mesh.inject(pkt)
            for pkt in notices:
                mesh.inject(pkt)
            if cfg.trace:
                trace_rows.append((start_cycle, cycle, cid, t, kind))
            last_completion = cycle
            dirty.add(cid)
            changed.add(cid)

        # 3. the protocol's global gate (barrier, epoch seal)
        if protocol.gate(cores, mesh):
            dirty.update(range(n_cores))

        # 4. start admissible timesteps
        if dirty:
            for cid in sorted(dirty):
                core = cores[cid]
                if core.may_advance() and protocol.admits(core):
                    cost = core.begin(cycle)
                    for pkt in protocol.after_begin(core):
                        mesh.inject(pkt)
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
        if mesh.queued:
            nxt_candidates.append(cycle + 1)
        if not nxt_candidates:
            if all(c.done for c in cores):
                break
            waiting = [c.cid for c in cores if not c.done]
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

    counts = {k: sum(core.counters[k] for core in cores) for k in COUNTERS}
    core_rows = []
    violations = 0
    rollbacks = 0
    for core in cores:
        violations += core.inputs.violations
        rollbacks += core.rollbacks
        wait = total_cycles - core.busy_cycles - core.rollback_cycles
        core_rows.append({
            "id": core.cid, "busy": core.busy_cycles,
            "rollback": core.rollback_cycles, "wait": wait,
        })
    counts["buffer_writes"] = counts["synapse_acc"]
    counts["noc_hops"] = mesh.hops
    counts["spikes"] = len(raster_pairs)

    cost_table = metrics.EnergyCostTable.from_dict(cfg.energy_costs)
    energy = metrics.energy_total(counts, cost_table, n_cores, total_cycles)

    return SimReport(
        total_cycles=total_cycles,
        mode=cfg.mode,
        config=cfg.to_dict(),
        cores=core_rows,
        raster=raster_pairs,
        noc=mesh.stats(cycle),
        counts=counts,
        energy=energy,
        violations=violations,
        rollbacks=rollbacks,
        max_edge_skew=max_edge_skew if cfg.debug else None,
        trace=trace_rows,
        dep_log=dep_log,
    )
