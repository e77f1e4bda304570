"""Compile a Network onto logic cores: partitioning, dependency extraction
(which cores each core hears from and tells, by core id), and mesh
placement. A compiled program builds its runtime image once, and every run
of it shares it: each core's own routing, synapse and dependency tables,
read in place, and the parameter slices and per-timestep input derived from
the program."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .atomic import atomic_open
from .fixedpoint import from_str, to_str
from .model import (
    INPUT,
    NEURON,
    Network,
    NeuronParams,
    RecordKind,
    inputs_by_neuron,
    lif_bounds,
    load_document,
    neuron_arrays,
    neurons_and_inputs_to_dict,
    record_hook,
    records,
)


class CompileError(ValueError):
    """Raised when a network cannot be compiled under the given limits."""


@dataclass(frozen=True)
class Capacity:
    max_neurons: int = 4096
    max_synapses: int = 262144
    max_deps: int = 512

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 1:
                raise CompileError(f"capacity {name} must be >= 1, got {value}")


@dataclass
class LogicCore:
    id: int
    neuron_ids: list[int]
    # local source index -> outgoing synapses as (dst_core, synapse_id,
    # delay): activate row synapse_id of dst_core after delay timesteps
    fanout: dict[int, list[tuple[int, int, int]]] = field(default_factory=dict)
    # incoming synapse table: row id -> (local target index, weight)
    in_synapses: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class DepGraph:
    """Per core, the cores it receives synapses from (``pre``) and sends
    synapses to (``post``), each in ascending core id."""

    pre: list[list[int]]
    post: list[list[int]]


@dataclass
class CompiledProgram:
    """Everything a simulation needs: per-core slices, routing tables,
    dependency graph, placement, and the workload's input schedule."""

    cores: list[LogicCore]
    dep_graph: DepGraph
    placement: list[tuple[int, int]]  # core id -> (x, y)
    grid: tuple[int, int]
    neurons: list[tuple[NeuronParams, int]]  # global id -> (params, v0)
    inputs: dict[int, list[tuple[int, int]]]
    t_max: int
    max_delay: int

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @cached_property
    def image(self) -> tuple[CoreImage, ...]:
        """The runtime image, built on first use and shared by every run of
        this program: no field of a program may change once it has run."""
        return build_image(self)


@dataclass(frozen=True)
class CoreImage:
    """One core's tables as the simulator reads them, shared by all runs of
    its program. The routing, synapse and dependency tables are the
    program's own ``LogicCore`` and ``DepGraph`` objects, not copies; the
    rest is derived from the program once, as read-only arrays and tuples."""

    cid: int
    # the program's own tables
    neuron_ids: list[int]  # LogicCore.neuron_ids
    fanout: dict[int, list[tuple[int, int, int]]]  # LogicCore.fanout
    in_synapses: list[tuple[int, int]]  # LogicCore.in_synapses
    pre: list[int]   # DepGraph.pre row: STARTs go here
    post: list[int]  # DepGraph.post row: FINISHes go here
    # derived, per local neuron: tau_m, g_l, v_rst, v_th, initial potential
    tau: np.ndarray
    g: np.ndarray
    vr: np.ndarray
    vth: np.ndarray
    v0: np.ndarray
    lif_bounds: tuple[int, ...] | None  # model.lif_bounds; None if no neurons
    # derived, per timestep: its external input as receptions
    # (local index, current, -1), in neuron order
    external: tuple[tuple[tuple[int, int, int], ...], ...]


def build_image(prog: CompiledProgram) -> tuple[CoreImage, ...]:
    """Every core's runtime tables: the program's own routing, synapse and
    dependency tables, and what is derived from it, the parameter slices
    and each timestep's external input as receptions."""
    params = neuron_arrays(prog.neurons)
    graph = prog.dep_graph
    images = []
    for lc in prog.cores:
        sliced = params[:, lc.neuron_ids]
        sliced.flags.writeable = False  # and with it each row
        tau, g, vr, vth, v0 = sliced

        # each timestep's input events, in neuron order, as receptions
        external = [[] for _ in range(prog.t_max)]
        for li, nid in enumerate(lc.neuron_ids):
            for t, cur in prog.inputs.get(nid, ()):
                external[t].append((li, cur, -1))

        images.append(CoreImage(
            cid=lc.id, neuron_ids=lc.neuron_ids, fanout=lc.fanout,
            in_synapses=lc.in_synapses,
            pre=graph.pre[lc.id], post=graph.post[lc.id],
            tau=tau, g=g, vr=vr, vth=vth, v0=v0,
            lif_bounds=lif_bounds(tau, g, vr) if lc.neuron_ids else None,
            external=tuple(map(tuple, external)),
        ))
    return tuple(images)


def _assign_layered(layers: list[int], n_cores: int) -> list[int]:
    """Contiguous ranges: cores are shared out to layers by size (largest
    remainder), then each layer is split into equal chunks."""
    total = sum(layers)
    quotas = [sz * n_cores / total for sz in layers]
    counts = [max(1, int(q)) for q in quotas]
    while sum(counts) > n_cores:
        # shrink the layer with the most cores relative to its quota
        shrinkable = [i for i in range(len(layers)) if counts[i] > 1]
        if not shrinkable:
            raise CompileError(f"cannot fit {len(layers)} layers on {n_cores} cores")
        j = max(shrinkable, key=lambda i: (counts[i] - quotas[i], counts[i]))
        counts[j] -= 1
    order = sorted(range(len(layers)), key=lambda i: quotas[i] - counts[i], reverse=True)
    k = 0
    while sum(counts) < n_cores:
        counts[order[k % len(order)]] += 1
        k += 1

    assign = []
    core = 0
    for li, sz in enumerate(layers):
        c = counts[li]
        base, extra = divmod(sz, c)
        for chunk in range(c):
            chunk_sz = base + (1 if chunk < extra else 0)
            assign.extend([core] * chunk_sz)
            core += 1
    return assign


def default_assignment(net: Network, n_cores: int) -> list[int]:
    """Neuron id -> core id: contiguous per-layer chunks for a layered
    network, round-robin for any other."""
    if n_cores < 1:
        raise CompileError("need at least one core")
    if net.layers is not None:
        return _assign_layered(net.layers, n_cores)
    return [i % n_cores for i in range(net.n_neurons)]


def partition(
    net: Network,
    n_cores: int,
    capacity: Capacity = Capacity(),
    assignment: list[int] | None = None,
) -> list[LogicCore]:
    """Split a network's neurons over logic cores and build routing tables,
    by an explicit neuron -> core ``assignment`` or else by
    ``default_assignment``."""
    net.validate()
    if assignment is None:
        assignment = default_assignment(net, n_cores)
    elif len(assignment) != net.n_neurons:
        raise CompileError("assignment length must equal the neuron count")
    elif n_cores < 1 or any(not (0 <= c < n_cores) for c in assignment):
        raise CompileError("assignment references an unknown core")
    if net.n_neurons > n_cores * capacity.max_neurons:
        raise CompileError(
            f"{net.n_neurons} neurons cannot fit {n_cores} cores of "
            f"{capacity.max_neurons}"
        )

    cores = [LogicCore(id=c, neuron_ids=[]) for c in range(n_cores)]
    local_idx = [0] * net.n_neurons
    for nid, c in enumerate(assignment):
        local_idx[nid] = len(cores[c].neuron_ids)
        cores[c].neuron_ids.append(nid)

    for c in cores:
        if len(c.neuron_ids) > capacity.max_neurons:
            raise CompileError(
                f"core {c.id} holds {len(c.neuron_ids)} neurons, "
                f"capacity {capacity.max_neurons}"
            )

    for s in net.synapses:
        src_core = assignment[s.src]
        dst_core = assignment[s.dst]
        syn_id = len(cores[dst_core].in_synapses)
        if syn_id >= capacity.max_synapses:
            raise CompileError(
                f"core {dst_core} exceeds its synapse capacity "
                f"{capacity.max_synapses}"
            )
        cores[dst_core].in_synapses.append((local_idx[s.dst], s.weight))
        cores[src_core].fanout.setdefault(local_idx[s.src], []).append(
            (dst_core, syn_id, s.delay))
    return cores


def extract_deps(cores: list[LogicCore],
                 capacity: Capacity | None = Capacity()) -> DepGraph:
    """Dependency edge A -> B iff some synapse crosses from A to B (A != B).
    With ``capacity`` None no table limit applies: a loaded program was held
    to the limit it was compiled under, which its file does not record."""
    n = len(cores)
    out_sets: list[set[int]] = [set() for _ in range(n)]
    for c in cores:
        for entries in c.fanout.values():
            for dst_core, _syn, _delay in entries:
                if dst_core != c.id:
                    out_sets[c.id].add(dst_core)
    pre: list[list[int]] = [[] for _ in range(n)]
    post: list[list[int]] = [sorted(s) for s in out_sets]
    for a in range(n):
        for b in post[a]:
            pre[b].append(a)
    pre = [sorted(p) for p in pre]
    if capacity is not None:
        for c in range(n):
            total = len(pre[c]) + len(post[c])
            if total > capacity.max_deps:
                raise CompileError(
                    f"core {c} has {total} dependencies, hardware table holds "
                    f"{capacity.max_deps}"
                )
    return DepGraph(pre=pre, post=post)


def map_plain(cores: list[LogicCore], grid: tuple[int, int]) -> list[tuple[int, int]]:
    """Row-major: logic core i at (i mod W, i div W)."""
    w, h = grid
    if len(cores) > w * h:
        raise CompileError(f"{len(cores)} cores exceed the {w}x{h} grid")
    return [(i % w, i // w) for i in range(len(cores))]


def hilbert_index_to_xy(side: int, d: int) -> tuple[int, int]:
    """Standard Hilbert curve index -> (x, y) on a side x side grid."""
    x = y = 0
    t = d
    s = 1
    while s < side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def map_hilbert(cores: list[LogicCore], grid: tuple[int, int]) -> list[tuple[int, int]]:
    """Logic core i at the i-th cell of the Hilbert curve. Requires a square
    power-of-two grid; anything else falls back to plain with a warning."""
    w, h = grid
    if len(cores) > w * h:
        raise CompileError(f"{len(cores)} cores exceed the {w}x{h} grid")
    if w != h or w < 1 or (w & (w - 1)) != 0:
        warnings.warn(
            f"hilbert mapping needs a square power-of-two grid, got {w}x{h}; "
            "falling back to plain",
            stacklevel=2,
        )
        return map_plain(cores, grid)
    return [hilbert_index_to_xy(w, i) for i in range(len(cores))]


MAPPINGS = {"plain": map_plain, "hilbert": map_hilbert}  # name -> placement


def compile_network(
    net: Network,
    grid: tuple[int, int],
    mapping: str = "plain",
    capacity: Capacity = Capacity(),
    n_cores: int | None = None,
    assignment: list[int] | None = None,
) -> CompiledProgram:
    """Full pipeline: partition, extract dependencies, place on the mesh."""
    w, h = grid
    if n_cores is None:
        n_cores = w * h
    cores = partition(net, n_cores, capacity, assignment=assignment)
    graph = extract_deps(cores, capacity)
    if mapping not in MAPPINGS:
        raise CompileError(f"unknown mapping {mapping!r}")
    placement = MAPPINGS[mapping](cores, grid)
    return CompiledProgram(
        cores=cores,
        dep_graph=graph,
        placement=placement,
        grid=grid,
        neurons=list(net.neurons),
        inputs={nid: list(evs) for nid, evs in net.inputs.items()},
        t_max=net.t_max,
        max_delay=net.max_delay,
    )


def exchange_with_core0(assignment: list[int], fraction: float,
                        seed: int = 0) -> list[int]:
    """Swap a fraction of core 0's neurons with neurons of the other cores,
    round-robin over the cores with a neuron left, to manufacture dependency
    cycles through core 0. No more neurons swap than the other cores hold."""
    import itertools
    import random as _random

    if not (0.0 <= fraction <= 1.0):
        raise CompileError("exchange fraction must be in [0, 1]")
    n_cores = max(assignment) + 1 if assignment else 0
    if n_cores < 2 or fraction == 0.0:
        return list(assignment)
    rng = _random.Random(seed)
    by_core: dict[int, list[int]] = {}
    for nid, c in enumerate(assignment):
        by_core.setdefault(c, []).append(nid)
    core0 = by_core.get(0, [])
    k = min(max(1, int(fraction * len(core0))), len(core0),
            len(assignment) - len(core0))
    mine = rng.sample(core0, k)
    new_assign = list(assignment)
    partners = itertools.cycle(range(1, n_cores))
    for nid in mine:
        partner_core = next(c for c in partners if by_core.get(c))
        partner_nid = rng.choice(by_core[partner_core])
        by_core[partner_core].remove(partner_nid)
        new_assign[nid], new_assign[partner_nid] = partner_core, 0
    return new_assign


def exchanged_assignment(net: Network, n_cores: int, fraction: float,
                         seed: int = 0) -> list[int]:
    """``default_assignment`` of ``net`` onto ``n_cores`` cores, then
    ``exchange_with_core0``; returns neuron id -> core id."""
    return exchange_with_core0(default_assignment(net, n_cores), fraction, seed=seed)


# ---------------------------------------------------------------------------
# Compiled-program file format
# ---------------------------------------------------------------------------


def _core_to_dict(c: LogicCore) -> dict:
    return {
        "id": c.id,
        "neuron_ids": list(c.neuron_ids),
        "fanout": {
            str(local): [
                {"dst_core": dst, "synapse_id": syn, "delay": delay}
                for dst, syn, delay in entries
            ]
            for local, entries in sorted(c.fanout.items())
        },
        "in_synapses": [
            {"target": tgt, "weight": to_str(w)} for tgt, w in c.in_synapses
        ],
    }


def program_to_dict(prog: CompiledProgram) -> dict:
    """The program document; ``save_program`` writes it without building it."""
    return {
        "cores": [_core_to_dict(c) for c in prog.cores],
        "grid": list(prog.grid),
        "t_max": prog.t_max,
        "max_delay": prog.max_delay,
        "placement": [list(xy) for xy in prog.placement],
        **neurons_and_inputs_to_dict(prog.neurons, prog.inputs),
    }


def _check_program(cores: list[LogicCore], coords: list[tuple[int, int]],
                      grid: tuple[int, int], n_neurons: int, inputs: dict,
                      t_max: int, max_delay: int) -> None:
    """Raise CompileError unless a loaded program's horizon and delay bound
    are valid, every index in it points at something that exists, and the
    placement gives each core its own cell."""

    def index(x, n: int) -> bool:
        return type(x) is int and 0 <= x < n

    if (type(t_max) is not int or t_max < 0
            or type(max_delay) is not int or max_delay < 1):
        raise CompileError(f"t_max {t_max!r} must be an int >= 0 and max_delay "
                           f"{max_delay!r} an int >= 1")
    n_cores = len(cores)
    for i, c in enumerate(cores):
        if c.id != i:
            raise CompileError(f"core at position {i} has id {c.id!r}")
    ids = sorted(nid for c in cores for nid in c.neuron_ids)
    if ids != list(range(n_neurons)) or not all(type(nid) is int for nid in ids):
        raise CompileError(
            f"core neuron_ids do not list each of the {n_neurons} neurons once")
    for nid, events in inputs.items():
        if not index(nid, n_neurons) or not all(index(t, t_max) for t, _i in events):
            raise CompileError(f"input for neuron {nid!r} names no neuron or a "
                               f"timestep outside 0..{t_max - 1}")
    for c in cores:
        n_local = len(c.neuron_ids)
        for local, entries in c.fanout.items():
            if not index(local, n_local):
                raise CompileError(
                    f"core {c.id}: fanout key {local} outside its {n_local} neurons")
            for dst, syn, delay in entries:
                if not (index(dst, n_cores) and index(syn, len(cores[dst].in_synapses))):
                    raise CompileError(f"core {c.id}: fanout {dst, syn} names no synapse row")
                if type(delay) is not int or not 1 <= delay <= max_delay:
                    raise CompileError(
                        f"core {c.id}: fanout delay {delay!r} outside 1..{max_delay}")
        for target, _w in c.in_synapses:
            if not index(target, n_local):
                raise CompileError(f"core {c.id}: incoming synapse target "
                                   f"{target!r} outside its {n_local} neurons")
    w, h = grid
    if type(w) is not int or type(h) is not int:
        raise CompileError(f"grid {list(grid)!r} must be two ints")
    if (len(coords) != n_cores or len(set(coords)) != n_cores
            or not all(index(x, w) and index(y, h) for x, y in coords)):
        raise CompileError(f"placement must give each of the {n_cores} cores "
                           f"its own cell of the {w}x{h} grid")


FANOUT = RecordKind("fanout", frozenset(("delay", "dst_core", "synapse_id")),
                    lambda d: (d["dst_core"], d["synapse_id"], d["delay"]),
                    lambda x: type(x) is tuple and len(x) == 3)
IN_SYNAPSE = RecordKind(
    "in-synapse", frozenset(("target", "weight")),
    lambda d: (d["target"], from_str(d["weight"])),
    lambda x: type(x) is tuple and len(x) == 2 and type(x[0]) is type(x[1]) is int)
_PROGRAM_HOOK = record_hook(FANOUT, IN_SYNAPSE, NEURON, INPUT)


def _program(doc: dict) -> CompiledProgram:
    """The program of a parsed document. The document is checked, then the
    dependency graph is derived from the fanout, with no table limit. Older
    files also carry ``dep_graph`` and a fanout ``weight``, both unread."""
    cores = []
    for cd in doc["cores"]:
        fanout = cd["fanout"]
        if type(fanout) is not dict:
            raise TypeError(f"core fanout must be an object, got {type(fanout).__name__}")
        cores.append(LogicCore(
            id=cd["id"],
            neuron_ids=list(cd["neuron_ids"]),
            fanout={int(local): records(entries, FANOUT)
                    for local, entries in fanout.items()},
            in_synapses=records(cd["in_synapses"], IN_SYNAPSE),
        ))
    grid = tuple(doc["grid"])
    placement = [(x, y) for x, y in doc["placement"]]
    neurons = records(doc["neurons"], NEURON)
    inputs = inputs_by_neuron(records(doc["inputs"], INPUT))
    _check_program(cores, placement, grid, len(neurons),
                   inputs, doc["t_max"], doc["max_delay"])
    return CompiledProgram(
        cores=cores, dep_graph=extract_deps(cores, None), placement=placement,
        grid=grid, neurons=neurons, inputs=inputs,
        t_max=doc["t_max"], max_delay=doc["max_delay"],
    )


def _core_record(c: LogicCore) -> str:
    fanout = ", ".join(
        '"%d": [%s]' % (local, ", ".join(
            '{"delay": %d, "dst_core": %d, "synapse_id": %d}' % (delay, dst, syn)
            for dst, syn, delay in entries))
        for local, entries in sorted(c.fanout.items(), key=lambda kv: str(kv[0])))
    in_synapses = ", ".join('{"target": %d, "weight": "%s"}' % (tgt, to_str(w))
                            for tgt, w in c.in_synapses)
    neuron_ids = ", ".join("%d" % nid for nid in c.neuron_ids)
    return ('{"fanout": {%s}, "id": %d, "in_synapses": [%s], "neuron_ids": [%s]}'
            % (fanout, c.id, in_synapses, neuron_ids))


def save_program(prog: CompiledProgram, path) -> None:
    """Write ``json.dumps(program_to_dict(prog), sort_keys=True)`` and a
    newline, byte for byte, one record at a time and atomically.

    The text is formatted directly: keys in sorted order (fanout keys sorted
    as strings, so "10" precedes "2"), ``%d`` for the indices, which
    ``Network.validate`` and ``_check_program`` hold to ints, and quoted
    ``to_str`` decimals, which need no escaping. No dict is built.
    """
    with atomic_open(path) as f:
        f.write('{"cores": [')
        for i, c in enumerate(prog.cores):
            if i:
                f.write(", ")
            f.write(_core_record(c))
        f.write('], "grid": [%s], "inputs": [' % ", ".join("%d" % x for x in prog.grid))
        f.write(", ".join(
            '{"current": "%s", "neuron": %d, "timestep": %d}' % (to_str(cur), nid, t)
            for nid in sorted(prog.inputs) for t, cur in prog.inputs[nid]))
        f.write('], "max_delay": %d, "neurons": [' % prog.max_delay)
        f.write(", ".join(
            '{"g_l": "%s", "tau_m": "%s", "v0": "%s", "v_rst": "%s", "v_th": "%s"}'
            % (to_str(p.g_l), to_str(p.tau_m), to_str(v0), to_str(p.v_rst), to_str(p.v_th))
            for p, v0 in prog.neurons))
        f.write('], "placement": [%s], "t_max": %d}\n' % (
            ", ".join("[%d, %d]" % xy for xy in prog.placement), prog.t_max))


def load_program(path) -> CompiledProgram:
    """The program saved at ``path``. Each record is decoded as the parser
    closes it; a malformed file raises CompileError naming it."""
    return load_document(path, _PROGRAM_HOOK, _program, CompileError, "program")
