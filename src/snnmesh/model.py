"""SNN workload model: LIF neurons, networks, generators, reference interpreter.

The reference interpreter is the golden oracle: every hardware coordination
mode must reproduce its spike raster bit for bit.
"""

from __future__ import annotations

import json
import random
import reprlib
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_json
from .fixedpoint import FRAC_BITS, FX_MAX, FX_MIN, fx, from_str, to_str


class WorkloadError(ValueError):
    """Raised for malformed networks or workload files."""


@dataclass(frozen=True, slots=True)
class NeuronParams:
    """LIF parameters, all Q16.16: membrane time constant, reset potential,
    leak conductance, firing threshold."""

    tau_m: int
    v_rst: int
    g_l: int
    v_th: int

    def __post_init__(self) -> None:
        if self.tau_m <= 0:
            raise WorkloadError("tau_m must be > 0")
        if self.g_l <= 0:
            raise WorkloadError("g_l must be > 0")
        if self.v_th <= self.v_rst:
            raise WorkloadError("v_th must be > v_rst")


@dataclass(frozen=True, slots=True)
class Synapse:
    src: int
    dst: int
    weight: int
    delay: int

    def __post_init__(self) -> None:
        # checked once here, not on every validate: a synapse cannot change
        if not type(self.src) is type(self.dst) is type(self.delay) is int:
            _check_ints(f"synapse {self}", src=self.src, dst=self.dst, delay=self.delay)


@dataclass
class Network:
    """A complete workload: neurons, synapses, external input schedule.

    ``neurons`` holds one (NeuronParams, initial potential) pair per neuron.
    ``inputs`` maps neuron id to a list of (timestep, current) pairs.
    ``layers`` is optional layer-size metadata used by the compiler to pick a
    contiguous partition for feed-forward nets.
    """

    neurons: list[tuple[NeuronParams, int]]
    synapses: list[Synapse]
    inputs: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    t_max: int = 0
    max_delay: int = 1
    layers: list[int] | None = None

    @property
    def n_neurons(self) -> int:
        return len(self.neurons)

    def validate(self) -> None:
        """Raise WorkloadError unless every index field is an int in range
        (``Synapse`` checks its own types): a float or a bool would pass the
        range checks and later fail, or be read as another neuron, in the
        compiler or the simulator."""
        n = len(self.neurons)
        _check_horizon(self.t_max, self.max_delay)
        for s in self.synapses:
            if not (0 <= s.src < n and 0 <= s.dst < n):
                raise WorkloadError(f"synapse {s} references an unknown neuron")
            if not (1 <= s.delay <= self.max_delay):
                raise WorkloadError(f"synapse {s} has delay outside [1, {self.max_delay}]")
        for nid, events in self.inputs.items():
            if type(nid) is not int or not (0 <= nid < n):
                _check_ints("input schedule", neuron=nid)
                raise WorkloadError(f"input schedule references unknown neuron {nid}")
            for t, _cur in events:
                if type(t) is not int or not (0 <= t < self.t_max):
                    _check_ints(f"input for neuron {nid}", timestep=t)
                    raise WorkloadError(f"input for neuron {nid} at t={t} outside [0, {self.t_max})")
        if self.layers is not None:
            _check_ints("workload", **{f"layers[{i}]": sz for i, sz in enumerate(self.layers)})
            if sum(self.layers) != n:
                raise WorkloadError("layer sizes do not sum to the neuron count")
            if any(sz <= 0 for sz in self.layers):
                raise WorkloadError("layer sizes must be positive")


def _check_ints(where: str, **fields) -> None:
    """Raise WorkloadError naming the first of ``fields`` that is not an
    int; ``bool`` is not one."""
    for name, value in fields.items():
        if type(value) is not int:
            raise WorkloadError(f"{where}: {name} must be an int, got {value!r}")


def _check_horizon(t_max: int, max_delay: int) -> None:
    _check_ints("workload", t_max=t_max, max_delay=max_delay)
    if t_max < 0:
        raise WorkloadError("t_max must be >= 0")
    if max_delay < 1:
        raise WorkloadError("max_delay must be >= 1")


def _check_rates(**rates: float) -> None:
    for name, rate in rates.items():
        if not 0.0 <= rate <= 1.0:  # also rejects NaN
            raise WorkloadError(f"{name} must be in [0, 1], got {rate!r}")


class SpikeRaster:
    """An ordered set of (neuron id, timestep) spike events."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs, t_max: int | None = None):
        pairs = [(int(n), int(t)) for n, t in pairs]
        dedup = set(pairs)
        if len(dedup) != len(pairs):
            raise WorkloadError("duplicate (neuron, timestep) pair in raster")
        if t_max is not None:
            for _n, t in dedup:
                if not (0 <= t < t_max):
                    raise WorkloadError(f"raster timestep {t} outside [0, {t_max})")
        self._pairs = frozenset(dedup)

    def ordered(self) -> list[tuple[int, int]]:
        """Chronological order: by (timestep, neuron id)."""
        return sorted(self._pairs, key=lambda p: (p[1], p[0]))

    def first_divergence(self, other: "SpikeRaster") -> tuple[int, int] | None:
        """Earliest (neuron, timestep) present in exactly one raster."""
        diff = self._pairs ^ other._pairs
        if not diff:
            return None
        return min(diff, key=lambda p: (p[1], p[0]))

    def __eq__(self, other) -> bool:
        return isinstance(other, SpikeRaster) and self._pairs == other._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self._pairs

    def __iter__(self):
        return iter(self.ordered())

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpikeRaster({len(self._pairs)} spikes)"


def lif_bounds(tau_m, g_l, v_rst):
    """(tau_m, g_l, v_rst) slice ranges as six ints, the parameter half of
    the proof ``lif_step_arrays`` runs before it skips clamping."""
    return (int(tau_m.min()), int(tau_m.max()), int(g_l.min()), int(g_l.max()),
            int(v_rst.min()), int(v_rst.max()))


def lif_clamp_free(a_lo, a_hi, v_lo, v_hi, bounds) -> bool:
    """Can no intermediate of ``lif_step_arrays`` leave Q16.16 while every
    input lies in [a_lo, a_hi] and every potential in [v_lo, v_hi]?
    ``bounds`` is ``lif_bounds`` of the parameters.

    Floor division by a positive divisor is monotone in each operand, so the
    corners of the ranges bound every intermediate: the least quotient of a
    negative bound divides by the least divisor, of any other bound by the
    greatest. Widening a range can only turn True into False, so True for
    ranges that hold the true values means no clamp can happen."""
    if a_lo < FX_MIN or a_hi > FX_MAX:
        return False
    t_lo, t_hi, g_lo, g_hi, r_lo, r_hi = bounds
    d_lo = (a_lo << FRAC_BITS) // (g_lo if a_lo < 0 else g_hi)
    d_hi = (a_hi << FRAC_BITS) // (g_hi if a_hi < 0 else g_lo)
    l_lo, l_hi = r_lo - v_hi, r_hi - v_lo
    i_lo, i_hi = l_lo + d_lo, l_hi + d_hi
    dv_lo = (i_lo << FRAC_BITS) // (t_lo if i_lo < 0 else t_hi)
    dv_hi = (i_hi << FRAC_BITS) // (t_hi if i_hi < 0 else t_lo)
    return (FX_MIN <= d_lo and d_hi <= FX_MAX
            and FX_MIN <= l_lo and l_hi <= FX_MAX
            and FX_MIN <= i_lo and i_hi <= FX_MAX
            and FX_MIN <= dv_lo and dv_hi <= FX_MAX
            and FX_MIN <= v_lo + dv_lo and v_hi + dv_hi <= FX_MAX)


def lif_step_arrays(v, acc, tau_m, g_l, v_rst, v_th, bounds=None, v_range=None):
    """One forward-Euler LIF update with dt = one timestep, element-wise:

        v' = v + (-(v - v_rst) + acc / g_l) / tau_m

    with each intermediate (acc, acc / g_l, v_rst - v, their sum, the
    quotient by tau_m, v') saturated to Q16.16 and each division a floor
    division; the neuron fires when v' >= v_th and is then reset to v_rst.

    All arrays int64 holding Q16.16 values. Returns (v_new, fired, clamps),
    clamps being the number of intermediate values saturation changed.
    ``bounds`` is ``lif_bounds(tau_m, g_l, v_rst)`` and ``v_range`` is
    ``(v.min(), v.max())``, each computed here if None.

    When ``lif_clamp_free`` proves from the ranges of ``acc`` and ``v`` that
    no clamp can happen, the step runs unclamped; otherwise it clamps step
    by step.
    """
    if v.size and lif_clamp_free(
            int(acc.min()), int(acc.max()),
            *((int(v.min()), int(v.max())) if v_range is None else v_range),
            lif_bounds(tau_m, g_l, v_rst) if bounds is None else bounds):
        inner = v_rst - v + (acc << FRAC_BITS) // g_l
        v_new = v + (inner << FRAC_BITS) // tau_m
        fired = v_new >= v_th
        return np.where(fired, v_rst, v_new), fired, 0

    clamps = 0

    def _sat(x):
        nonlocal clamps
        # an array already in range is returned as is: np.clip costs far
        # more than min/max, and clamps only counts elements it changes
        if not x.size or (FX_MIN <= int(x.min()) and int(x.max()) <= FX_MAX):
            return x
        out = np.clip(x, FX_MIN, FX_MAX)
        clamps += int(np.count_nonzero(out != x))
        return out

    acc0 = _sat(acc)
    drive = _sat((acc0 << FRAC_BITS) // g_l)
    leak = _sat(v_rst - v)
    inner = _sat(leak + drive)
    dv = _sat((inner << FRAC_BITS) // tau_m)
    v_new = _sat(v + dv)
    fired = v_new >= v_th
    v_new = np.where(fired, v_rst, v_new)
    return v_new, fired, clamps


def neuron_arrays(neurons):
    """Struct-of-arrays view of a sequence of (NeuronParams, initial
    potential) pairs: one int64 row each for tau_m, g_l, v_rst, v_th, v0."""
    rows = [(p.tau_m, p.g_l, p.v_rst, p.v_th, v) for p, v in neurons]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 5).T.copy()


def _grouped(keys, columns, n_keys: int):
    """``columns``, each a list of ints, stably sorted by ``keys`` and made
    int64 arrays, with the offsets ``start``: the rows whose key is k are
    ``start[k]:start[k + 1]``, for k in [0, n_keys)."""
    keys = np.array(keys, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    start = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=start[1:])
    return start, [np.array(c, dtype=np.int64)[order] for c in columns]


def reference_run(net: Network) -> SpikeRaster:
    """Sequential time-driven interpreter; the oracle for all hardware modes.

    Spikes generated at t are consumed at t + delay (delay >= 1), so results
    do not depend on neuron iteration order within a timestep.

    The synapses are kept once, sorted by source, so the fanout of neuron i
    is rows ``start[i]:start[i + 1]``. Each timestep expands the fired
    neurons' row ranges into one index and scatters all their spikes into
    the delay ring at once; a spike consumed at or after ``t_max`` is never
    read and is dropped, so the ring needs only ``min(max_delay, t_max) + 1``
    slots.
    """
    net.validate()
    n, t_max = net.n_neurons, net.t_max
    if n == 0 or t_max == 0:
        return SpikeRaster([])

    tau, g, vr, vth, v = neuron_arrays(net.neurons)
    bounds = lif_bounds(tau, g, vr)

    syn = net.synapses
    start, (dst, w, d) = _grouped([s.src for s in syn], (
        [s.dst for s in syn], [s.weight for s in syn], [s.delay for s in syn]), n)
    ext = [(t, nid, cur) for nid, events in net.inputs.items() for t, cur in events]
    ext_start, (ext_n, ext_c) = _grouped([e[0] for e in ext], (
        [e[1] for e in ext], [e[2] for e in ext]), t_max)

    n_ring = min(net.max_delay, t_max) + 1
    ring = np.zeros((n_ring, n), dtype=np.int64)
    spikes: list[tuple[int, int]] = []

    for t in range(t_max):
        slot = t % n_ring
        acc = ring[slot]
        lo, hi = ext_start[t], ext_start[t + 1]
        if lo < hi:
            np.add.at(acc, ext_n[lo:hi], ext_c[lo:hi])
        v, fired, _ = lif_step_arrays(v, acc, tau, g, vr, vth, bounds)
        ring[slot] = 0
        fired_ids = np.flatnonzero(fired)
        if not fired_ids.size:
            continue
        spikes.extend((i, t) for i in fired_ids.tolist())
        first = start[fired_ids]
        lens = start[fired_ids + 1] - first
        # the fired neurons' row ranges, concatenated: item k of range j is
        # first[j] + k - (the length of ranges 0..j-1)
        rows = np.arange(int(lens.sum())) + np.repeat(first - (np.cumsum(lens) - lens), lens)
        t_in = t + d[rows]
        keep = t_in < t_max
        rows = rows[keep]
        np.add.at(ring, (t_in[keep] % n_ring, dst[rows]), w[rows])
    return SpikeRaster(spikes, t_max=t_max)


# ---------------------------------------------------------------------------
# Workload generators
# ---------------------------------------------------------------------------

#: (tau_lo, tau_hi, v_rst_lo, v_rst_hi) in real units; higher firing rates
#: come from faster membranes and reset potentials closer to threshold.
RateKnobs = tuple[float, float, float, float]

_V_TH = 16.0


#: the most draws ``random_floats`` is asked for at once
_BLOCK = 1 << 16


def random_floats(rng: random.Random, k: int) -> np.ndarray:
    """The next ``k`` values of ``rng.random()`` as a float64 array, exactly,
    leaving ``rng`` where ``k`` calls of ``random()`` would.

    CPython's ``random()`` is MT19937's genrand_res53 (Matsumoto & Nishimura
    1998): two consecutive 32-bit outputs a, b give
    ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``. ``getrandbits(64 * k)`` returns
    the next ``2 * k`` outputs as the little-endian 32-bit words of one int.
    The numerator is below 2**53, so the float arithmetic is exact."""
    words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u4")
    # in place, so that a block holds few temporary arrays at once
    x = (words[0::2] >> 5).astype(np.float64)
    x *= 2.0**26
    x += words[1::2] >> 6
    x *= 2.0**-53
    return x


def _poisson_inputs(rng: random.Random, neuron_ids: range, t_max: int,
                    rate: float, amp: int) -> dict[int, list[tuple[int, int]]]:
    """Each neuron of ``neuron_ids``, in order, drawing its input events
    ``[(t, amp) for t in range(t_max) if rng.random() < rate]``; the draws
    are taken in blocks of at most ``_BLOCK``. A neuron without events gets
    no entry."""
    inputs: dict[int, list[tuple[int, int]]] = {}
    total = len(neuron_ids) * t_max
    for lo in range(0, total, _BLOCK):
        hits = np.flatnonzero(random_floats(rng, min(_BLOCK, total - lo)) < rate)
        for flat in (hits + lo).tolist():
            i, t = divmod(flat, t_max)
            inputs.setdefault(neuron_ids[i], []).append((t, amp))
    return inputs


def rate_knobs_for_level(level: float) -> RateKnobs:
    """Map a scalar in [0, 1] to parameter ranges with monotone firing rate."""
    if not (0.0 <= level <= 1.0):
        raise WorkloadError("rate level must be in [0, 1]")
    tau_hi = 4.0 - 1.8 * level
    tau_lo = max(1.0, tau_hi - 1.0)
    vr_lo = 5.0 * level
    vr_hi = vr_lo + 2.5
    return (tau_lo, tau_hi, vr_lo, vr_hi)


def gen_synthetic(
    n_neurons: int,
    n_synapses: int,
    frac_inhibitory: float = 0.2,
    rate_knobs: RateKnobs | None = None,
    seed: int = 0,
    *,
    t_max: int = 100,
    max_delay: int = 2,
    input_rate: float = 0.05,
    input_amp: float = 18.0,
) -> Network:
    """Random recurrent network with excitatory/inhibitory populations and
    Poisson external input. Deterministic in the seed."""
    _check_horizon(t_max, max_delay)
    _check_rates(input_rate=input_rate)
    if n_neurons < 0 or n_synapses < 0:
        raise WorkloadError("counts must be non-negative")
    if n_neurons == 0:
        if n_synapses:
            raise WorkloadError("synapses require neurons")
        return Network(neurons=[], synapses=[], inputs={}, t_max=t_max, max_delay=max_delay)
    if n_synapses > n_neurons * n_neurons:
        raise WorkloadError("n_synapses exceeds n_neurons**2")
    if not (0.0 <= frac_inhibitory <= 1.0):
        raise WorkloadError("frac_inhibitory must be in [0, 1]")

    knobs = rate_knobs_for_level(0.5) if rate_knobs is None else rate_knobs
    tau_lo, tau_hi, vr_lo, vr_hi = knobs
    rng = random.Random(seed)
    v_th = fx(_V_TH)

    # per neuron, in order: uniform(tau_lo, tau_hi), uniform(vr_lo, vr_hi),
    # random() < frac_inhibitory; uniform(a, b) is a + (b - a) * random()
    neurons = []
    inhibitory = []
    per_block = _BLOCK // 3
    for lo in range(0, n_neurons, per_block):
        u = random_floats(rng, 3 * min(per_block, n_neurons - lo)).reshape(-1, 3)
        taus = tau_lo + (tau_hi - tau_lo) * u[:, 0]
        vrs = np.minimum(vr_lo + (vr_hi - vr_lo) * u[:, 1], _V_TH - 2.0)
        for tau, vr in zip(taus.tolist(), vrs.tolist()):
            vr = fx(vr)
            neurons.append((NeuronParams(tau_m=fx(tau), v_rst=vr, g_l=fx(1.0), v_th=v_th), vr))
        inhibitory.extend((u[:, 2] < frac_inhibitory).tolist())

    synapses = []
    for _ in range(n_synapses):
        src = rng.randrange(n_neurons)
        dst = rng.randrange(n_neurons)
        mag = fx(rng.uniform(1.0, 4.0))
        w = -mag if inhibitory[src] else mag
        synapses.append(Synapse(src=src, dst=dst, weight=w, delay=rng.randint(1, max_delay)))

    inputs = _poisson_inputs(rng, range(n_neurons), t_max, input_rate, fx(input_amp))
    return Network(neurons=neurons, synapses=synapses, inputs=inputs,
                   t_max=t_max, max_delay=max_delay)


def gen_layered(
    layer_sizes: list[int],
    fanin: int,
    seed: int = 0,
    *,
    t_max: int = 100,
    max_delay: int = 1,
    input_rate: float = 0.1,
    input_amp: float = 40.0,
    weight_scale: float = 7.0,
    background_rate: float = 0.05,
    background_amp: float = 12.0,
) -> Network:
    """Feed-forward network; each neuron draws ``fanin`` random presynaptic
    neurons from the previous layer. Acyclic by construction.

    The input layer gets strong Poisson drive; deeper layers get a weak
    background that keeps them near threshold, so synaptic input decides."""
    _check_horizon(t_max, max_delay)
    _check_rates(input_rate=input_rate, background_rate=background_rate)
    if len(layer_sizes) < 2:
        raise WorkloadError("need at least 2 layers")
    if any(sz <= 0 for sz in layer_sizes):
        raise WorkloadError("layer sizes must be positive")
    if fanin < 1 or fanin > min(layer_sizes[:-1]):
        raise WorkloadError("fanin must be in [1, smallest source layer]")

    rng = random.Random(seed)
    v_th = fx(_V_TH)
    params = NeuronParams(tau_m=fx(2.0), v_rst=fx(0.0), g_l=fx(1.0), v_th=v_th)
    n_total = sum(layer_sizes)
    neurons = [(params, 0)] * n_total

    # Weights sized so a modest fraction of a layer firing propagates.
    w_mid = _V_TH * weight_scale / fanin
    starts = [0]
    for sz in layer_sizes:
        starts.append(starts[-1] + sz)

    synapses = []
    for li in range(1, len(layer_sizes)):
        prev_lo, prev_hi = starts[li - 1], starts[li]
        for dst in range(starts[li], starts[li + 1]):
            srcs = rng.sample(range(prev_lo, prev_hi), fanin)
            for src in sorted(srcs):
                w = fx(rng.uniform(0.7 * w_mid, 1.3 * w_mid))
                synapses.append(Synapse(src=src, dst=dst, weight=w,
                                        delay=rng.randint(1, max_delay)))

    inputs = {  # in this order: the input layer draws first
        **_poisson_inputs(rng, range(layer_sizes[0]), t_max, input_rate, fx(input_amp)),
        **_poisson_inputs(rng, range(layer_sizes[0], n_total), t_max, background_rate,
                          fx(background_amp)),
    }

    return Network(neurons=neurons, synapses=synapses, inputs=inputs,
                   t_max=t_max, max_delay=max_delay, layers=list(layer_sizes))


# ---------------------------------------------------------------------------
# Workload file format (JSON, fixed-point values as exact decimal strings)
# ---------------------------------------------------------------------------


def neurons_and_inputs_to_dict(neurons, inputs: dict[int, list[tuple[int, int]]]) -> dict:
    """The ``neurons`` and ``inputs`` sections shared by the workload and the
    compiled-program formats; ``neurons`` holds (NeuronParams, v0) pairs."""
    return {
        "neurons": [
            {"tau_m": to_str(p.tau_m), "v_rst": to_str(p.v_rst),
             "g_l": to_str(p.g_l), "v_th": to_str(p.v_th), "v0": to_str(v0)}
            for p, v0 in neurons
        ],
        "inputs": [
            {"neuron": nid, "timestep": t, "current": to_str(cur)}
            for nid in sorted(inputs)
            for t, cur in inputs[nid]
        ],
    }


@dataclass(frozen=True)
class RecordKind:
    """One kind of record in a workload or program file: the keys it is
    written with, how a parsed record becomes what the loaded object stores,
    and whether a value is such a decoded record. Decoding raises KeyError,
    TypeError or ValueError on a malformed record."""

    name: str
    keys: frozenset[str]
    decode: Callable[[dict], object]
    holds: Callable[[object], bool]


def _neuron(d: dict) -> tuple[NeuronParams, int]:
    return (NeuronParams(tau_m=from_str(d["tau_m"]), v_rst=from_str(d["v_rst"]),
                         g_l=from_str(d["g_l"]), v_th=from_str(d["v_th"])),
            from_str(d["v0"]))


def _input(d: dict) -> tuple[int, tuple[int, int]]:
    nid = d["neuron"]
    if type(nid) is not int:  # 0.0 or false would join neuron 0's events
        raise TypeError(f"input neuron must be an int, got {nid!r}")
    return nid, (d["timestep"], from_str(d["current"]))


NEURON = RecordKind("neuron", frozenset(("g_l", "tau_m", "v0", "v_rst", "v_th")), _neuron,
                    lambda x: type(x) is tuple and len(x) == 2 and type(x[0]) is NeuronParams)
INPUT = RecordKind("input", frozenset(("current", "neuron", "timestep")), _input,
                   lambda x: type(x) is tuple and len(x) == 2 and type(x[1]) is tuple)
SYNAPSE = RecordKind(
    "synapse", frozenset(("delay", "dst", "src", "weight")),
    lambda d: Synapse(src=d["src"], dst=d["dst"], weight=from_str(d["weight"]),
                      delay=d["delay"]),
    lambda x: type(x) is Synapse)


def record_hook(*kinds: RecordKind):
    """A ``json.load`` ``object_hook`` that decodes each object whose key set
    is some kind's ``keys`` as soon as the parser closes it, so the records
    of a large file never exist as dicts all at once. Any other object is
    returned as it is."""
    decoders = {kind.keys: kind.decode for kind in kinds}

    def hook(obj: dict):
        decode = decoders.get(frozenset(obj))
        return obj if decode is None else decode(obj)
    return hook


def records(items, kind: RecordKind) -> list:
    """The list ``items`` of a parsed document as records of ``kind``. A dict
    the hook left (a record with keys added or missing) is decoded here;
    anything else that is not a record of ``kind``, such as a record of
    another kind, raises TypeError."""
    if type(items) is not list:
        raise TypeError(f"{kind.name} records must be a list, got {reprlib.repr(items)}")
    if all(map(kind.holds, items)):
        return items
    items = [kind.decode(x) if type(x) is dict else x for x in items]
    for x in items:
        if not kind.holds(x):
            raise TypeError(f"expected {kind.name} records, got {reprlib.repr(x)}")
    return items


def inputs_by_neuron(events: list) -> dict[int, list[tuple[int, int]]]:
    """Decoded ``INPUT`` records grouped by neuron, each neuron's events in
    file order."""
    inputs: dict[int, list[tuple[int, int]]] = {}
    for nid, event in events:
        inputs.setdefault(nid, []).append(event)
    return inputs


def load_document(path, hook, assemble, error: type[Exception], what: str):
    """``assemble`` of the JSON document at ``path``, parsed with ``hook``.
    A file that is not JSON (not UTF-8, or nested too deeply to parse),
    ``error`` from ``assemble`` and a malformed ``what`` document all raise
    ``error`` naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            return assemble(json.load(f, object_hook=hook))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise error(f"{path}: not valid JSON: {exc}") from exc
        except error as exc:
            raise error(f"{path}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise error(f"{path}: malformed {what} document: {exc}") from exc


def network_to_dict(net: Network) -> dict:
    doc = {
        **neurons_and_inputs_to_dict(net.neurons, net.inputs),
        "synapses": [
            {"src": s.src, "dst": s.dst, "weight": to_str(s.weight), "delay": s.delay}
            for s in net.synapses
        ],
        "t_max": net.t_max,
        "max_delay": net.max_delay,
    }
    if net.layers is not None:
        doc["layers"] = list(net.layers)
    return doc


_WORKLOAD_HOOK = record_hook(NEURON, INPUT, SYNAPSE)


def _network(doc: dict) -> Network:
    net = Network(
        neurons=records(doc["neurons"], NEURON),
        synapses=records(doc["synapses"], SYNAPSE),
        inputs=inputs_by_neuron(records(doc["inputs"], INPUT)),
        t_max=doc["t_max"],
        max_delay=doc["max_delay"],
        layers=list(doc["layers"]) if "layers" in doc else None,
    )
    net.validate()
    return net


def save_workload(net: Network, path) -> None:
    write_json(path, network_to_dict(net))


def load_workload(path) -> Network:
    return load_document(path, _WORKLOAD_HOOK, _network, WorkloadError, "workload")
