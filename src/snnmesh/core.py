"""The neuromorphic core: compute engine over a neuron slice, its input store
(receptions keyed by the timestep that consumes them, inside the buffer
window; the speculative store adds checkpoints and rollback on top), and the
last START/FINISH heard from each dependency. Which store a core gets, and
whether START/FINISH notifications are sent at all, is up to the
coordination protocol (``engine.PROTOCOLS``). No store keeps the spikes
sent: a rollback derives the ones it cancels from the raster.

A timestep is begun, evaluated and finished. ``begin`` reads its input, the
store's receptions and the program's external input in the same shape, and
returns its earliest completion, the update cost alone; ``evaluate`` computes
the step and its true completion; ``finish`` commits it. The engine evaluates
a step when its earliest completion comes, unless its protocol did so at
once, so a rollback that cancels it before then cancels a step that was never
computed. Nothing a begun step reads can change without cancelling it, which
makes the late evaluation exact."""

from __future__ import annotations

import numpy as np

from .model import lif_step_arrays
from .noc import FLAG_FINISH, SpikePacket

# The work counters every core keeps, in report order. Each reception is
# one synapse accumulation and one buffer write, so ``synapse_acc`` counts
# both; the report writes it under both keys.
COUNTERS = ("neuron_updates", "rollback_updates", "synapse_acc", "buffer_reads",
            "scheduler_events", "saturations")


class ProtocolFault(RuntimeError):
    """A packet violated the protocol (a notification from a core that is
    not a dependency, an impossible rollback)."""


def input_sum(rows, n_local: int) -> np.ndarray:
    """The sum of receptions ``(local target, weight, sender)`` per neuron;
    a timestep's external input comes as receptions with sender -1."""
    if len(rows) * 2 < n_local:
        # few receptions: adding each through a memoryview of the array
        # costs less than converting a list of n_local ints
        acc = np.zeros(n_local, dtype=np.int64)
        view = acc.data
        for tgt, w, _sender in rows:
            view[tgt] += w
        return acc
    acc = [0] * n_local
    for tgt, w, _sender in rows:
        acc[tgt] += w
    return np.array(acc, dtype=np.int64)


class InputStore:
    """Input store of a non-speculative core: each reception once, as
    ``(local target, weight, sending timestep)`` under the timestep that
    consumes it.

    A reception is accepted iff its consuming timestep lies in the window
    ``consumed < consuming_t <= consumed + window``, where ``consumed`` is
    the last timestep read and ``window`` is the ``max_delay + m - 1``
    timesteps a core buffers. Any other reception would be lost or overwrite
    live input on the chip, so it is counted in ``violations`` and dropped.
    """

    __slots__ = ("window", "recv", "consumed", "violations")

    def __init__(self, window: int | None):
        self.window = window
        self.recv: dict[int, list[tuple[int, int, int]]] = {}
        self.consumed = -1  # highest timestep whose input has been read
        self.violations = 0

    def receive(self, consuming_t: int, local_idx: int, weight: int,
                sender_t: int = -1) -> int | None:
        """Buffer one reception; a non-speculative core never rolls back."""
        if self.consumed < consuming_t <= self.consumed + self.window:
            self.recv.setdefault(consuming_t, []).append((local_idx, weight, sender_t))
        else:
            self.violations += 1
        return None

    def take(self, t: int, state) -> list[tuple[int, int, int]]:
        """Read timestep t's input: mark it consumed and hand over its
        receptions, which the store forgets. No reception for t is added
        once read: it is a violation. ``state`` is the core's committed
        state at the entry of t."""
        self.consumed = t
        return self.recv.pop(t, ())


class SpeculativeStore(InputStore):
    """Input store of a speculative (``se``) core. It has no window: every
    reception is kept, and one for a timestep already read names the
    timestep to roll back to. It adds the checkpoint taken at the entry of
    every timestep begun since the last epoch seal.

    The sending timestep of a reception is -1 for a spike from another core
    and the core's own timestep for a local synapse, so a rollback can drop
    exactly the local sends it undoes and keep every other reception.
    """

    __slots__ = ("checkpoints",)

    def __init__(self):
        super().__init__(None)
        # a core's states are never written in place: a checkpoint keeps a
        # reference. Only a timestep read can be rolled back to, so the
        # checkpoints are those taken since the last epoch seal.
        self.checkpoints: dict[int, tuple] = {}

    def receive(self, consuming_t: int, local_idx: int, weight: int,
                sender_t: int = -1) -> int | None:
        """Record a reception; returns the timestep to roll back to when its
        consuming timestep has already been read, else None."""
        self.recv.setdefault(consuming_t, []).append((local_idx, weight, sender_t))
        return consuming_t if consuming_t <= self.consumed else None

    def take(self, t: int, state) -> list[tuple[int, int, int]]:
        """Checkpoint ``state`` at the entry of ``t`` and read t's input,
        which stays stored: a rollback to t reads it again."""
        self.checkpoints[t] = state
        self.consumed = t
        return self.recv.get(t, ())

    def rollback(self, tc: int) -> tuple:
        """Forget timesteps >= tc: returns the state at the entry of tc."""
        for t in [t for t in self.checkpoints if t > tc]:
            del self.checkpoints[t]
        # own local sends from timesteps >= tc consume after tc (delay >= 1)
        for c, rows in self.recv.items():
            if c > tc:
                self.recv[c] = [r for r in rows if r[2] < tc]
        self.consumed = tc - 1
        return self.checkpoints[tc]

    def epoch_reset(self, new_start: int) -> None:
        """Seal an epoch: no rollback can reach before ``new_start`` again."""
        self.checkpoints = {}
        self.recv = {c: rows for c, rows in self.recv.items() if c >= new_start}


class NeuromorphicCore:
    """One core's run state over its shared, read-only ``image``
    (``compiler.CoreImage``).

    ``inputs`` is the core's input store (``InputStore`` or
    ``SpeculativeStore``). ``pre_finish`` and ``post_start`` hold, per
    pre- and post-dependency core id, the last FINISH and START heard from
    it; they only ever grow."""

    def __init__(self, image, inputs, t_max: int, c_update: int, c_spike: int):
        self.image = image
        self.cid = image.cid
        self.neuron_ids = image.neuron_ids
        self.n_local = len(image.neuron_ids)
        # the committed state: potentials (replaced by each step, never
        # written in place) and their (min, max), which begin's range proof
        # reads
        self.v = image.v0
        self.v_range = (int(self.v.min()), int(self.v.max())) if self.n_local else None
        self.inputs = inputs
        self.t_max = t_max
        self.c_update = c_update
        self.c_spike = c_spike
        # nothing has finished yet; everyone is allowed to start t=0
        self.pre_finish = dict.fromkeys(image.pre, -1)
        self.post_start = dict.fromkeys(image.post, 0)

        self.t_cur = -1
        self.frontier = -1  # highest timestep ever completed
        self.gen = 0  # invalidates in-flight completion events after rollback
        # timestep t_cur + 1 once begun: (start_cycle, receptions read, step),
        # step None until evaluated, then (v_new, its range, fired, cost)
        self.computing: tuple | None = None

        self.raster: dict[int, list[int]] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.busy_cycles = 0
        self.rollback_cycles = 0
        self.rollbacks = 0

    # -- helpers -----------------------------------------------------------

    @property
    def started(self) -> int:
        """Highest timestep this core has begun computing."""
        return self.t_cur + 1 if self.computing is not None else self.t_cur

    def may_advance(self) -> bool:
        """Is the core idle with timestep t_cur + 1 still to run? The
        protocol adds its own admission rule on top."""
        return self.computing is None and self.t_cur + 1 < self.t_max

    @property
    def done(self) -> bool:
        """Idle with every timestep committed."""
        return self.computing is None and self.t_cur + 1 >= self.t_max

    # -- packet handlers ----------------------------------------------------

    def on_dep(self, src_core: int, flag: int, timestep: int) -> None:
        """Record a FINISH from a pre-dependency or a START from a
        post-dependency, whether a ``DepPacket`` or a spike carried it; a
        stale one changes nothing."""
        self.counters["scheduler_events"] += 1
        table = self.pre_finish if flag == FLAG_FINISH else self.post_start
        last = table.get(src_core)
        if last is None:
            raise ProtocolFault(
                f"core {self.cid}: notification from core {src_core}, "
                "which is not a dependency")
        if timestep > last:
            table[src_core] = timestep

    def on_spike(self, pkt: SpikePacket) -> int | None:
        """Buffer an arriving spike. Returns the timestep to roll back to
        when a speculative core has already read that spike's timestep,
        otherwise None."""
        tgt, w = self.image.in_synapses[pkt.synapse_id]
        if pkt.anti:
            w = -w
        self.counters["synapse_acc"] += 1
        return self.inputs.receive(pkt.timestep + pkt.delay, tgt, w)

    # -- timestep execution --------------------------------------------------

    def begin(self, cycle: int) -> int:
        """Start timestep t_cur + 1: read its receptions and its external
        input. Returns its earliest cost in cycles, the update cost alone;
        ``evaluate`` computes the step."""
        t = self.t_cur + 1
        rows = self.inputs.take(t, (self.v, self.v_range))
        external = self.image.external[t]
        if external:  # a new list: the store's own is never written here
            rows = [*rows, *external]
        self.counters["buffer_reads"] += self.n_local
        self.computing = (cycle, rows, None)
        return max(1, self.c_update * self.n_local)

    def evaluate(self) -> int:
        """Compute the begun timestep, once: input sum, LIF step, fired set
        and cost. Returns the cycle it completes at."""
        start_cycle, rows, step = self.computing
        if step is None:
            img = self.image
            if self.n_local:
                v_new, fired_mask, clamps = lif_step_arrays(
                    self.v, input_sum(rows, self.n_local), img.tau, img.g, img.vr,
                    img.vth, img.lif_bounds, self.v_range)
                self.counters["saturations"] += clamps
                fired = np.nonzero(fired_mask)[0].tolist()
                v_range = (int(v_new.min()), int(v_new.max()))
            else:
                v_new, v_range, fired = self.v, self.v_range, []
            emissions = sum(len(img.fanout.get(i, ())) for i in fired)
            cost = max(1, self.c_update * self.n_local + self.c_spike * emissions)
            step = (v_new, v_range, fired, cost)
            self.computing = (start_cycle, rows, step)
        return start_cycle + step[3]

    def finish(self, cycle: int) -> list[SpikePacket]:
        """Commit the pending timestep: apply states, record its fired set
        in the raster. Returns the spike packets to inject."""
        self.evaluate()
        t = self.t_cur + 1
        start_cycle, _rows, (self.v, self.v_range, fired, _cost) = self.computing
        self.computing = None

        if t <= self.frontier:  # recomputing after a rollback
            self.rollback_cycles += cycle - start_cycle
            self.counters["rollback_updates"] += self.n_local
        else:
            self.busy_cycles += cycle - start_cycle
            self.frontier = t
        self.counters["neuron_updates"] += self.n_local

        self.raster[t] = fired
        spikes: list[SpikePacket] = []
        cid = self.cid
        fanout, in_synapses = self.image.fanout, self.image.in_synapses
        for i in fired:
            for dst_core, syn_id, delay in fanout.get(i, ()):
                if dst_core == cid:  # a local synapse: a reception, no packet
                    tgt, w = in_synapses[syn_id]
                    self.counters["synapse_acc"] += 1
                    self.inputs.receive(t + delay, tgt, w, t)
                else:
                    spikes.append(SpikePacket(cid, dst_core, t, syn_id, delay))

        self.t_cur = t
        return spikes

    # -- speculative rollback -------------------------------------------------

    def rollback(self, tc: int, cycle: int) -> list[SpikePacket]:
        """Restore the checkpoint at entry of ``tc`` and cancel everything
        sent for timesteps >= tc. Returns the cancellation packets to
        inject: for each undone timestep, oldest first, the spikes ``finish``
        sent, rebuilt from its raster entry in the same order."""
        if tc not in self.inputs.checkpoints:
            raise ProtocolFault(
                f"core {self.cid}: rollback to {tc} outside the checkpoint window"
            )
        self.rollbacks += 1
        if self.computing is not None:
            self.rollback_cycles += cycle - self.computing[0]
            self.computing = None
            self.gen += 1

        self.v, self.v_range = self.inputs.rollback(tc)
        cid, fanout = self.cid, self.image.fanout
        # the raster holds every timestep committed: tc .. t_cur are undone
        anti = [SpikePacket(cid, dst_core, t, syn_id, delay, anti=True)
                for t in range(tc, self.t_cur + 1) for i in self.raster.pop(t)
                for dst_core, syn_id, delay in fanout.get(i, ()) if dst_core != cid]
        self.t_cur = tc - 1
        return anti

    def epoch_reset(self, new_start: int) -> None:
        """Seal an epoch after the periodic barrier: rollbacks can no longer
        reach before ``new_start``."""
        self.inputs.epoch_reset(new_start)
