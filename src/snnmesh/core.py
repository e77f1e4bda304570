"""The neuromorphic core: compute engine over a neuron slice, its input store
(receptions keyed by the timestep that consumes them, inside the buffer
window; the speculative store adds checkpoints and rollback on top), and the
dependency tables of dependency-driven forwarding. Which store and which
notification routes a core gets is up to the coordination protocol that
builds it (``engine.PROTOCOLS``)."""

from __future__ import annotations

import numpy as np

from .model import lif_step_arrays
from .noc import FLAG_FINISH, FLAG_START, DepPacket, Packet, SpikePacket

# The work counters every core keeps, in report order.
COUNTERS = ("neuron_updates", "rollback_updates", "synapse_acc", "buffer_reads",
            "buffer_writes", "scheduler_events", "saturations")


class ProtocolFault(RuntimeError):
    """A packet violated the protocol (bad dep id, impossible rollback)."""


class DependencyTables:
    """Last FINISH seen per pre-dependency and last START per post-dependency.
    Entries only ever grow; updates take the max."""

    __slots__ = ("pre_finish", "post_start")

    def __init__(self, n_pre: int, n_post: int):
        # Nothing has finished yet; everyone is allowed to start t=0.
        self.pre_finish = [-1] * n_pre
        self.post_start = [0] * n_post

    def update(self, flag: int, dep_id: int, timestep: int) -> None:
        table = self.pre_finish if flag == FLAG_FINISH else self.post_start
        if not (0 <= dep_id < len(table)):
            raise ProtocolFault(
                f"dep id {dep_id} outside table of length {len(table)}"
            )
        if timestep > table[dep_id]:
            table[dep_id] = timestep


def advance_condition(tables: DependencyTables, t_cur: int, m: int) -> bool:
    """May the core begin timestep t_cur + 1?

    Requires every pre-dependency to have finished t_cur (its spikes have
    provably landed) and every post-dependency to have started at least
    t_cur - m + 2 (it still has buffer room for spikes we will emit).
    """
    for t in tables.pre_finish:
        if t < t_cur:
            return False
    bound = t_cur - m + 1
    for t in tables.post_start:
        if t <= bound:
            return False
    return True


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

    __slots__ = ("n_local", "window", "recv", "consumed", "violations")

    def __init__(self, n_local: int, window: int | None):
        self.n_local = n_local
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

    def take(self, t: int, v: np.ndarray) -> np.ndarray:
        """Read timestep t's input: the sum of its receptions per neuron."""
        self.consumed = t
        rows = self.recv.get(t, ())
        if len(rows) * 8 < self.n_local:
            # few receptions: converting a list of n_local ints would cost
            # more than indexing the array once per reception
            acc = np.zeros(self.n_local, dtype=np.int64)
            for tgt, w, _sender in rows:
                acc[tgt] += w
            return acc
        acc = [0] * max(self.n_local, 1)
        for tgt, w, _sender in rows:
            acc[tgt] += w
        return np.array(acc, dtype=np.int64)

    def seal(self, t: int, sent: list[SpikePacket]) -> None:
        """Timestep t is committed; its receptions are no longer needed."""
        self.recv.pop(t, None)


class SpeculativeStore(InputStore):
    """Input store of a speculative (``se``) core. It has no window: every
    reception is kept, and one for a timestep already read names the
    timestep to roll back to. It adds the checkpoint taken at the entry of
    every timestep begun and the spikes sent at every timestep finished, all
    since the last epoch seal.

    The sending timestep of a reception is -1 for a spike from another core
    and the core's own timestep for a local synapse, so a rollback can drop
    exactly the local sends it undoes and keep every other reception.
    """

    __slots__ = ("checkpoints", "sent")

    def __init__(self, n_local: int, v0: np.ndarray):
        super().__init__(n_local, None)
        self.checkpoints: dict[int, np.ndarray] = {0: v0.copy()}
        self.sent: dict[int, list[SpikePacket]] = {}

    def receive(self, consuming_t: int, local_idx: int, weight: int,
                sender_t: int = -1) -> int | None:
        """Record a reception; returns the timestep to roll back to when its
        consuming timestep has already been read, else None."""
        self.recv.setdefault(consuming_t, []).append((local_idx, weight, sender_t))
        return consuming_t if consuming_t <= self.consumed else None

    def take(self, t: int, v: np.ndarray) -> np.ndarray:
        """Checkpoint ``v`` at the entry of ``t`` and sum t's receptions."""
        self.checkpoints[t] = v.copy()
        return super().take(t, v)

    def seal(self, t: int, sent: list[SpikePacket]) -> None:
        self.sent[t] = sent

    def rollback(self, tc: int) -> tuple[np.ndarray, list[SpikePacket]]:
        """Forget timesteps >= tc: returns the state at the entry of tc and
        the spikes sent since, oldest first."""
        for t in [t for t in self.checkpoints if t > tc]:
            del self.checkpoints[t]
        undone = [pkt for t in sorted(t for t in self.sent if t >= tc)
                  for pkt in self.sent.pop(t)]
        # own local sends from timesteps >= tc consume after tc (delay >= 1)
        for c, rows in self.recv.items():
            if c > tc:
                self.recv[c] = [r for r in rows if r[2] < tc]
        self.consumed = tc - 1
        return self.checkpoints[tc].copy(), undone

    def epoch_reset(self, new_start: int, v: np.ndarray) -> None:
        """Seal an epoch: no rollback can reach before ``new_start`` again."""
        self.checkpoints = {new_start: v.copy()}
        self.sent = {}
        self.recv = {c: rows for c, rows in self.recv.items() if c >= new_start}


class NeuromorphicCore:
    """One core's run state over its shared, read-only ``image``
    (``compiler.CoreImage``).

    ``inputs`` is the core's input store (``InputStore`` or
    ``SpeculativeStore``); the core sends START/FINISH notifications along
    the image's routes only if ``notifies``."""

    def __init__(self, image, inputs, notifies: bool, t_max: int,
                 c_update: int, c_spike: int):
        self.image = image
        self.cid = image.cid
        self.neuron_ids = image.neuron_ids
        self.n_local = len(image.neuron_ids)
        self.v = image.v0.copy()
        self.inputs = inputs
        self.start_routes = image.start_routes if notifies else ()
        self.finish_routes = image.finish_routes if notifies else ()
        self.t_max = t_max
        self.c_update = c_update
        self.c_spike = c_spike

        self.tables = DependencyTables(len(self.start_routes), len(self.finish_routes))

        self.t_cur = -1
        self.frontier = -1  # highest timestep ever completed
        self.gen = 0  # invalidates in-flight completion events after rollback
        self.computing: tuple | None = None  # (t, start_cycle, v_new, fired, cost)

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

    def _notifications(self, routes, flag: int, t: int) -> list[DepPacket]:
        self.counters["scheduler_events"] += len(routes)
        cid = self.cid
        return [DepPacket(cid, core, t, flag, dep_id) for core, dep_id in routes]

    # -- packet handlers ----------------------------------------------------

    def on_dep(self, pkt: DepPacket) -> None:
        self.counters["scheduler_events"] += 1
        self.tables.update(pkt.flag, pkt.dep_id, pkt.timestep)

    def on_spike(self, pkt: SpikePacket) -> int | None:
        """Buffer an arriving spike. Returns the timestep to roll back to
        when a speculative core has already read that spike's timestep,
        otherwise None."""
        tgt, w = self.image.in_synapses[pkt.synapse_id]
        if pkt.anti:
            w = -w
        self.counters["synapse_acc"] += 1
        self.counters["buffer_writes"] += 1
        return self.inputs.receive(pkt.timestep + pkt.delay, tgt, w)

    # -- timestep execution --------------------------------------------------

    def begin(self, cycle: int) -> tuple[int, list[DepPacket]]:
        """Start computing timestep t_cur + 1. Returns (cost in cycles, START
        packets to inject). The full result is computed eagerly; it becomes
        visible only at completion."""
        img = self.image
        t = self.t_cur + 1
        acc = self.inputs.take(t, self.v)
        self.counters["buffer_reads"] += self.n_local

        ext = img.external[t]
        if ext is not None:
            np.add.at(acc, ext[0], ext[1])

        if self.n_local:
            v_new, fired_mask, clamps = lif_step_arrays(
                self.v, acc[: self.n_local], img.tau, img.g, img.vr, img.vth,
                img.lif_bounds)
            self.counters["saturations"] += clamps
            fired = np.nonzero(fired_mask)[0].tolist()
        else:
            v_new, fired = self.v, []

        emissions = sum(
            len(img.fanout_remote[i]) + len(img.fanout_local[i]) for i in fired
        )
        cost = max(1, self.c_update * self.n_local + self.c_spike * emissions)

        self.computing = (t, cycle, v_new, fired, cost)
        return cost, self._notifications(self.start_routes, FLAG_START, t)

    def finish(self, cycle: int) -> list[Packet]:
        """Commit the pending timestep: apply states, emit spike packets and
        FINISH notifications, seal the timestep in the input store."""
        t, start_cycle, v_new, fired, cost = self.computing
        self.computing = None
        self.v = v_new

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
        fanout_local, fanout_remote = self.image.fanout_local, self.image.fanout_remote
        for i in fired:
            for tgt, w, delay in fanout_local[i]:
                self.counters["synapse_acc"] += 1
                self.counters["buffer_writes"] += 1
                self.inputs.receive(t + delay, tgt, w, t)
            for dst_core, syn_id, delay in fanout_remote[i]:
                spikes.append(SpikePacket(cid, dst_core, t, syn_id, delay))
        self.inputs.seal(t, spikes)

        self.t_cur = t
        return spikes + self._notifications(self.finish_routes, FLAG_FINISH, t)

    # -- speculative rollback -------------------------------------------------

    def rollback(self, tc: int, cycle: int) -> list[SpikePacket]:
        """Restore the checkpoint at entry of ``tc`` and cancel everything
        sent for timesteps >= tc. Returns the cancellation packets to
        inject."""
        if tc not in self.inputs.checkpoints:
            raise ProtocolFault(
                f"core {self.cid}: rollback to {tc} outside the checkpoint window"
            )
        self.rollbacks += 1
        if self.computing is not None:
            _t, start_cycle, _v, _f, _c = self.computing
            self.rollback_cycles += cycle - start_cycle
            self.computing = None
            self.gen += 1

        self.v, undone = self.inputs.rollback(tc)
        anti = [SpikePacket(self.cid, pkt.dst_core, pkt.timestep, pkt.synapse_id,
                            pkt.delay, anti=True)
                for pkt in undone]
        for t in [t for t in self.raster if t >= tc]:
            del self.raster[t]
        self.t_cur = tc - 1
        return anti

    def epoch_reset(self, new_start: int) -> None:
        """Seal an epoch after the periodic barrier: rollbacks can no longer
        reach before ``new_start``."""
        self.inputs.epoch_reset(new_start, self.v)
