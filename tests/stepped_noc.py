"""A ``MeshNoc`` driven one cycle at a time, as the network unit tests drive
it. The engine calls ``begin_cycle``/``end_cycle`` itself and skips idle
cycles; these conveniences exist only for tests."""

from __future__ import annotations

from snnmesh.noc import MeshNoc, NocError, Packet


class SteppedNoc(MeshNoc):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.last_delivered: list[Packet] = []  # deliveries of the latest cycle

    def begin_cycle(self, cycle: int) -> list[Packet]:
        self.last_delivered = super().begin_cycle(cycle)
        return self.last_delivered

    def eject(self, at: tuple[int, int]) -> list[Packet]:
        """Packets delivered to ``at`` during the current cycle."""
        at = tuple(at)
        return [p for p in self.last_delivered if tuple(p.dst_xy) == at]

    def busy(self) -> bool:
        return self.queued > 0 or self.next_pending_cycle() is not None

    def step(self, cycle: int) -> list[Packet]:
        delivered = self.begin_cycle(cycle)
        self.end_cycle(cycle)
        return delivered

    def drain(self, start_cycle: int, limit: int = 10_000_000) -> tuple[int, list[Packet]]:
        """Run to quiescence; returns (final cycle, all deliveries)."""
        cycle = start_cycle
        out = []
        while self.busy():
            out.extend(self.step(cycle))
            cycle += 1
            if cycle - start_cycle > limit:
                raise NocError("network failed to quiesce")
        return cycle, out
