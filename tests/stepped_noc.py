"""A ``MeshNoc`` driven one cycle at a time, as the network unit tests drive
it. The engine calls ``begin_cycle``/``end_cycle`` itself and skips idle
cycles; these conveniences exist only for tests.

Unless given a placement, it places core ``y * w + x`` on cell ``(x, y)``
(``row_major``), and the unit tests name cells and let ``core_at`` turn each
into a core id."""

from __future__ import annotations

from snnmesh.noc import MeshNoc, NocError, Packet


def row_major(grid: tuple[int, int]) -> list[tuple[int, int]]:
    """One core per cell, numbered row by row."""
    w, h = grid
    return [(x, y) for y in range(h) for x in range(w)]


def core_at(xy: tuple[int, int], w: int) -> int:
    """The core ``row_major`` places on cell ``xy`` of a ``w``-wide grid."""
    return xy[1] * w + xy[0]


class SteppedNoc(MeshNoc):
    def __init__(self, grid: tuple[int, int],
                 placement: list[tuple[int, int]] | None = None, **kwargs):
        super().__init__(grid, row_major(grid) if placement is None else placement,
                         **kwargs)
        self.last_delivered: list[Packet] = []  # deliveries of the latest cycle

    def begin_cycle(self, cycle: int) -> list[Packet]:
        self.last_delivered = super().begin_cycle(cycle)
        return self.last_delivered

    def eject(self, at: tuple[int, int]) -> list[Packet]:
        """Packets delivered to cell ``at`` during the current cycle."""
        core = self.placement.index(tuple(at))
        return [p for p in self.last_delivered if p.dst_core == core]

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
