"""The mesh NoC's router logic as it stood before the one-pass arbiter:
three passes per router (nominate through ``_eligible``, group nominees by
output port, rescan ports to attribute stalls) and a FINISH mask that scans
every queue on the port. Test-only: the differential tests drive it and
``snnmesh.noc.MeshNoc`` with the same packets and require identical results."""

from __future__ import annotations

import heapq
from collections import deque

from snnmesh.noc import (
    DEP,
    FLAG_FINISH,
    PORT_E,
    PORT_LOCAL,
    PORT_N,
    PORT_S,
    PORT_W,
    SPIKE,
    SYNC,
    NocError,
    Packet,
    route_xy,
    vc_for_packet,
)

# output port -> (dx, dy, input port seen by the neighbour)
_LINKS = {
    PORT_E: (1, 0, PORT_W),
    PORT_W: (-1, 0, PORT_E),
    PORT_N: (0, 1, PORT_S),
    PORT_S: (0, -1, PORT_N),
}


class _Router:
    __slots__ = ("coord", "ports", "vc_rr", "out_rr", "reserved", "next_free",
                 "resident", "port_count", "grants", "occ_hist",
                 "_occ_last_cycle")

    def __init__(self, coord: tuple[int, int], n_vc_total: int):
        self.coord = coord
        self.ports = [[deque() for _ in range(n_vc_total)] for _ in range(5)]
        self.vc_rr = [0] * 5
        self.out_rr = [0] * 5
        self.reserved = [[0] * n_vc_total for _ in range(5)]
        self.next_free = [0] * 5
        self.resident = 0
        self.port_count = [0] * 5
        self.grants = 0
        self.occ_hist: dict[int, int] = {}
        self._occ_last_cycle = 0

    def occ_change(self, delta: int, cycle: int) -> None:
        if cycle > self._occ_last_cycle:
            self.occ_hist[self.resident] = (
                self.occ_hist.get(self.resident, 0) + cycle - self._occ_last_cycle
            )
            self._occ_last_cycle = cycle
        self.resident += delta


class ReferenceNoc:
    """The network advances only through explicit cycle calls from the engine
    clock; everything is deterministic given the injection order."""

    def __init__(self, grid: tuple[int, int], n_vc: int = 4, cycles_per_hop: int = 2,
                 fifo_depth: int = 4, inter_cluster_slowdown: int = 1,
                 cluster_size: int = 2):
        w, h = grid
        if w < 1 or h < 1:
            raise NocError("grid must be at least 1x1")
        if n_vc < 1:
            raise NocError("need at least one data VC")
        self.grid = grid
        self.n_vc = n_vc
        self.n_vc_total = n_vc + 1  # data VCs plus the reserved control VC
        self.cycles_per_hop = cycles_per_hop
        self.fifo_depth = fifo_depth
        self.slowdown = max(1, inter_cluster_slowdown)
        self.cluster_size = max(1, cluster_size)
        self.routers = [_Router((x, y), self.n_vc_total)
                        for y in range(h) for x in range(w)]
        # cycle -> ordered events; each event is ("hop", ridx, port, vc, pkt)
        # or ("deliver", pkt)
        self._pending: dict[int, list] = {}
        self._pending_heap: list[int] = []
        self.in_flight = {SPIKE: 0, DEP: 0, SYNC: 0}
        self.injected = {SPIKE: 0, DEP: 0, SYNC: 0}
        self.delivered = {SPIKE: 0, DEP: 0, SYNC: 0}
        self.hops = 0
        self.blocked = {SPIKE: 0, DEP: 0, SYNC: 0}
        self._delivered_now: dict[tuple[int, int], list[Packet]] = {}
        self._queued = 0  # packets sitting in router FIFOs

    # -- helpers ----------------------------------------------------------

    def _ridx(self, xy: tuple[int, int]) -> int:
        return xy[1] * self.grid[0] + xy[0]

    def _cluster(self, xy: tuple[int, int]) -> tuple[int, int]:
        return (xy[0] // self.cluster_size, xy[1] // self.cluster_size)

    def _hop_cycles(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        if self.slowdown > 1 and self._cluster(a) != self._cluster(b):
            return self.cycles_per_hop * self.slowdown
        return self.cycles_per_hop

    def _schedule(self, cycle: int, event) -> None:
        bucket = self._pending.get(cycle)
        if bucket is None:
            self._pending[cycle] = [event]
            heapq.heappush(self._pending_heap, cycle)
        else:
            bucket.append(event)

    # -- public surface ----------------------------------------------------

    def inject(self, at: tuple[int, int], packet: Packet, cycle: int) -> None:
        packet.validate()
        if tuple(at) != tuple(packet.src_xy):
            raise NocError(
                f"inject at {at} but packet originates at {packet.src_xy}"
            )
        route_xy(packet.src_xy, packet.dst_xy, self.grid)  # bounds check
        packet.vc = vc_for_packet(packet, self.n_vc)
        r = self.routers[self._ridx(at)]
        r.ports[PORT_LOCAL][packet.vc].append(packet)
        r.port_count[PORT_LOCAL] += 1
        r.occ_change(+1, cycle)
        self._queued += 1
        self.injected[packet.kind] += 1
        self.in_flight[packet.kind] += 1

    def eject(self, at: tuple[int, int]) -> list[Packet]:
        """Packets delivered to ``at`` during the current cycle."""
        return self._delivered_now.get(tuple(at), [])

    def busy(self) -> bool:
        return self._queued > 0 or bool(self._pending)

    def next_pending_cycle(self) -> int | None:
        while self._pending_heap:
            c = self._pending_heap[0]
            if c in self._pending:
                return c
            heapq.heappop(self._pending_heap)
        return None

    def begin_cycle(self, cycle: int) -> list[Packet]:
        """Land in-flight packets: hops enter downstream FIFOs, ejections are
        handed to the caller in deterministic order."""
        self._delivered_now = {}
        events = self._pending.pop(cycle, None)
        if not events:
            return []
        delivered = []
        for ev in events:
            if ev[0] == "hop":
                _, ridx, port, vc, pkt = ev
                r = self.routers[ridx]
                r.ports[port][vc].append(pkt)
                r.port_count[port] += 1
                r.reserved[port][vc] -= 1
                r.occ_change(+1, cycle)
                self._queued += 1
            else:
                pkt = ev[1]
                delivered.append(pkt)
                self.delivered[pkt.kind] += 1
                self.in_flight[pkt.kind] -= 1
                self._delivered_now.setdefault(tuple(pkt.dst_xy), []).append(pkt)
        return delivered

    def end_cycle(self, cycle: int) -> None:
        """One arbitration round per input port of every busy router."""
        if self._queued == 0:
            return
        for r in self.routers:
            if r.resident:
                self._arbitrate(r, cycle)

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

    # -- arbitration -------------------------------------------------------

    def _finish_masked(self, r: _Router, port: int, pkt: Packet) -> bool:
        """A FINISH may not pass a resident spike from the same source with a
        timestep it claims to complete."""
        t = pkt.body.timestep
        src = pkt.src_xy
        for q in r.ports[port]:
            for other in q:
                if (other.kind == SPIKE and other.src_xy == src
                        and other.body.timestep <= t):
                    return True
        return False

    def _eligible(self, r: _Router, port: int, pkt: Packet, out: int,
                  cycle: int) -> bool:
        if pkt.kind == DEP and pkt.body.flag == FLAG_FINISH:
            if self._finish_masked(r, port, pkt):
                return False
        if out == PORT_LOCAL:
            return True
        if cycle < r.next_free[out]:
            return False
        dx, dy, in_port = _LINKS[out]
        nxt = self.routers[self._ridx((r.coord[0] + dx, r.coord[1] + dy))]
        q = nxt.ports[in_port][pkt.vc]
        if len(q) + nxt.reserved[in_port][pkt.vc] >= self.fifo_depth:
            return False
        return True

    def _arbitrate(self, r: _Router, cycle: int) -> None:
        n_q = self.n_vc_total
        cx, cy = r.coord
        port_count = r.port_count
        # Phase 1: each input port nominates one eligible VC head.
        nominees: list[tuple[int, int, Packet, int]] = []  # (port, vc, pkt, out)
        for port in range(5):
            if not port_count[port]:
                continue
            queues = r.ports[port]
            start = r.vc_rr[port]
            for k in range(n_q):
                vc = start + k
                if vc >= n_q:
                    vc -= n_q
                q = queues[vc]
                if not q:
                    continue
                pkt = q[0]
                dx, dy = pkt.dst_xy
                if dx > cx:
                    out = PORT_E
                elif dx < cx:
                    out = PORT_W
                elif dy > cy:
                    out = PORT_N
                elif dy < cy:
                    out = PORT_S
                else:
                    out = PORT_LOCAL
                if self._eligible(r, port, pkt, out, cycle):
                    nominees.append((port, vc, pkt, out))
                    break

        # Phase 2: one winner per output port, round-robin over input ports.
        granted: list[tuple[int, int, Packet, int]]
        if len(nominees) <= 1:
            granted = nominees
            if nominees:
                port, _vc, _pkt, out = nominees[0]
                r.out_rr[out] = (port + 1) % 5
        else:
            by_out: dict[int, list[tuple[int, int, Packet]]] = {}
            for port, vc, pkt, out in nominees:
                by_out.setdefault(out, []).append((port, vc, pkt))
            granted = []
            for out in sorted(by_out):
                contenders = by_out[out]
                if len(contenders) > 1:
                    ptr = r.out_rr[out]
                    winner = min(contenders, key=lambda c: (c[0] - ptr) % 5)
                else:
                    winner = contenders[0]
                granted.append((winner[0], winner[1], winner[2], out))
                r.out_rr[out] = (winner[0] + 1) % 5

        # A port with resident packets that moved nothing this cycle is
        # stalled; attribute the stall to its round-robin-first head.
        if granted:
            granted_ports = {port for port, _vc, _p, _o in granted}
        else:
            granted_ports = ()
        blocked = self.blocked
        for port in range(5):
            if not port_count[port] or port in granted_ports:
                continue
            queues = r.ports[port]
            start = r.vc_rr[port]
            for k in range(n_q):
                vc = start + k
                if vc >= n_q:
                    vc -= n_q
                if queues[vc]:
                    blocked[queues[vc][0].kind] += 1
                    break

        for port, vc, pkt, out in granted:
            r.ports[port][vc].popleft()
            r.port_count[port] -= 1
            r.occ_change(-1, cycle)
            self._queued -= 1
            r.vc_rr[port] = (vc + 1) % n_q
            r.grants += 1
            self.hops += 1
            if out == PORT_LOCAL:
                self._schedule(cycle + self.cycles_per_hop, ("deliver", pkt))
            else:
                dx, dy, in_port = _LINKS[out]
                nxt_xy = (cx + dx, cy + dy)
                nidx = self._ridx(nxt_xy)
                nxt = self.routers[nidx]
                nxt.reserved[in_port][pkt.vc] += 1
                hop = self._hop_cycles(r.coord, nxt_xy)
                if hop > self.cycles_per_hop:
                    r.next_free[out] = cycle + self.slowdown
                self._schedule(cycle + hop, ("hop", nidx, in_port, pkt.vc, pkt))

    # -- reporting ---------------------------------------------------------

    def stats(self, final_cycle: int) -> dict:
        for r in self.routers:
            r.occ_change(0, final_cycle)
        return {
            "hops": self.hops,
            "injected": dict(self.injected),
            "delivered": dict(self.delivered),
            "blocked_cycles": dict(self.blocked),
            "occupancy": {
                f"{r.coord[0]},{r.coord[1]}": {str(k): v for k, v in sorted(r.occ_hist.items())}
                for r in self.routers if r.occ_hist
            },
        }
