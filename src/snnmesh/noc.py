"""2D-mesh on-chip network: single-flit packets, XY routing, multi-VC
routers with per-input-port round-robin arbitration.

Every packet, spike or START/FINISH notification, rides the VC its flow's
cells hash to, so a (source, destination) flow keeps one VC along its one
XY path and arrives in injection order: a FINISH reaches its destination
after every spike its source injected to that destination before it. XY
routing has no cyclic channel dependency, so no VC is set aside for control
packets.

Packets name their source and destination cores; the mesh alone maps cores
to cells, through the program's placement."""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

SPIKE = "SPIKE"
DEP = "DEP"

FLAG_FINISH = 0
FLAG_START = 1

PORT_E, PORT_W, PORT_N, PORT_S, PORT_LOCAL = range(5)

# output port -> (dx, dy, input port seen by the neighbour)
_LINKS = {
    PORT_E: (1, 0, PORT_W),
    PORT_W: (-1, 0, PORT_E),
    PORT_N: (0, 1, PORT_S),
    PORT_S: (0, -1, PORT_N),
}


class NocError(ValueError):
    pass


# Single-flit packets between cores. ``kind`` is a per-instance slot rather
# than a class attribute because the arbiter reads it for every head it
# visits, and a slot reads faster.


@dataclass(slots=True)
class SpikePacket:
    src_core: int
    dst_core: int
    timestep: int
    synapse_id: int
    delay: int
    anti: bool = False  # speculative-mode cancellation of an earlier spike
    kind: str = field(default=SPIKE, init=False)


@dataclass(slots=True)
class DepPacket:
    src_core: int
    dst_core: int
    timestep: int
    flag: int  # FLAG_START or FLAG_FINISH
    kind: str = field(default=DEP, init=False)


Packet = SpikePacket | DepPacket


def route_xy(cur: tuple[int, int], dst: tuple[int, int], grid: tuple[int, int]) -> int:
    """Resolve X before Y; LOCAL when already at the destination."""
    w, h = grid
    for (x, y) in (cur, dst):
        if not (0 <= x < w and 0 <= y < h):
            raise NocError(f"coordinate ({x}, {y}) outside {w}x{h} grid")
    cx, cy = cur
    dx, dy = dst
    if dx > cx:
        return PORT_E
    if dx < cx:
        return PORT_W
    if dy > cy:
        return PORT_N
    if dy < cy:
        return PORT_S
    return PORT_LOCAL


def vc_for_packet(p: Packet, placement: list[tuple[int, int]], n_vc: int) -> int:
    """Deterministic VC choice: every packet, spike or notification, hashes
    its flow's cells over the ``n_vc`` VCs."""
    sx, sy = placement[p.src_core]
    dx, dy = placement[p.dst_core]
    h = (sx * 73856093) ^ (sy * 19349663) ^ (dx * 83492791) ^ (dy * 15485863)
    return h % n_vc


class _Router:
    __slots__ = ("coord", "route", "ports", "vc_rr", "out_rr", "reserved",
                 "next_free", "resident", "vc_mask", "link_queues",
                 "link_reserved", "link_router", "link_port", "link_hop",
                 "occ_hist", "_occ_last_cycle")

    def __init__(self, coord: tuple[int, int], n_vc: int):
        self.coord = coord
        self.route: list[int] = []  # destination core -> output port
        self.ports = [[deque() for _ in range(n_vc)] for _ in range(5)]
        self.vc_rr = [0] * 5
        self.out_rr = [0] * 5
        self.reserved = [[0] * n_vc for _ in range(5)]  # credits in use
        self.next_free = [0] * 5
        self.resident = 0
        self.vc_mask = [0] * 5  # per input port: bit v set iff VC v is non-empty
        # per output port: the next router's VC queues and credits on the
        # input port it sees, the next router, that port, and the hop cycles;
        # None off the mesh
        self.link_queues: list = [None] * 5
        self.link_reserved: list = [None] * 5
        self.link_router: list = [None] * 5
        self.link_port: list = [None] * 5
        self.link_hop: list = [None] * 5
        self.occ_hist: dict[int, int] = {}
        self._occ_last_cycle = 0

    def occ_change(self, delta: int, cycle: int) -> None:
        if cycle > self._occ_last_cycle:
            self.occ_hist[self.resident] = (
                self.occ_hist.get(self.resident, 0) + cycle - self._occ_last_cycle
            )
            self._occ_last_cycle = cycle
        self.resident += delta


# events in MeshNoc._pending: (router, input port, vc, packet) for a hop,
# (None, 0, 0, packet) for a delivery


class MeshNoc:
    """The network advances only through explicit cycle calls from the engine
    clock; everything is deterministic given the injection order.

    ``placement`` maps core id -> (x, y) cell, one core per cell. The other
    parameters are taken as ``SimConfig.validate`` leaves them; a cell off the
    grid, or a packet naming a core outside the placement, raises NocError."""

    def __init__(self, grid: tuple[int, int], placement: list[tuple[int, int]],
                 n_vc: int = 4, cycles_per_hop: int = 2, fifo_depth: int = 4,
                 inter_cluster_slowdown: int = 1, cluster_size: int = 2):
        w, h = grid
        self.placement = placement
        self.n_cores = len(placement)
        self.n_vc = n_vc
        self.cycles_per_hop = cycles_per_hop
        self.fifo_depth = fifo_depth
        self.slowdown = inter_cluster_slowdown
        self.routers = [_Router((x, y), n_vc)
                        for y in range(h) for x in range(w)]
        for r in self.routers:
            r.route = [route_xy(r.coord, xy, grid) for xy in placement]
            x, y = r.coord
            for out, (dx, dy, in_port) in _LINKS.items():
                nx, ny = x + dx, y + dy
                if 0 <= nx < w and 0 <= ny < h:
                    crosses = (x // cluster_size != nx // cluster_size
                               or y // cluster_size != ny // cluster_size)
                    hop = cycles_per_hop * (inter_cluster_slowdown if crosses else 1)
                    nxt = self.routers[ny * w + nx]
                    r.link_queues[out] = nxt.ports[in_port]
                    r.link_reserved[out] = nxt.reserved[in_port]
                    r.link_router[out] = nxt
                    r.link_port[out] = in_port
                    r.link_hop[out] = hop
        self._core_router = [self.routers[y * w + x] for x, y in placement]
        self._pending: dict[int, list] = {}  # cycle -> events in order
        self._pending_heap: list[int] = []
        self.injected = {SPIKE: 0, DEP: 0}
        self.delivered = {SPIKE: 0, DEP: 0}
        self.hops = 0
        self.blocked = {SPIKE: 0, DEP: 0}
        self.queued = 0  # packets sitting in router FIFOs
        # (vc_mask * n_vc + vc_rr) -> non-empty VCs in round-robin order
        self._rr_orders: dict[int, tuple[int, ...]] = {}

    # -- public surface ----------------------------------------------------

    def inject(self, packet: Packet, cycle: int) -> None:
        n = self.n_cores
        if not (0 <= packet.src_core < n and 0 <= packet.dst_core < n):
            raise NocError(f"packet {packet.src_core}->{packet.dst_core} names a core "
                           f"outside the {n}-core placement")
        kind = packet.kind
        vc = vc_for_packet(packet, self.placement, self.n_vc)
        r = self._core_router[packet.src_core]
        r.ports[PORT_LOCAL][vc].append(packet)
        r.vc_mask[PORT_LOCAL] |= 1 << vc
        r.occ_change(+1, cycle)
        self.queued += 1
        self.injected[kind] += 1

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
        delivered: list[Packet] = []
        events = self._pending.pop(cycle, None)
        if not events:
            return delivered
        counts = self.delivered
        hops_landed = 0
        for r, port, vc, pkt in events:
            if r is None:
                delivered.append(pkt)
                counts[pkt.kind] += 1
                continue
            r.ports[port][vc].append(pkt)
            r.vc_mask[port] |= 1 << vc
            r.reserved[port][vc] -= 1
            last = r._occ_last_cycle
            if cycle > last:
                hist = r.occ_hist
                hist[r.resident] = hist.get(r.resident, 0) + cycle - last
                r._occ_last_cycle = cycle
            r.resident += 1
            hops_landed += 1
        self.queued += hops_landed
        return delivered

    def end_cycle(self, cycle: int) -> None:
        """One pass per busy router, in router order; a router's grants (in
        output-port order) are applied before the next router arbitrates.
        Each input port nominates its round-robin-first eligible VC head, each
        output keeps the nominee nearest its pointer, and a port that moves
        nothing is charged one blocked cycle for its round-robin-first head."""
        if self.queued == 0:
            return
        n_q = self.n_vc
        depth = self.fifo_depth
        cph = self.cycles_per_hop
        pending = self._pending
        rr_orders = self._rr_orders
        blocked_spike = blocked_dep = moved = 0
        for r in self.routers:
            if not r.resident:
                continue
            route = r.route
            ports = r.ports
            out_rr = r.out_rr
            next_free = r.next_free
            link_queues = r.link_queues
            link_reserved = r.link_reserved
            wins = None  # output port -> (port, vc, packet, round-robin-first vc)
            for port, mask in enumerate(r.vc_mask):
                if not mask:
                    continue
                queues = ports[port]
                start = r.vc_rr[port]
                key = mask * n_q + start
                order = rr_orders.get(key)
                if order is None:
                    order = rr_orders[key] = tuple(
                        vc for vc in (*range(start, n_q), *range(start))
                        if mask >> vc & 1)
                for vc in order:
                    pkt = queues[vc][0]
                    out = route[pkt.dst_core]
                    if out != PORT_LOCAL and (
                            cycle < next_free[out]
                            or len(link_queues[out][vc]) + link_reserved[out][vc] >= depth):
                        continue
                    if wins is None:
                        wins = [None, None, None, None, None]
                    held = wins[out]
                    if held is None:
                        wins[out] = (port, vc, pkt, order[0])
                        break
                    ptr = out_rr[out]
                    if (port - ptr) % 5 < (held[0] - ptr) % 5:
                        loser = ports[held[0]][held[3]][0]
                        wins[out] = (port, vc, pkt, order[0])
                    else:
                        loser = queues[order[0]][0]
                    if loser.kind == SPIKE:
                        blocked_spike += 1
                    else:
                        blocked_dep += 1
                    break
                else:
                    if queues[order[0]][0].kind == SPIKE:
                        blocked_spike += 1
                    else:
                        blocked_dep += 1
            if wins is None:
                continue

            granted = 0
            for out, win in enumerate(wins):
                if win is None:
                    continue
                port, vc, pkt, _first = win
                q = ports[port][vc]
                q.popleft()
                if not q:
                    r.vc_mask[port] &= ~(1 << vc)
                r.vc_rr[port] = vc + 1 if vc + 1 < n_q else 0
                out_rr[out] = port + 1 if port < 4 else 0
                granted += 1
                if out == PORT_LOCAL:
                    at, ev = cycle + cph, (None, 0, 0, pkt)
                else:
                    link_reserved[out][vc] += 1
                    hop = r.link_hop[out]
                    if hop > cph:
                        next_free[out] = cycle + self.slowdown
                    at, ev = cycle + hop, (r.link_router[out], r.link_port[out], vc, pkt)
                bucket = pending.get(at)
                if bucket is None:
                    pending[at] = [ev]
                    heapq.heappush(self._pending_heap, at)
                else:
                    bucket.append(ev)
            last = r._occ_last_cycle
            if cycle > last:
                hist = r.occ_hist
                hist[r.resident] = hist.get(r.resident, 0) + cycle - last
                r._occ_last_cycle = cycle
            r.resident -= granted
            moved += granted
        self.queued -= moved
        self.hops += moved
        self.blocked[SPIKE] += blocked_spike
        self.blocked[DEP] += blocked_dep

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
