"""2D-mesh on-chip network: single-flit packets, XY routing, multi-VC
routers with per-input-port round-robin arbitration and credit-based flow
control.

Every packet, spike or START/FINISH notification, rides the VC its flow's
cells hash to (``flow_vc``), so a (source, destination) flow keeps one VC
along its one XY path and arrives in injection order: a FINISH, whether its
own packet or flagged on a spike, reaches its destination after every spike
its source injected to that destination before it. XY routing has no cyclic
channel dependency, so no VC is set aside for control packets.

Credits: a router holds, per output link and VC, one credit per free slot of
the FIFO that the link's VC fills on the next router, ``fifo_depth`` at the
start. A grant over the link takes one credit, and the next router returns
it when it pops the packet from that FIFO, so a head may take a link only
while a credit is left. Injection and ejection (the local port) take none.

Occupancy: each router keeps a histogram of cycles by the number of packets
in its FIFOs. Only landings, injections and grants change that number, and
the callers end every cycle in which they land or inject with ``end_cycle``,
which visits every router that holds a packet; so every router whose number
changed in a cycle is visited at the end of that cycle. The visit books the
cycles since the previous change at the number settled then; ``stats``
books the rest up to the final cycle.

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
    # depasync: the last spike its source sends this destination for the
    # timestep also carries the source's FINISH of it
    finish: bool = False
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


def flow_vc(src: tuple[int, int], dst: tuple[int, int], n_vc: int) -> int:
    """The VC of every packet, spike or notification, from cell ``src`` to
    cell ``dst``: a hash of the two cells over the ``n_vc`` VCs."""
    sx, sy = src
    dx, dy = dst
    h = (sx * 73856093) ^ (sy * 19349663) ^ (dx * 83492791) ^ (dy * 15485863)
    return h % n_vc


class _Router:
    __slots__ = ("coord", "route", "ports", "landing", "vc_rr", "out_rr",
                 "next_free", "resident", "vc_mask", "credits", "credit_back",
                 "link_targets", "link_hop", "occ_hist", "occ_since", "occ_count")

    def __init__(self, coord: tuple[int, int], n_vc: int):
        self.coord = coord
        self.route: list[int] = []  # destination core -> output port
        self.ports = [[deque() for _ in range(n_vc)] for _ in range(5)]
        # per input port and VC: where a packet arriving there lands, as
        # (FIFO, this router, input port, VC bit)
        self.landing = [[(q, self, port, 1 << vc) for vc, q in enumerate(queues)]
                        for port, queues in enumerate(self.ports)]
        self.vc_rr = [0] * 5
        self.out_rr = [0] * 5
        self.next_free = [0] * 5
        self.resident = 0  # packets in this router's FIFOs
        self.vc_mask = [0] * 5  # per input port: bit v set iff VC v is non-empty
        # per output port: credits per VC, the next router's landing targets
        # on the input port it sees, and the hop cycles; None off the mesh
        # and on the local port
        self.credits: list = [None] * 5
        self.link_targets: list = [None] * 5
        self.link_hop: list = [None] * 5
        # per input port: the previous router's credits for the link into it
        self.credit_back: list = [None] * 5
        # cycles by FIFO count, and the count settled at the last change
        # with the cycle it holds since
        self.occ_hist: dict[int, int] = {}
        self.occ_since = 0
        self.occ_count = 0


class MeshNoc:
    """The network advances only through explicit cycle calls from the engine
    clock; everything is deterministic given the injection order. In a cycle
    the caller lands packets (``begin_cycle``), injects, and then ends the
    cycle with ``end_cycle``.

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
                    r.credits[out] = nxt.credit_back[in_port] = [fifo_depth] * n_vc
                    r.link_targets[out] = nxt.landing[in_port]
                    r.link_hop[out] = hop
        # (source core, destination core) -> the landing target of the
        # flow's VC on the source router's local port
        self._flows = []
        for sx, sy in placement:
            local = self.routers[sy * w + sx].landing[PORT_LOCAL]
            self._flows.append([local[flow_vc((sx, sy), dst, n_vc)] for dst in placement])
        # cycle -> events landing then, in order: (landing target, packet)
        # for a hop, (None, packet) for a delivery
        self._pending: dict[int, list] = {}
        self._pending_heap: list[int] = []
        self.injected = {SPIKE: 0, DEP: 0}
        self.delivered = {SPIKE: 0, DEP: 0}
        self.hops = 0
        self.blocked = {SPIKE: 0, DEP: 0}
        self.queued = 0  # packets sitting in router FIFOs
        # (vc_mask * n_vc + vc_rr) -> non-empty VCs in round-robin order
        self._rr_orders: dict[int, tuple[int, ...]] = {}

    # -- public surface ----------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Queue ``packet`` on its flow's VC of its source router's local
        port in the current cycle, which the caller ends with ``end_cycle``."""
        src, dst = packet.src_core, packet.dst_core
        n = self.n_cores
        if not (0 <= src < n and 0 <= dst < n):
            raise NocError(f"packet {src}->{dst} names a core "
                           f"outside the {n}-core placement")
        q, r, port, bit = self._flows[src][dst]
        q.append(packet)
        r.vc_mask[port] |= bit
        r.resident += 1
        self.queued += 1
        self.injected[packet.kind] += 1

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
        for target, pkt in events:
            if target is None:
                delivered.append(pkt)
                counts[pkt.kind] += 1
            else:
                q, r, port, bit = target
                q.append(pkt)
                r.vc_mask[port] |= bit
                r.resident += 1
        self.queued += len(events) - len(delivered)
        return delivered

    def end_cycle(self, cycle: int) -> None:
        """One pass per busy router, in router order; a router's grants are
        applied before the next router arbitrates. Their order within a router
        is unobservable: each takes its own output to its own next FIFO.
        Each input port nominates its round-robin-first eligible VC head, each
        output keeps the nominee nearest its pointer, and a port that moves
        nothing is charged one blocked cycle for its round-robin-first head.
        A head is eligible for the local port always, and for a link when the
        link is free this cycle and holds a credit for the head's VC."""
        if self.queued == 0:
            return
        local = PORT_LOCAL
        n_q = self.n_vc
        cph = self.cycles_per_hop
        pending = self._pending
        rr_orders = self._rr_orders
        # deliveries and hops of cycles_per_hop share one bucket
        at = cycle + cph
        bucket = pending.get(at)
        fresh = bucket is None
        if fresh:
            bucket = []
        blocked_spike = blocked_dep = moved = 0
        for r in self.routers:
            if not r.resident:
                continue
            route = r.route
            ports = r.ports
            out_rr = r.out_rr
            next_free = r.next_free
            credits = r.credits
            vc_mask = r.vc_mask
            vc_rr = r.vc_rr
            wins = None  # output port -> (port, vc, packet, round-robin-first vc)
            for port, mask in enumerate(vc_mask):
                if not mask:
                    continue
                queues = ports[port]
                start = vc_rr[port]
                key = mask * n_q + start
                order = rr_orders.get(key)
                if order is None:
                    order = rr_orders[key] = tuple(
                        vc for vc in (*range(start, n_q), *range(start))
                        if mask >> vc & 1)
                for vc in order:
                    pkt = queues[vc][0]
                    out = route[pkt.dst_core]
                    if out != local and (cycle < next_free[out]
                                         or not credits[out][vc]):
                        continue
                    if wins is None:
                        wins = {out: (port, vc, pkt, order[0])}
                        break
                    held = wins.get(out)
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

            if wins is not None:
                credit_back = r.credit_back
                link_targets = r.link_targets
                link_hop = r.link_hop
                granted = len(wins)
                for out, (port, vc, pkt, _first) in wins.items():
                    q = ports[port][vc]
                    q.popleft()
                    if not q:
                        vc_mask[port] &= ~(1 << vc)
                    if port != local:
                        credit_back[port][vc] += 1
                    vc_rr[port] = vc + 1 if vc + 1 < n_q else 0
                    out_rr[out] = port + 1 if port < 4 else 0
                    if out == local:
                        bucket.append((None, pkt))
                        continue
                    credits[out][vc] -= 1
                    ev = (link_targets[out][vc], pkt)
                    hop = link_hop[out]
                    if hop == cph:
                        bucket.append(ev)
                        continue
                    next_free[out] = cycle + self.slowdown
                    slow = pending.get(cycle + hop)
                    if slow is None:
                        pending[cycle + hop] = [ev]
                        heapq.heappush(self._pending_heap, cycle + hop)
                    else:
                        slow.append(ev)
                r.resident -= granted
                moved += granted

            count = r.resident
            if count != r.occ_count:
                since = r.occ_since
                if cycle > since:
                    hist = r.occ_hist
                    hist[r.occ_count] = hist.get(r.occ_count, 0) + cycle - since
                    r.occ_since = cycle
                r.occ_count = count
        if fresh and bucket:  # an empty bucket would schedule an idle cycle
            pending[at] = bucket
            heapq.heappush(self._pending_heap, at)
        self.queued -= moved
        self.hops += moved
        self.blocked[SPIKE] += blocked_spike
        self.blocked[DEP] += blocked_dep

    # -- reporting ---------------------------------------------------------

    def stats(self, final_cycle: int) -> dict:
        for r in self.routers:
            if final_cycle > r.occ_since:
                hist = r.occ_hist
                hist[r.resident] = hist.get(r.resident, 0) + final_cycle - r.occ_since
                r.occ_since = final_cycle
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
