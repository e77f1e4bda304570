"""2D-mesh on-chip network: single-flit packets, XY routing, multi-VC
routers with per-input-port round-robin arbitration, and an eligibility mask
that holds a FINISH notification behind the spikes it vouches for."""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

SPIKE = "SPIKE"
DEP = "DEP"
SYNC = "SYNC"

FLAG_FINISH = 0
FLAG_START = 1

PORT_E, PORT_W, PORT_N, PORT_S, PORT_LOCAL = range(5)
PORT_NAMES = ("E", "W", "N", "S", "LOCAL")

# output port -> (dx, dy, input port seen by the neighbour)
_LINKS = {
    PORT_E: (1, 0, PORT_W),
    PORT_W: (-1, 0, PORT_E),
    PORT_N: (0, 1, PORT_S),
    PORT_S: (0, -1, PORT_N),
}


class NocError(ValueError):
    pass


@dataclass(slots=True)
class SpikeBody:
    synapse_id: int
    delay: int
    timestep: int
    anti: bool = False  # speculative-mode cancellation of an earlier spike


@dataclass(slots=True)
class DepBody:
    timestep: int
    flag: int  # FLAG_START or FLAG_FINISH
    dep_id: int


@dataclass(slots=True)
class SyncBody:
    timestep: int


@dataclass(slots=True)
class Packet:
    kind: str
    src_core: int
    dst_core: int
    src_xy: tuple[int, int]
    dst_xy: tuple[int, int]
    body: object
    vc: int = -1

    def validate(self) -> None:
        expected = {SPIKE: SpikeBody, DEP: DepBody, SYNC: SyncBody}.get(self.kind)
        if expected is None:
            raise NocError(f"unknown packet kind {self.kind!r}")
        if not isinstance(self.body, expected):
            raise NocError(f"{self.kind} packet carries a {type(self.body).__name__}")


def packet_to_dict(p: Packet) -> dict:
    d = {
        "kind": p.kind,
        "header": {"vc": p.vc, "src_xy": list(p.src_xy), "dst_xy": list(p.dst_xy),
                   "src_core": p.src_core, "dst_core": p.dst_core},
    }
    if p.kind == SPIKE:
        d["body"] = {"synapse_id": p.body.synapse_id, "delay": p.body.delay,
                     "timestep": p.body.timestep, "anti": p.body.anti}
    elif p.kind == DEP:
        d["body"] = {"timestep": p.body.timestep, "flag": p.body.flag,
                     "dep_id": p.body.dep_id}
    else:
        d["body"] = {"timestep": p.body.timestep}
    return d


def packet_from_dict(d: dict) -> Packet:
    h = d["header"]
    kind = d["kind"]
    b = d["body"]
    if kind == SPIKE:
        body = SpikeBody(synapse_id=b["synapse_id"], delay=b["delay"],
                         timestep=b["timestep"], anti=b.get("anti", False))
    elif kind == DEP:
        body = DepBody(timestep=b["timestep"], flag=b["flag"], dep_id=b["dep_id"])
    elif kind == SYNC:
        body = SyncBody(timestep=b["timestep"])
    else:
        raise NocError(f"unknown packet kind {kind!r}")
    p = Packet(kind=kind, src_core=h["src_core"], dst_core=h["dst_core"],
               src_xy=tuple(h["src_xy"]), dst_xy=tuple(h["dst_xy"]),
               body=body, vc=h["vc"])
    p.validate()
    return p


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


def vc_for_packet(p: Packet, n_vc: int) -> int:
    """Deterministic VC choice: spikes hash their flow over the data VCs,
    control packets ride a reserved extra channel."""
    if p.kind != SPIKE:
        return n_vc
    sx, sy = p.src_xy
    dx, dy = p.dst_xy
    h = (sx * 73856093) ^ (sy * 19349663) ^ (dx * 83492791) ^ (dy * 15485863)
    return h % n_vc


class _Router:
    __slots__ = ("coord", "ports", "vc_rr", "out_rr", "reserved", "next_free",
                 "resident", "vc_mask", "spike_src", "links", "occ_hist",
                 "_occ_last_cycle")

    def __init__(self, coord: tuple[int, int], n_vc_total: int):
        self.coord = coord
        self.ports = [[deque() for _ in range(n_vc_total)] for _ in range(5)]
        self.vc_rr = [0] * 5
        self.out_rr = [0] * 5
        self.reserved = [[0] * n_vc_total for _ in range(5)]  # credits in use
        self.next_free = [0] * 5
        self.resident = 0
        self.vc_mask = [0] * 5  # per input port: bit v set iff VC v is non-empty
        # per input port: src_xy -> resident spikes from it (FINISH mask filter)
        self.spike_src: list[dict] = [{} for _ in range(5)]
        # per output port: (next router's VC queues and credits on the input
        # port it sees, next router, that port, hop cycles); None off the mesh
        self.links: list[tuple | None] = [None] * 5
        self.occ_hist: dict[int, int] = {}
        self._occ_last_cycle = 0

    def occ_change(self, delta: int, cycle: int) -> None:
        if cycle > self._occ_last_cycle:
            self.occ_hist[self.resident] = (
                self.occ_hist.get(self.resident, 0) + cycle - self._occ_last_cycle
            )
            self._occ_last_cycle = cycle
        self.resident += delta


# events in MeshNoc._pending: (_HOP, router, port, vc, pkt) or (_DELIVER, pkt)
_HOP, _DELIVER = 0, 1


class MeshNoc:
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
        for name, value in (("cycles_per_hop", cycles_per_hop), ("fifo_depth", fifo_depth),
                            ("inter_cluster_slowdown", inter_cluster_slowdown),
                            ("cluster_size", cluster_size)):
            if value < 1:
                raise NocError(f"{name} must be >= 1, got {value}")
        self.grid = grid
        self.n_vc = n_vc
        self.n_vc_total = n_vc + 1  # data VCs plus the reserved control VC
        self.cycles_per_hop = cycles_per_hop
        self.fifo_depth = fifo_depth
        self.slowdown = inter_cluster_slowdown
        self.routers = [_Router((x, y), self.n_vc_total)
                        for y in range(h) for x in range(w)]
        for r in self.routers:
            x, y = r.coord
            for out, (dx, dy, in_port) in _LINKS.items():
                nx, ny = x + dx, y + dy
                if 0 <= nx < w and 0 <= ny < h:
                    crosses = (x // cluster_size != nx // cluster_size
                               or y // cluster_size != ny // cluster_size)
                    hop = cycles_per_hop * (inter_cluster_slowdown if crosses else 1)
                    nxt = self.routers[ny * w + nx]
                    r.links[out] = (nxt.ports[in_port], nxt.reserved[in_port],
                                    nxt, in_port, hop)
        self._pending: dict[int, list] = {}  # cycle -> events in order
        self._pending_heap: list[int] = []
        self.in_flight = {SPIKE: 0, DEP: 0, SYNC: 0}
        self.injected = {SPIKE: 0, DEP: 0, SYNC: 0}
        self.delivered = {SPIKE: 0, DEP: 0, SYNC: 0}
        self.hops = 0
        self.blocked = {SPIKE: 0, DEP: 0, SYNC: 0}
        self._last_delivered: list[Packet] = []  # deliveries of the latest cycle
        self._queued = 0  # packets sitting in router FIFOs
        # (vc_mask * n_vc_total + vc_rr) -> non-empty VCs in round-robin order
        self._rr_orders: dict[int, tuple[int, ...]] = {}

    # -- public surface ----------------------------------------------------

    def inject(self, at: tuple[int, int], packet: Packet, cycle: int) -> None:
        packet.validate()
        packet.src_xy = tuple(packet.src_xy)  # keys the FINISH mask's spike counts
        if tuple(at) != packet.src_xy:
            raise NocError(
                f"inject at {at} but packet originates at {packet.src_xy}"
            )
        route_xy(packet.src_xy, packet.dst_xy, self.grid)  # bounds check
        packet.vc = vc_for_packet(packet, self.n_vc)
        r = self.routers[at[1] * self.grid[0] + at[0]]
        r.ports[PORT_LOCAL][packet.vc].append(packet)
        r.vc_mask[PORT_LOCAL] |= 1 << packet.vc
        if packet.kind == SPIKE:
            src = r.spike_src[PORT_LOCAL]
            src[packet.src_xy] = src.get(packet.src_xy, 0) + 1
        r.occ_change(+1, cycle)
        self._queued += 1
        self.injected[packet.kind] += 1
        self.in_flight[packet.kind] += 1

    def eject(self, at: tuple[int, int]) -> list[Packet]:
        """Packets delivered to ``at`` during the current cycle."""
        at = tuple(at)
        return [p for p in self._last_delivered if tuple(p.dst_xy) == at]

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
        delivered: list[Packet] = []
        self._last_delivered = delivered
        events = self._pending.pop(cycle, None)
        if not events:
            return delivered
        hops_landed = 0
        for ev in events:
            if ev[0] == _HOP:
                _, r, port, vc, pkt = ev
                r.ports[port][vc].append(pkt)
                r.vc_mask[port] |= 1 << vc
                r.reserved[port][vc] -= 1
                if pkt.kind == SPIKE:
                    src = r.spike_src[port]
                    src[pkt.src_xy] = src.get(pkt.src_xy, 0) + 1
                last = r._occ_last_cycle
                if cycle > last:
                    hist = r.occ_hist
                    hist[r.resident] = hist.get(r.resident, 0) + cycle - last
                    r._occ_last_cycle = cycle
                r.resident += 1
                hops_landed += 1
            else:
                pkt = ev[1]
                delivered.append(pkt)
                self.delivered[pkt.kind] += 1
                self.in_flight[pkt.kind] -= 1
        self._queued += hops_landed
        return delivered

    def end_cycle(self, cycle: int) -> None:
        """One pass per busy router, in router order; a router's grants (in
        output-port order) are applied before the next router arbitrates.
        Each input port nominates its round-robin-first eligible VC head, each
        output keeps the nominee nearest its pointer, and a port that moves
        nothing is charged one blocked cycle for its round-robin-first head."""
        if self._queued == 0:
            return
        n_q = self.n_vc_total
        depth = self.fifo_depth
        cph = self.cycles_per_hop
        blocked = self.blocked
        pending = self._pending
        rr_orders = self._rr_orders
        for r in self.routers:
            if not r.resident:
                continue
            cx, cy = r.coord
            ports = r.ports
            out_rr = r.out_rr
            wins = [None, None, None, None, None]
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
                    if out != PORT_LOCAL:
                        nxt_queues, nxt_reserved, _nxt, _in_port, _hop = r.links[out]
                        if (cycle < r.next_free[out]
                                or len(nxt_queues[vc]) + nxt_reserved[vc] >= depth):
                            continue
                    if (pkt.kind == DEP and pkt.body.flag == FLAG_FINISH
                            and r.spike_src[port].get(pkt.src_xy)
                            and self._finish_masked(r, port, pkt)):
                        continue
                    held = wins[out]
                    if held is None:
                        wins[out] = (port, vc, pkt, order[0])
                    else:
                        ptr = out_rr[out]
                        if (port - ptr) % 5 < (held[0] - ptr) % 5:
                            blocked[ports[held[0]][held[3]][0].kind] += 1
                            wins[out] = (port, vc, pkt, order[0])
                        else:
                            blocked[queues[order[0]][0].kind] += 1
                    break
                else:
                    blocked[queues[order[0]][0].kind] += 1

            granted = 0
            for out, win in enumerate(wins):
                if win is None:
                    continue
                port, vc, pkt, _first = win
                q = ports[port][vc]
                q.popleft()
                if not q:
                    r.vc_mask[port] &= ~(1 << vc)
                if pkt.kind == SPIKE:
                    r.spike_src[port][pkt.src_xy] -= 1
                r.vc_rr[port] = vc + 1 if vc + 1 < n_q else 0
                out_rr[out] = port + 1 if port < 4 else 0
                granted += 1
                if out == PORT_LOCAL:
                    at, ev = cycle + cph, (_DELIVER, pkt)
                else:
                    _q, nxt_reserved, nxt, in_port, hop = r.links[out]
                    nxt_reserved[vc] += 1
                    if hop > cph:
                        r.next_free[out] = cycle + self.slowdown
                    at, ev = cycle + hop, (_HOP, nxt, in_port, vc, pkt)
                bucket = pending.get(at)
                if bucket is None:
                    pending[at] = [ev]
                    heapq.heappush(self._pending_heap, at)
                else:
                    bucket.append(ev)
            if granted:
                last = r._occ_last_cycle
                if cycle > last:
                    hist = r.occ_hist
                    hist[r.resident] = hist.get(r.resident, 0) + cycle - last
                    r._occ_last_cycle = cycle
                r.resident -= granted
                self._queued -= granted
                self.hops += granted

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
