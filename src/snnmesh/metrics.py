"""Operation-count energy model and report/trace emission.

Energy is abstract units per operation, not a silicon measurement: the
shipped table is a configurable default, and every reported figure is a plain
dot product of operation counts with it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass

from .atomic import atomic_open, write_json


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class EnergyCostTable:
    neuron_update: float = 4.0
    synapse_acc: float = 1.0
    buffer_read: float = 0.4
    buffer_write: float = 0.4
    scheduler_event: float = 1.0
    noc_hop: float = 2.0
    static_per_core_cycle: float = 0.05

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value) or value < 0):
                raise MetricsError(
                    f"cost {name} must be a finite number >= 0, got {value!r}")

    @classmethod
    def from_dict(cls, doc: dict | None) -> "EnergyCostTable":
        if doc is None:
            return cls()
        if not isinstance(doc, dict):
            raise MetricsError(f"energy costs must be an object, got {doc!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise MetricsError(f"unknown energy cost keys: {sorted(unknown)}")
        return cls(**doc)


_COUNT_KEYS = {
    "neuron_update": "neuron_updates",
    "synapse_acc": "synapse_acc",
    "buffer_read": "buffer_reads",
    "buffer_write": "buffer_writes",
    "scheduler_event": "scheduler_events",
    "noc_hop": "noc_hops",
}


def energy_total(counts: dict, costs: EnergyCostTable, n_cores: int,
                 total_cycles: int) -> dict:
    """Per-category and total energy: count * unit cost, plus static leakage
    proportional to cores * cycles."""
    out = {}
    for category, count_key in _COUNT_KEYS.items():
        out[category] = counts.get(count_key, 0) * getattr(costs, category)
    out["static"] = costs.static_per_core_cycle * n_cores * total_cycles
    # one fixed float order: _COUNT_KEYS, then static
    out["total"] = sum(out.values())
    return out


def check_report(report) -> None:
    """Re-assert the accounting identities before anything is written out."""
    costs = EnergyCostTable.from_dict(report.config.get("energy_costs"))
    again = energy_total(report.counts, costs, len(report.cores),
                         report.total_cycles)
    if again != report.energy:
        raise MetricsError("energy table does not match its operation counts")
    for row in report.cores:
        if row["busy"] + row["wait"] + row["rollback"] != report.total_cycles:
            raise MetricsError(
                f"core {row['id']}: busy+wait+rollback != total cycles"
            )
    # every router's occupancy histogram covers the cycles up to the one the
    # network drained in, which is at least the last commit
    spans = {sum(hist.values()) for hist in report.noc["occupancy"].values()} or {0}
    if len(spans) != 1 or min(spans) < report.total_cycles:
        raise MetricsError(
            f"router occupancy spans {sorted(spans)} cycles, not one span "
            f">= total cycles {report.total_cycles}"
        )


def export_report(report, path) -> None:
    """Machine-readable report file (JSON, stable keys), checked first."""
    check_report(report)
    write_json(path, report.to_dict())


def trace_rows_with_waits(report) -> list[tuple[int, int, int, int, str]]:
    """Fill the gaps between a core's compute segments with wait rows, so the
    trace renders as a complete Gantt timeline."""
    by_core: dict[int, list] = {}
    for row in report.trace:
        by_core.setdefault(row[2], []).append(row)
    out = []
    for cid in sorted(by_core):
        segs = sorted(by_core[cid], key=lambda r: (r[0], r[1]))
        cursor = 0
        for start, end, core, t, kind in segs:
            if start > cursor:
                out.append((cursor, start, core, t, "wait"))
            out.append((start, end, core, t, kind))
            cursor = end
        if cursor < report.total_cycles:
            out.append((cursor, report.total_cycles, cid, -1, "wait"))
    out.sort(key=lambda r: (r[2], r[0], r[1]))
    return out


def export_trace_csv(report, path) -> None:
    rows = trace_rows_with_waits(report)
    with atomic_open(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["cycle_start", "cycle_end", "core", "timestep", "kind"])
        writer.writerows(rows)

