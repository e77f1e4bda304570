import csv
import dataclasses
import json

import pytest

from snnmesh.compiler import compile_network
from snnmesh.engine import SimConfig, run
from snnmesh.metrics import (
    EnergyCostTable,
    MetricsError,
    check_report,
    energy_total,
    export_report,
    export_trace_csv,
    trace_rows_with_waits,
)
from snnmesh.model import gen_synthetic


def load_trace_csv(path) -> list[tuple[int, int, int, int, str]]:
    """The rows of a trace CSV written by ``export_trace_csv``."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != ["cycle_start", "cycle_end", "core", "timestep", "kind"]:
            raise MetricsError(f"unexpected trace header {header}")
        return [(int(a), int(b), int(c), int(t), k) for a, b, c, t, k in reader]


class TestEnergyTotal:
    def test_all_zero(self):
        costs = EnergyCostTable(neuron_update=0, synapse_acc=0, buffer_read=0,
                                buffer_write=0, scheduler_event=0, noc_hop=0,
                                static_per_core_cycle=0)
        out = energy_total({}, costs, n_cores=4, total_cycles=100)
        assert out["total"] == 0

    def test_dot_product(self):
        costs = EnergyCostTable(neuron_update=2.0, synapse_acc=0, buffer_read=0,
                                buffer_write=0, scheduler_event=0, noc_hop=0,
                                static_per_core_cycle=0)
        out = energy_total({"neuron_updates": 10}, costs, 1, 50)
        assert out["neuron_update"] == 20.0
        assert out["total"] == 20.0

    def test_static_term(self):
        costs = EnergyCostTable(neuron_update=0, synapse_acc=0, buffer_read=0,
                                buffer_write=0, scheduler_event=0, noc_hop=0,
                                static_per_core_cycle=0.5)
        out = energy_total({}, costs, n_cores=4, total_cycles=100)
        assert out["static"] == 200.0

    def test_negative_cost_rejected(self):
        with pytest.raises(MetricsError):
            EnergyCostTable(neuron_update=-1.0)

    @pytest.mark.parametrize("bad", [True, "x", None, float("nan"),
                                     float("inf"), float("-inf")])
    def test_non_finite_or_non_number_cost_rejected(self, bad):
        with pytest.raises(MetricsError, match="noc_hop"):
            EnergyCostTable.from_dict({"noc_hop": bad})

    @pytest.mark.parametrize("doc", [5, ["noc_hop"], "noc_hop"])
    def test_non_object_table_rejected(self, doc):
        with pytest.raises(MetricsError):
            EnergyCostTable.from_dict(doc)

    def test_unknown_key_rejected(self):
        with pytest.raises(MetricsError):
            EnergyCostTable.from_dict({"warp_drive": 1.0})


@pytest.fixture(scope="module")
def small_report():
    net = gen_synthetic(40, 300, seed=2, t_max=20, input_rate=0.2)
    prog = compile_network(net, (2, 2))
    return run(prog, SimConfig(grid=(2, 2), mode="depasync", trace=True))


class TestReportExport:
    def test_round_trip(self, small_report, tmp_path):
        path = tmp_path / "report.json"
        export_report(small_report, path)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        assert doc == small_report.to_dict()

    def test_identities_reasserted_at_export(self, small_report, tmp_path):
        check_report(small_report)
        broken = small_report
        good_energy = dict(broken.energy)
        broken.energy = {**good_energy, "total": good_energy["total"] + 1}
        with pytest.raises(MetricsError):
            export_report(broken, tmp_path / "x.json")
        broken.energy = good_energy

    @pytest.mark.parametrize("tamper", ["one-router-longer", "all-shorter"])
    def test_occupancy_spans_checked_at_export(self, small_report, tmp_path,
                                               tamper):
        occupancy = small_report.noc["occupancy"]
        spans = {sum(hist.values()) for hist in occupancy.values()}
        assert len(spans) == 1 and spans.pop() >= small_report.total_cycles
        if tamper == "one-router-longer":
            routers = sorted(occupancy)[:1]
            extra = 1
        else:
            routers = sorted(occupancy)
            extra = -(sum(occupancy[routers[0]].values())
                      - small_report.total_cycles + 1)
        tampered = {xy: dict(hist) for xy, hist in occupancy.items()}
        for xy in routers:
            tampered[xy]["0"] = tampered[xy].get("0", 0) + extra
        broken = dataclasses.replace(small_report,
                                     noc={**small_report.noc, "occupancy": tampered})
        with pytest.raises(MetricsError, match="occupancy"):
            export_report(broken, tmp_path / "x.json")
        assert not (tmp_path / "x.json").exists()

    def test_failed_write_leaves_no_file(self, small_report, tmp_path,
                                         monkeypatch):
        def boom(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", boom)
        with pytest.raises(OSError, match="disk full"):
            export_report(small_report, tmp_path / "report.json")
        assert list(tmp_path.iterdir()) == []

    def test_energy_matches_independent_recomputation(self, small_report):
        costs = EnergyCostTable()
        expected = (
            small_report.counts["neuron_updates"] * costs.neuron_update
            + small_report.counts["synapse_acc"] * costs.synapse_acc
            + small_report.counts["buffer_reads"] * costs.buffer_read
            + small_report.counts["buffer_writes"] * costs.buffer_write
            + small_report.counts["scheduler_events"] * costs.scheduler_event
            + small_report.counts["noc_hops"] * costs.noc_hop
            + costs.static_per_core_cycle * 4 * small_report.total_cycles
        )
        assert small_report.energy["total"] == expected

    def test_breakdown_closure(self, small_report):
        for row in small_report.cores:
            assert row["busy"] + row["wait"] + row["rollback"] == \
                small_report.total_cycles


class TestTraceExport:
    def test_csv_round_trip(self, small_report, tmp_path):
        path = tmp_path / "trace.csv"
        export_trace_csv(small_report, path)
        rows = load_trace_csv(path)
        assert rows == trace_rows_with_waits(small_report)

    def test_wait_rows_fill_gaps(self, small_report):
        rows = trace_rows_with_waits(small_report)
        by_core = {}
        for r in rows:
            by_core.setdefault(r[2], []).append(r)
        for cid, segs in by_core.items():
            segs.sort(key=lambda r: r[0])
            cursor = 0
            for start, end, _c, _t, _k in segs:
                assert start == cursor, f"gap in core {cid} timeline"
                cursor = end
            assert cursor == small_report.total_cycles

    def test_empty_report_trace(self, tmp_path):
        net = gen_synthetic(4, 4, seed=1, t_max=0)
        prog = compile_network(net, (1, 1))
        rep = run(prog, SimConfig(grid=(1, 1), trace=True))
        path = tmp_path / "t.csv"
        export_trace_csv(rep, path)
        assert load_trace_csv(path) == []


def test_scheduler_and_extra_buffer_share_is_a_few_percent():
    # Trend check with the shipped cost table on a layered workload: the
    # dependency scheduler plus the share of buffer traffic attributable to
    # the extra (m - 1 of max_delay + m - 1) slots should sit near 5% of
    # total energy. Tolerance is wide (2%..8%); the table is configurable.
    from snnmesh.model import gen_layered

    m, max_delay = 4, 2
    net = gen_layered([256, 256, 256, 232], fanin=12, seed=2001, t_max=100,
                      input_rate=0.06, max_delay=max_delay)
    prog = compile_network(net, (4, 4))
    rep = run(prog, SimConfig(grid=(4, 4), mode="depasync", m=m))
    e = rep.energy
    extra_frac = (m - 1) / (max_delay + m - 1)
    share = (e["scheduler_event"]
             + extra_frac * (e["buffer_read"] + e["buffer_write"])) / e["total"]
    assert 0.02 <= share <= 0.08, share
