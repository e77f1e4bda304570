import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from snnmesh.cli import (
    EXIT_BAD_INPUT,
    EXIT_COMPILE,
    EXIT_DEADLOCK,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_VERIFY_MISMATCH,
    env_overrides,
    main,
    summarize_results,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_gen_synthetic_writes_workload(tmp_path):
    out = tmp_path / "w.json"
    code = main(["gen", "--kind", "synthetic", "--neurons", "30",
                 "--synapses", "200", "--seed", "3", "--t-max", "10",
                 "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["neurons"]) == 30
    assert len(doc["synapses"]) == 200


def test_gen_layered_writes_layers_key(tmp_path):
    out = tmp_path / "w.json"
    code = main(["gen", "--kind", "layered", "--layers", "8,6", "--fanin", "4",
                 "--t-max", "8", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["layers"] == [8, 6]


def test_compile_run_verify_round(tmp_path):
    prog = tmp_path / "p.json"
    code = main(["compile", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--grid", "2x2", "--out", str(prog)])
    assert code == EXIT_OK

    report = tmp_path / "r.json"
    trace = tmp_path / "t.csv"
    code = main(["run", "--program", str(prog), "--mode", "depasync",
                 "--out", str(report), "--trace", str(trace)])
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["mode"] == "depasync"
    assert doc["total_cycles"] > 0
    assert trace.exists()

    code = main(["verify", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--grid", "2x2"])
    assert code == EXIT_OK


def test_run_with_config_file_and_fixture_program(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(["run", "--program", str(FIXTURES / "tiny_program.json"),
                 "--config", str(FIXTURES / "config.json"),
                 "--out", str(report)])
    assert code == EXIT_OK
    assert "total_cycles=" in capsys.readouterr().out


def test_run_determinism_same_seed(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["run", "--program", str(FIXTURES / "tiny_program.json"),
            "--grid", "2x2", "--mode", "depasync", "--seed", "9"]
    assert main(base + ["--out", str(out1)]) == EXIT_OK
    assert main(base + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_text() == out2.read_text()


def test_missing_file_exit_code(tmp_path):
    code = main(["run", "--program", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_MISSING_FILE


def test_bad_workload_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main(["compile", "--workload", str(bad), "--out",
                 str(tmp_path / "p.json")])
    assert code == EXIT_BAD_INPUT


def test_zero_fifo_depth_is_bad_input_not_a_hang(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"grid": "2x2", "fifo_depth": 0}))
    code = main(["run", "--program", str(FIXTURES / "tiny_program.json"),
                 "--config", str(config), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_BAD_INPUT
    assert "fifo_depth" in capsys.readouterr().err


def test_compile_capacity_error_exit_code(tmp_path):
    code = main(["compile", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--grid", "2x2", "--max-neurons-per-core", "5",
                 "--out", str(tmp_path / "p.json")])
    assert code == EXIT_COMPILE


def test_deadlock_exit_code(tmp_path, capsys):
    # mutual dependency with m=1 can never advance past t=0
    from snnmesh.compiler import compile_network, save_program
    from snnmesh.fixedpoint import fx
    from snnmesh.model import Network, NeuronParams, NeuronState, Synapse

    p = NeuronParams(tau_m=fx(2.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
    net = Network(neurons=[(p, NeuronState(v=0)) for _ in range(2)],
                  synapses=[Synapse(0, 1, fx(1.0), 1), Synapse(1, 0, fx(1.0), 1)],
                  inputs={}, t_max=4, max_delay=1)
    prog_path = tmp_path / "p.json"
    save_program(compile_network(net, (2, 1), assignment=[0, 1]), prog_path)
    code = main(["run", "--program", str(prog_path), "--grid", "2x1",
                 "--mode", "depasync", "--m", "1",
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_DEADLOCK
    assert "error[deadlock]" in capsys.readouterr().err


def test_verify_detects_an_actually_divergent_raster(tmp_path, capsys, monkeypatch):
    # Force a mismatch by corrupting one mode's raster via a patched run.
    import snnmesh.cli as cli_mod

    real_run = cli_mod.run

    def crooked_run(prog, cfg):
        rep = real_run(prog, cfg)
        if cfg.mode == "se" and rep.raster:
            rep.raster = rep.raster[:-1]
        return rep

    monkeypatch.setattr(cli_mod, "run", crooked_run)
    code = main(["verify", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--grid", "2x2"])
    assert code == EXIT_VERIFY_MISMATCH
    err = capsys.readouterr().err
    assert "(neuron, timestep)" in err


def test_verify_with_shortened_horizon(capsys):
    # an overridden t_max must truncate the reference comparison too
    code = main(["verify", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--grid", "2x2", "--t-max", "10"])
    assert code == EXIT_OK
    assert "all modes match" in capsys.readouterr().out


def test_energy_costs_override_via_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": "2x2",
        "energy_costs": {"neuron_update": 0.0, "synapse_acc": 0.0,
                         "buffer_read": 0.0, "buffer_write": 0.0,
                         "scheduler_event": 0.0, "noc_hop": 0.0,
                         "static_per_core_cycle": 1.0},
    }))
    report = tmp_path / "r.json"
    code = main(["run", "--program", str(FIXTURES / "tiny_program.json"),
                 "--config", str(cfg), "--mode", "sync", "--out", str(report)])
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    # only the static term remains: cores x cycles x 1.0
    assert doc["energy"]["total"] == 4 * doc["total_cycles"]


def test_env_overrides_config(monkeypatch):
    monkeypatch.setenv("SNNMESH_M", "8")
    monkeypatch.setenv("SNNMESH_MODE", "sync")
    monkeypatch.setenv("SNNMESH_GRID", "2x2")
    monkeypatch.setenv("SNNMESH_TRACE", "true")
    over = env_overrides()
    assert over == {"m": 8, "mode": "sync", "grid": (2, 2), "trace": True}


def test_sweep_and_report(tmp_path, capsys):
    results = tmp_path / "results.csv"
    code = main(["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--axis", "m=2,4", "--modes", "sync,depasync",
                 "--grid", "2x2", "--seeds", "1", "--out", str(results)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(results.open()))
    assert len(rows) == 2 * 2  # two m values x two modes
    hashes = {r["raster_sha256"] for r in rows}
    assert len(hashes) == 1, "raster must not depend on m or mode"

    summary = tmp_path / "summary.json"
    code = main(["report", "--results", str(results), "--out", str(summary)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "speedup" in out
    doc = json.loads(summary.read_text())
    assert any(cell["mode"] == "depasync" for cell in doc.values())


def test_sweep_mode_axis(tmp_path):
    results = tmp_path / "results.csv"
    code = main(["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--axis", "mode=sync,se,depasync", "--grid", "2x2",
                 "--out", str(results)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(results.open()))
    assert sorted(r["mode"] for r in rows) == ["depasync", "se", "sync"]
    assert len({r["raster_sha256"] for r in rows}) == 1


def test_sweep_distinct_seeds_enforced(tmp_path):
    code = main(["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--axis", "m=2", "--seeds", "1,1",
                 "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_BAD_INPUT


def test_sweep_parallel_jobs_match_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    base = ["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
            "--axis", "vc=2,4", "--modes", "depasync", "--grid", "2x2"]
    assert main(base + ["--out", str(serial)]) == EXIT_OK
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == EXIT_OK
    assert serial.read_text() == parallel.read_text()


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "snnmesh.cli", "gen", "--kind", "layered",
         "--layers", "4,4", "--fanin", "2", "--t-max", "4",
         "--out", os.devnull],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_report_on_committed_fixture(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    code = main(["report", "--results", str(FIXTURES / "results.csv"),
                 "--out", str(summary)])
    assert code == EXIT_OK
    doc = json.loads(summary.read_text())
    assert "m|2|depasync" in doc
    assert doc["m|2|sync"]["harmonic_speedup"] == 0.0  # baseline vs itself
    out = capsys.readouterr().out
    assert "depasync" in out


def test_report_empty_results(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("axis,value,mode,seed,rep,total_cycles\n")
    assert main(["report", "--results", str(empty)]) == EXIT_BAD_INPUT


def test_summarize_results_harmonic_mean():
    rows = [
        {"axis": "m", "value": 2, "mode": "sync", "seed": 1, "rep": 0,
         "total_cycles": 100, "busy": 50, "wait": 50, "rollback_cycles": 0,
         "energy_total": 1000.0},
        {"axis": "m", "value": 2, "mode": "depasync", "seed": 1, "rep": 0,
         "total_cycles": 50, "busy": 50, "wait": 0, "rollback_cycles": 0,
         "energy_total": 500.0},
        {"axis": "m", "value": 2, "mode": "sync", "seed": 2, "rep": 0,
         "total_cycles": 100, "busy": 50, "wait": 50, "rollback_cycles": 0,
         "energy_total": 1000.0},
        {"axis": "m", "value": 2, "mode": "depasync", "seed": 2, "rep": 0,
         "total_cycles": 25, "busy": 25, "wait": 0, "rollback_cycles": 0,
         "energy_total": 250.0},
    ]
    summary = summarize_results(rows)
    cell = summary["m|2|depasync"]
    # harmonic mean of speedups 2 and 4 = 2 / (1/2 + 1/4) = 2.667
    assert abs(cell["harmonic_speedup"] - 8 / 3) < 1e-9
