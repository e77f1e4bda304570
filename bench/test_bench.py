"""Tests of the benchmark harness itself: ``python -m pytest bench``."""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run_bench  # noqa: E402


def test_smoke_mode_passes():
    out = subprocess.run([sys.executable, os.path.join(HERE, "run_bench.py"), "--smoke"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1]) == {"smoke": "ok", "problems": 0}


def test_gate_counts_a_tampered_raster_as_failed(tmp_path):
    clean = run_bench.run_job(run_bench.SMOKE, 0, run_bench.MODES, str(tmp_path))
    assert clean.errors == {}

    real_run = run_bench.engine.run

    def tampered(prog, cfg):
        report = real_run(prog, cfg)
        if cfg.mode == "se":
            report.raster = report.raster[:-1]
        return report

    run_bench.engine.run = tampered
    try:
        job = run_bench.run_job(run_bench.SMOKE, 0, run_bench.MODES, str(tmp_path))
    finally:
        run_bench.engine.run = real_run
    assert set(job.errors) == {"se"}
    assert "raster" in job.errors["se"]
    assert job.sha256["sync"] == clean.sha256["sync"]


def test_summary_percentile_keeps_ten_samples_beyond():
    s = run_bench.summary([float(i) for i in range(20)])
    assert s["n"] == 20
    assert s["pct"] == 50 and s["pct_value"] == 9.0
    assert sum(x > s["pct_value"] for x in range(20)) == 10
    assert run_bench.summary([1.0, 2.0, 3.0])["pct"] is None
