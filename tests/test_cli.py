import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from snnmesh import atomic, cli, compiler, metrics, model
from snnmesh.cli import (
    EXIT_BAD_INPUT,
    EXIT_COMPILE,
    EXIT_DEADLOCK,
    EXIT_IO,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_VERIFY_MISMATCH,
    env_overrides,
    main,
    summarize_results,
)

FIXTURES = Path(__file__).parent / "fixtures"


def child_env() -> dict:
    """This environment with the package's ``src`` first on PYTHONPATH, so
    a child ``python`` imports the checkout's snnmesh, installed or not."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


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
            "--grid", "2x2", "--mode", "depasync"]
    assert main(base + ["--out", str(out1)]) == EXIT_OK
    assert main(base + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_text() == out2.read_text()


def test_missing_file_exit_code(tmp_path):
    code = main(["run", "--program", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_MISSING_FILE


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "layered", "--layers", "4,4", "--fanin", "2", "--t-max", "4"],
    ["compile", "--workload", str(FIXTURES / "tiny_workload.json"), "--grid", "2x2"],
    ["run", "--program", str(FIXTURES / "tiny_program.json")],
    ["sweep", "--workload", str(FIXTURES / "tiny_workload.json"), "--axis", "m=2",
     "--grid", "2x2"],
    ["report", "--results", str(FIXTURES / "results.csv")],
], ids=lambda argv: argv[0])
def test_output_in_missing_directory_fails_before_any_work(tmp_path, capsys,
                                                           monkeypatch, argv):
    def no_work(*_args, **_kwargs):
        raise AssertionError("worked before checking the output path")

    for name in ("save_workload", "compile_network", "run", "summarize_results"):
        monkeypatch.setattr(cli, name, no_work)
    out = str(tmp_path / "nonexistent" / "x")
    assert main(argv + ["--out", out]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"snnmesh: error[io] cannot write {out}: its "
                            "directory does not exist\n")


def test_output_that_is_a_directory_fails_before_the_run(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(cli, "run", None)
    code = main(["run", "--program", str(FIXTURES / "tiny_program.json"),
                 "--out", str(tmp_path)])
    assert code == EXIT_IO
    assert capsys.readouterr().err == (f"snnmesh: error[io] cannot write "
                                       f"{tmp_path}: it is a directory\n")
    assert not list(tmp_path.parent.glob(f"{tmp_path.name}.tmp.*"))


def test_run_trace_in_missing_directory_fails_before_the_run(tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.setattr(cli, "run", None)
    trace = str(tmp_path / "nonexistent" / "t.csv")
    code = main(["run", "--program", str(FIXTURES / "tiny_program.json"),
                 "--out", str(tmp_path / "r.json"), "--trace", trace])
    assert code == EXIT_IO
    assert trace in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_bad_workload_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main(["compile", "--workload", str(bad), "--out",
                 str(tmp_path / "p.json")])
    assert code == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith(
        f"snnmesh: error[bad-input] {bad}: malformed workload document")


def test_zero_fifo_depth_is_bad_input_not_a_hang(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"grid": "2x2", "fifo_depth": 0}))
    code = main(["run", "--program", str(FIXTURES / "tiny_program.json"),
                 "--config", str(config), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_BAD_INPUT
    assert "fifo_depth" in capsys.readouterr().err


@pytest.mark.parametrize("env, config", [
    ({"SNNMESH_M": "abc"}, None),
    ({}, {"m": "4"}),
    ({}, {"grid": [2]}),
    ({}, ["m", 4]),
    ({}, {"mode": "se", "P": 2.5}),
    ({}, {"debug": "no"}),
    ({"SNNMESH_DEBUG": "on"}, None),
    ({"SNNMESH_TRACE": "enabled"}, None),
    ({}, {"seed": 0}),
    ({"SNNMESH_ENERGY_COSTS": "[" * 100_000 + "]" * 100_000}, None),
], ids=["env-m-text", "m-string", "grid-one-int", "config-list", "P-float",
        "debug-string", "env-debug-on", "env-trace-enabled", "seed-key",
        "env-energy-costs-nested-too-deeply"])
def test_malformed_config_is_bad_input(tmp_path, capsys, monkeypatch, env, config):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "r.json"
    argv = ["run", "--program", str(FIXTURES / "tiny_program.json"),
            "--out", str(out)]
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("snnmesh: error[bad-input] ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["[" * 100_000 + "]" * 100_000, "{" + "x" * 200_000],
                         ids=["nested-too-deeply", "long-garbage"])
def test_long_bad_value_is_cut_in_its_one_line_error(tmp_path, capsys, monkeypatch,
                                                     value):
    monkeypatch.setenv("SNNMESH_ENERGY_COSTS", value)
    code = main(["run", "--program", str(FIXTURES / "tiny_program.json"),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.count("\n") == 1
    assert "energy_costs cannot be " in err
    assert len(err) < 200


@pytest.mark.parametrize("flags", [
    ["--axis", "m=two"],
    ["--axis", "exchange=lots"],
    ["--axis", "m"],
    ["--axis", "m="],
    ["--axis", "m=2", "--seeds", "a,b"],
    ["--axis", "m=2,02"],
    ["--axis", "m=2", "--modes", "sync,se,sync"],
], ids=["m-text", "exchange-text", "no-equals", "no-value", "seeds-text",
        "repeated-value", "repeated-mode"])
def test_malformed_sweep_is_bad_input(tmp_path, capsys, flags):
    out = tmp_path / "r.csv"
    code = main(["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--grid", "2x2", "--out", str(out)] + flags)
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("snnmesh: error[bad-input] ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_config_flags_land_on_their_keys(tmp_path):
    out = tmp_path / "r.json"
    code = main(["run", "--program", str(FIXTURES / "tiny_program.json"),
                 "--mode", "se", "--vc", "2", "--period", "3", "--debug",
                 "--out", str(out)])
    assert code == EXIT_OK
    config = json.loads(out.read_text())["config"]
    assert (config["n_vc"], config["P"], config["debug"]) == (2, 3, True)

    path = tmp_path / "c.json"
    path.write_text(json.dumps({"debug": True}))
    code = main(["run", "--program", str(FIXTURES / "tiny_program.json"),
                 "--config", str(path), "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["config"]["debug"] is True


def test_run_defaults_to_the_program_grid(tmp_path):
    out = tmp_path / "r.json"
    code = main(["run", "--program", str(FIXTURES / "tiny_program.json"),
                 "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["config"]["grid"] == [2, 2]
    assert doc["total_cycles"] == 1669


_ENTRY = ("cores", 0, "fanout", "0", 0)


@pytest.mark.parametrize("path, value", [
    (_ENTRY + ("dst_core",), 99),
    (_ENTRY + ("dst_core",), 1.0),
    (_ENTRY + ("synapse_id",), 99999),
    (_ENTRY + ("delay",), 0),
    (_ENTRY + ("delay",), 50),
    # older files also carry a fanout weight; it is ignored, not checked
    (("cores", 0, "fanout", "999"),
     [{"dst_core": 0, "synapse_id": 0, "delay": 1, "weight": "1.0"}]),
    (("cores", 0, "neuron_ids", 0), 9999),
    (("cores", 1, "neuron_ids", 0), 0),
    (("cores", 0, "in_synapses", 0, "target"), 9999),
    (("cores", 1, "id"), 0),
    (("placement",), [[0, 0], [1, 0], [0, 1]]),
    (("placement",), [[0, 0]] * 4),
    (("placement", 3), [2, 1]),
    (("inputs", 0, "neuron"), 9999),
    (("inputs", 0, "timestep"), -3),
    (("t_max",), -5),
    (("max_delay",), 2.5),
    (("grid",), [2.0, 2]),
    (("cores", 0, "fanout"), []),
    (("cores", 0, "fanout"), "ab"),
    (("neurons", 0, "tau_m"), True),
], ids=["dst_core-99", "dst_core-float", "synapse_id-99999", "delay-0",
        "delay-50", "fanout-key-past-slice", "neuron_id-past-table",
        "neuron_id-twice", "in_synapses-target-9999", "core-id-twice",
        "placement-short", "placement-shared", "placement-off-grid",
        "input-neuron-9999", "input-timestep-negative", "t_max-negative",
        "max_delay-float", "grid-float", "fanout-list", "fanout-string",
        "neuron-tau_m-true"])
def test_malformed_program_is_a_compile_error(tmp_path, capsys, path, value):
    doc = json.loads((FIXTURES / "tiny_program.json").read_text(encoding="utf-8"))
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    node[key] = value
    prog = tmp_path / "p.json"
    prog.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["run", "--program", str(prog), "--grid", "2x2",
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == EXIT_COMPILE
    assert err.startswith("snnmesh: error[compile] ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("path, value, field", [
    (("synapses", 0, "delay"), 1.0, "delay"),
    (("inputs", 0, "timestep"), 1.0, "timestep"),
    (("t_max",), 24.0, "t_max"),
    (("max_delay",), 2.0, "max_delay"),
    (("synapses", 0, "src"), 42.0, "src"),
    (("synapses", 0, "delay"), 1.5, "delay"),
    (("synapses", 0, "delay"), True, "delay"),
    (("inputs", 0, "neuron"), 0.0, "neuron"),
    (("synapses", 0, "src"), True, "src"),
    (("inputs", 1, "neuron"), 0.0, "neuron"),  # after an event of neuron 0
], ids=["delay-1.0", "timestep-1.0", "t_max-24.0", "max_delay-2.0", "src-42.0",
        "delay-1.5", "delay-true", "neuron-0.0", "src-true", "neuron-0.0-second"])
@pytest.mark.parametrize("command", ["compile", "verify"])
def test_non_integer_workload_index_is_bad_input(tmp_path, capsys, path, value,
                                                 field, command):
    """A float or a bool where the workload holds an index passes a range
    check; each must be rejected on load, naming the field, before a
    program is written."""
    doc = json.loads((FIXTURES / "tiny_workload.json").read_text(encoding="utf-8"))
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    node[key] = value
    workload, prog = tmp_path / "w.json", tmp_path / "p.json"
    workload.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["--workload", str(workload), "--grid", "2x2"]
    if command == "compile":
        argv += ["--out", str(prog)]
    assert main([command] + argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"snnmesh: error[bad-input] {workload}: ")
    assert f"{field} must be an int, got {value!r}" in err
    assert err.count("\n") == 1
    assert not prog.exists()


@pytest.mark.parametrize("path, value, message", [
    (("synapses", 0, "delay"), 3, "has delay outside [1, 2]"),
    (("inputs", 0, "neuron"), 48, "references unknown neuron 48"),
    (("inputs", 0, "timestep"), 24, "at t=24 outside [0, 24)"),
    (("layers",), [40, 7], "layer sizes do not sum to the neuron count"),
    (("layers",), [48, 0], "layer sizes must be positive"),
    (("synapses", 0, "weight"), True, "True is not a fixed-point number"),
    (("neurons", 0, "tau_m"), True, "True is not a fixed-point number"),
], ids=["delay-above-max", "neuron-out-of-range", "timestep-at-t_max",
        "layers-sum", "layer-of-size-0", "weight-true", "tau_m-true"])
def test_out_of_range_workload_field_is_bad_input(tmp_path, capsys, path, value,
                                                  message):
    doc = json.loads((FIXTURES / "tiny_workload.json").read_text(encoding="utf-8"))
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    node[key] = value
    workload, prog = tmp_path / "w.json", tmp_path / "p.json"
    workload.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["compile", "--workload", str(workload), "--grid", "2x2",
                 "--out", str(prog)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"snnmesh: error[bad-input] {workload}: ")
    assert message in err and err.count("\n") == 1
    assert not prog.exists()


def _record_lists(doc: dict) -> list[tuple[str, list]]:
    """(kind, list) for each list of records in a program or workload
    document."""
    lists = [("neuron", doc["neurons"]), ("input", doc["inputs"])]
    if "cores" in doc:
        lists.append(("core", doc["cores"]))
        for core in doc["cores"]:
            lists += [("fanout", entries) for entries in core["fanout"].values()]
            lists.append(("in-synapse", core["in_synapses"]))
    else:
        lists.append(("synapse", doc["synapses"]))
    return lists


# the last is shaped like a decoded fanout record, but is a JSON list
_JSON_VALUES = st.sampled_from([[], 0, "x", None, {}, [0, 0, 1]])


@pytest.mark.parametrize("fixture", ["tiny_program.json", "tiny_workload.json"])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=st.sampled_from(["move", "replace", "drop-key", "add-key"]),
       data=st.data())
def test_record_mutation_exits_with_its_code(tmp_path, capsys, fixture, mutation,
                                             data):
    """A record moved into a list of another kind, replaced by another value
    or missing a key fails to load with the file's exit code and one line;
    a record with a key added loads as the unchanged file does."""
    program = fixture == "tiny_program.json"
    doc = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    lists = _record_lists(doc)
    kind, items = data.draw(st.sampled_from([(k, rs) for k, rs in lists if rs]))
    i = data.draw(st.integers(0, len(items) - 1))
    if mutation == "move":
        target = data.draw(st.sampled_from([rs for k, rs in lists if k != kind]))
        target.insert(data.draw(st.integers(0, len(target))), items.pop(i))
    elif mutation == "replace":
        items[i] = data.draw(_JSON_VALUES)
    elif mutation == "drop-key":
        del items[i][data.draw(st.sampled_from(sorted(items[i])))]
    else:
        key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in items[i]))
        items[i][key] = data.draw(_JSON_VALUES)
    path, out = tmp_path / "mutated.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    load = compiler.load_program if program else model.load_workload
    as_dict = compiler.program_to_dict if program else model.network_to_dict
    if mutation == "add-key":
        assert as_dict(load(path)) == as_dict(load(FIXTURES / fixture))
        return
    argv = (["run", "--program"] if program else ["compile", "--workload"]) + [
        str(path), "--grid", "2x2", "--out", str(out)]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == (EXIT_COMPILE if program else EXIT_BAD_INPUT), err
    assert err.startswith(f"snnmesh: error[{'compile' if program else 'bad-input'}] {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


_BAD_FILE_CASES = {
    "run-program": (lambda bad, out: ["run", "--program", bad, "--out", out],
                    EXIT_COMPILE),
    "verify-workload": (lambda bad, out: ["verify", "--workload", bad],
                        EXIT_BAD_INPUT),
    "compile-workload": (lambda bad, out: ["compile", "--workload", bad,
                                           "--out", out], EXIT_BAD_INPUT),
    "report-results": (lambda bad, out: ["report", "--results", bad],
                       EXIT_BAD_INPUT),
    "run-config": (lambda bad, out: ["run", "--program",
                                     str(FIXTURES / "tiny_program.json"),
                                     "--config", bad, "--out", out],
                   EXIT_BAD_INPUT),
}


@pytest.mark.parametrize("argv_of,code,content", [
    pytest.param(*case, content, id=name + suffix)
    for content, suffix in [(b"\xff\xfe", ""), (b"{", "-invalid-json"),
                            (b"[" * 100_000 + b"]" * 100_000, "-nested-too-deeply")]
    for name, case in _BAD_FILE_CASES.items()
])
def test_file_that_is_not_utf8_fails_like_invalid_json(tmp_path, capsys,
                                                       argv_of, code, content):
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_bytes(content)
    assert main(argv_of(str(bad), str(out))) == code
    err = capsys.readouterr().err
    assert err.startswith("snnmesh: error[") and err.count("\n") == 1
    assert err.split("] ", 1)[1].startswith(str(bad))  # names the file first
    assert not out.exists()


def test_compile_capacity_error_exit_code(tmp_path):
    code = main(["compile", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--grid", "2x2", "--max-neurons-per-core", "5",
                 "--out", str(tmp_path / "p.json")])
    assert code == EXIT_COMPILE


def test_compile_cores_places_that_many_cores(tmp_path, capsys):
    workload = str(FIXTURES / "tiny_workload.json")
    prog_path = tmp_path / "p.json"
    assert main(["compile", "--workload", workload, "--grid", "2x2",
                 "--cores", "3", "--out", str(prog_path)]) == EXIT_OK
    prog = compiler.load_program(prog_path)
    assert prog.n_cores == 3 and len(prog.placement) == 3
    ref = model.reference_run(model.load_workload(workload)).ordered()
    for mode in ("sync", "se", "depasync"):
        report = tmp_path / f"{mode}.json"
        assert main(["run", "--program", str(prog_path), "--mode", mode,
                     "--out", str(report)]) == EXIT_OK
        assert [tuple(p) for p in json.loads(report.read_text())["raster"]] == ref

    capsys.readouterr()
    too_many = tmp_path / "five.json"
    assert main(["compile", "--workload", workload, "--grid", "2x2",
                 "--cores", "5", "--out", str(too_many)]) == EXIT_COMPILE
    assert "5 cores exceed the 2x2 grid" in capsys.readouterr().err
    assert not too_many.exists()


@pytest.mark.parametrize("argv, code, message", [
    (["sweep", "--axis", "rate=0.5"], EXIT_BAD_INPUT,
     "rate sweeps need --neurons and --synapses"),
    (["sweep", "--axis", "m=2"], EXIT_BAD_INPUT, "sweep needs --workload"),
    (["gen", "--kind", "layered", "--layers", "5"], EXIT_BAD_INPUT,
     "need at least 2 layers"),
    (["gen", "--kind", "layered", "--layers", "5,0"], EXIT_BAD_INPUT,
     "layer sizes must be positive"),
    (["gen", "--kind", "synthetic", "--neurons", "0", "--synapses", "3"],
     EXIT_BAD_INPUT, "synapses require neurons"),
    (["gen", "--kind", "synthetic", "--frac-inhibitory", "1.5"], EXIT_BAD_INPUT,
     "frac_inhibitory must be in [0, 1]"),
    (["gen", "--kind", "synthetic", "--rate", "1.5"], EXIT_BAD_INPUT,
     "rate level must be in [0, 1]"),
    (["compile", "--workload", "five_layers.json", "--grid", "2x2"], EXIT_COMPILE,
     "cannot fit 5 layers on 4 cores"),
    (["compile", "--workload", str(FIXTURES / "tiny_workload.json"),
      "--mapping", "hilbert", "--cores", "5", "--grid", "2x2"], EXIT_COMPILE,
     "5 cores exceed the 2x2 grid"),
    (["run", "--program", "no_neurons.json"], EXIT_COMPILE,
     "neuron records must be a list"),
], ids=["sweep-rate-without-size", "sweep-without-workload", "gen-one-layer",
        "gen-empty-layer", "gen-synapses-without-neurons",
        "gen-frac-inhibitory-above-1", "gen-rate-above-1",
        "compile-more-layers-than-cores", "compile-hilbert-more-cores-than-cells",
        "run-neurons-not-a-list"])
def test_refused_input_exits_with_its_code(tmp_path, monkeypatch, capsys, argv,
                                           code, message):
    monkeypatch.chdir(tmp_path)
    model.save_workload(model.gen_layered([4, 3, 2, 1, 1], fanin=1, t_max=3),
                        "five_layers.json")
    doc = json.loads((FIXTURES / "tiny_program.json").read_text(encoding="utf-8"))
    doc["neurons"] = {}
    Path("no_neurons.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main([*argv, "--out", "out.json"]) == code
    err = capsys.readouterr().err
    kind = "bad-input" if code == EXIT_BAD_INPUT else "compile"
    assert err.startswith(f"snnmesh: error[{kind}] ") and err.count("\n") == 1
    assert message in err
    assert not Path("out.json").exists()


def test_program_compiled_under_a_larger_dep_table_loads_and_runs(tmp_path, capsys):
    # 272 one-neuron cores; neuron 0 sends to and hears from every other one,
    # so core 0 has 542 dependencies: more than the default table's 512
    from snnmesh.fixedpoint import fx
    from snnmesh.model import Network, NeuronParams, Synapse

    n = 17 * 16
    params = NeuronParams(tau_m=fx(2.0), v_rst=0, g_l=fx(1.0), v_th=fx(1.0))
    net = Network(
        neurons=[(params, 0)] * n,
        synapses=[Synapse(src=a, dst=b, weight=fx(2.0), delay=1)
                  for k in range(1, n) for a, b in ((0, k), (k, 0))],
        inputs={0: [(0, fx(4.0))]}, t_max=3, max_delay=1)
    prog = compiler.compile_network(net, (17, 16), capacity=compiler.Capacity(
        max_deps=1024), assignment=list(range(n)))
    path = tmp_path / "p.json"
    compiler.save_program(prog, path)
    assert compiler.load_program(path).dep_graph == prog.dep_graph
    code = main(["run", "--program", str(path), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_OK, capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    ("--max-neurons-per-core", "0", "max_neurons"),
    ("--max-neurons-per-core", "-2", "max_neurons"),
    ("--max-synapses-per-core", "0", "max_synapses"),
    ("--max-synapses-per-core", "-1", "max_synapses"),
])
def test_capacity_below_one_is_a_compile_error(tmp_path, capsys, flag, value,
                                               field):
    """Rejected on its own, also for a workload that never reaches it (one
    without synapses)."""
    doc = json.loads((FIXTURES / "tiny_workload.json").read_text(encoding="utf-8"))
    doc["synapses"] = []
    no_synapses = tmp_path / "w.json"
    no_synapses.write_text(json.dumps(doc), encoding="utf-8")
    for workload in (FIXTURES / "tiny_workload.json", no_synapses):
        code = main(["compile", "--workload", str(workload), "--grid", "2x2",
                     flag, value, "--out", str(tmp_path / "p.json")])
        err = capsys.readouterr().err
        assert code == EXIT_COMPILE
        assert err == f"snnmesh: error[compile] capacity {field} must be >= 1, got {value}\n"
        assert not (tmp_path / "p.json").exists()


def test_synapse_capacity_is_the_largest_incoming_table(tmp_path, capsys):
    # on 2x2 the tiny workload's fullest core holds 113 incoming synapses
    out = tmp_path / "p.json"
    argv = ["compile", "--workload", str(FIXTURES / "tiny_workload.json"),
            "--grid", "2x2", "--out", str(out), "--max-synapses-per-core"]
    assert main(argv + ["113"]) == EXIT_OK
    out.unlink()
    assert main(argv + ["112"]) == EXIT_COMPILE
    assert capsys.readouterr().err == (
        "snnmesh: error[compile] core 0 exceeds its synapse capacity 112\n")
    assert not out.exists()


def test_run_on_a_grid_smaller_than_the_placement_is_bad_input(tmp_path, capsys):
    prog = tmp_path / "p.json"
    assert main(["compile", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--grid", "4x4", "--out", str(prog)]) == EXIT_OK
    code = main(["run", "--program", str(prog), "--grid", "2x2",
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("snnmesh: error[bad-input] ") and err.count("\n") == 1
    assert "outside 2x2 grid" in err
    assert not (tmp_path / "r.json").exists()


def test_deadlock_exit_code(tmp_path, capsys):
    # mutual dependency with m=1 can never advance past t=0
    from snnmesh.compiler import compile_network, save_program
    from snnmesh.fixedpoint import fx
    from snnmesh.model import Network, NeuronParams, Synapse

    p = NeuronParams(tau_m=fx(2.0), v_rst=0, g_l=fx(1.0), v_th=fx(16.0))
    net = Network(neurons=[(p, 0)] * 2,
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


def test_verify_fails_a_mode_on_violations_alone(tmp_path, capsys, monkeypatch):
    # with every weight 0 only the input spikes fire, so each raster matches;
    # an admission rule blind to the consumer window still overruns the
    # depasync input store, and that alone fails the mode
    import dataclasses

    from snnmesh.engine import DependencyDriven
    from snnmesh.model import gen_layered, save_workload

    net = gen_layered([64, 64, 64], fanin=8, seed=3, t_max=40)
    net.synapses = [dataclasses.replace(s, weight=0) for s in net.synapses]
    path = tmp_path / "w.json"
    save_workload(net, path)

    def window_blind(self, core):
        return all(t >= core.t_cur for t in core.pre_finish.values())

    monkeypatch.setattr(DependencyDriven, "admits", window_blind)
    code = main(["verify", "--workload", str(path), "--grid", "2x2", "--m", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFY_MISMATCH
    lines = dict(line.split(": ", 1) for line in captured.out.splitlines())
    assert lines["sync"].endswith(" ok") and lines["se"].endswith(" ok")
    assert lines["depasync"].endswith(" violations: receptions outside the buffer window")
    assert captured.err.startswith("snnmesh: error[verify-mismatch] depasync: ")
    assert captured.err.count("\n") == 1


def test_verify_with_shortened_horizon(capsys):
    # an overridden t_max must truncate the reference comparison too
    code = main(["verify", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--grid", "2x2", "--t-max", "10"])
    assert code == EXIT_OK
    assert "all modes match" in capsys.readouterr().out


def test_verify_with_huge_max_delay(tmp_path, capsys):
    # the schema asks only max_delay >= 1; the oracle's delay ring must not
    # be sized by it
    from snnmesh.model import gen_layered, save_workload
    net = gen_layered([4, 3], fanin=2, seed=1, t_max=5)
    net.max_delay = 10**12
    path = tmp_path / "w.json"
    save_workload(net, path)
    code = main(["verify", "--workload", str(path), "--grid", "2x2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "all modes match" in out
    assert out.count(" ok\n") == 3


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


def test_bad_energy_cost_in_config_file_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "2x2", "energy_costs": {"noc_hop": "x"}}))
    code = main(["run", "--program", str(FIXTURES / "tiny_program.json"),
                 "--config", str(cfg), "--mode", "sync",
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_BAD_INPUT
    assert "noc_hop" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_env_overrides_config(monkeypatch):
    monkeypatch.setenv("SNNMESH_M", "8")
    monkeypatch.setenv("SNNMESH_MODE", "sync")
    monkeypatch.setenv("SNNMESH_GRID", "2x2")
    monkeypatch.setenv("SNNMESH_TRACE", "true")
    over = env_overrides()
    assert over == {"m": 8, "mode": "sync", "grid": (2, 2), "trace": True}
    for word in ("0", "false", "No", "FALSE"):
        assert env_overrides({"SNNMESH_DEBUG": word}) == {"debug": False}


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


def test_mode_axis_report_equals_the_m4_report(tmp_path):
    # the mode axis runs at the default m=4; its sync baseline is the row
    # whose value is "sync", not a row with each mode's own value
    cells = {}
    for axis in ("mode=sync,se,depasync", "m=4"):
        results, summary = tmp_path / "results.csv", tmp_path / "summary.json"
        assert main(["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
                     "--axis", axis, "--grid", "2x2", "--out", str(results)]) == EXIT_OK
        assert main(["report", "--results", str(results),
                     "--out", str(summary)]) == EXIT_OK
        cells[axis] = {cell["mode"]: {k: v for k, v in cell.items()
                                      if k not in ("axis", "value")}
                       for cell in json.loads(summary.read_text()).values()}
    assert cells["mode=sync,se,depasync"] == cells["m=4"]
    assert cells["m=4"]["depasync"]["harmonic_speedup"] > 0
    assert cells["m=4"]["se"]["harmonic_energy_efficiency"] > 0


@pytest.mark.parametrize("horizon,env", [([], {}), ([], {"SNNMESH_T_MAX": "5"}),
                                         (["--t-max", "5"], {})],
                         ids=["default", "env", "flag"])
def test_rate_sweep_regenerates_with_the_merged_horizon(tmp_path, monkeypatch,
                                                        horizon, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "r.csv"
    code = main(["sweep", "--axis", "rate=0.5", "--neurons", "10", "--synapses", "5",
                 "--grid", "2x2", "--modes", "sync", "--out", str(out), *horizon])
    assert code == EXIT_OK
    spikes = int(next(csv.DictReader(out.open()))["spikes"])
    # the merged config's horizon, else the generator's default one
    from snnmesh.model import gen_synthetic, rate_knobs_for_level, reference_run
    net = gen_synthetic(10, 5, rate_knobs=rate_knobs_for_level(0.5), seed=0,
                        **({"t_max": 5} if horizon or env else {}))
    assert spikes == len(reference_run(net))


def test_sweep_distinct_seeds_enforced(tmp_path, capsys):
    # on a seeded axis, where more than one seed is read
    code = main(["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--axis", "exchange=0.5", "--seeds", "1,1",
                 "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_BAD_INPUT
    assert "seeds must be distinct" in capsys.readouterr().err
    # grid values are told apart as grids, not as text: 2X2 is 2x2
    out = tmp_path / "g.csv"
    code = main(["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--axis", "grid=2x2,2X2", "--modes", "sync", "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert "axis values must be distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-0.5"])
def test_sweep_exchange_outside_unit_interval_fails_as_compile_does(
        tmp_path, capsys, value):
    workload = str(FIXTURES / "tiny_workload.json")
    out = tmp_path / "r.csv"
    code = main(["sweep", "--workload", workload, "--axis", f"exchange={value}",
                 "--grid", "2x2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_COMPILE
    assert err.startswith("snnmesh: error[compile] ") and err.count("\n") == 1
    assert not out.exists()
    assert main(["compile", "--workload", workload, "--grid", "2x2",
                 "--exchange-frac", value,
                 "--out", str(tmp_path / "p.json")]) == EXIT_COMPILE


@pytest.mark.parametrize("argv,code,flag", [
    (["sweep", "--axis", "m=2,4", "--seeds", "0,1"], EXIT_BAD_INPUT, "--seeds"),
    (["sweep", "--axis", "mode=sync,se", "--modes", "depasync"], EXIT_BAD_INPUT,
     "--modes"),
    (["verify", "--mode", "se"], 2, "--mode"),
    (["sweep", "--axis", "m=2", "--mode", "sync"], 2, "--mode"),
    (["sweep", "--axis", "m=2", "--reps", "2"], 2, "--reps"),
    (["sweep", "--axis", "m=2", "--neurons", "5"], EXIT_BAD_INPUT, "--neurons"),
    (["sweep", "--axis", "m=2", "--synapses", "3"], EXIT_BAD_INPUT, "--synapses"),
    # the harness below adds --workload and --grid to every command
    (["sweep", "--axis", "rate=0.5", "--neurons", "10", "--synapses", "5"],
     EXIT_BAD_INPUT, "--workload"),
    (["sweep", "--axis", "mapping=plain,hilbert", "--mapping", "hilbert"],
     EXIT_BAD_INPUT, "--mapping"),
    (["sweep", "--axis", "grid=2x2,3x2"], EXIT_BAD_INPUT, "set by --grid"),
    (["sweep", "--axis", "m=2", "--m", "8"], EXIT_BAD_INPUT, "set by --m"),
    (["sweep", "--axis", "vc=2", "--vc", "4"], EXIT_BAD_INPUT, "set by --vc"),
], ids=["seeds-on-m", "modes-on-mode", "verify-mode", "sweep-mode", "sweep-reps",
        "neurons-on-m", "synapses-on-m", "workload-on-rate", "mapping-on-mapping",
        "grid-on-grid", "m-on-m", "vc-on-vc"])
def test_command_refuses_an_input_it_would_not_read(tmp_path, capsys, monkeypatch,
                                                    argv, code, flag):
    def never(*_a, **_k):
        raise AssertionError("compiled or ran with an input it does not read")

    monkeypatch.setattr(cli, "compile_network", never)
    monkeypatch.setattr(cli, "run", never)
    out = tmp_path / "r.csv"
    command, *flags = argv
    argv = [command, "--workload", str(FIXTURES / "tiny_workload.json"),
            "--grid", "2x2", *flags]
    if command == "sweep":
        argv += ["--out", str(out)]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse's usage error
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert flag in err
    if code == EXIT_BAD_INPUT:
        assert err.startswith("snnmesh: error[bad-input] ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "env"])
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_a_command_that_runs_every_mode_refuses_a_set_mode(tmp_path, capsys,
                                                           monkeypatch, command,
                                                           source):
    def never(*_a, **_k):
        raise AssertionError("compiled or ran with a mode it does not read")

    monkeypatch.setattr(cli, "compile_network", never)
    monkeypatch.setattr(cli, "run", never)
    out = tmp_path / "r.csv"
    argv = [command, "--workload", str(FIXTURES / "tiny_workload.json"),
            "--grid", "2x2"]
    if command == "sweep":
        argv += ["--axis", "m=2", "--out", str(out)]
    if source == "config":
        named = tmp_path / "c.json"
        named.write_text(json.dumps({"mode": "se"}))
        argv += ["--config", str(named)]
    else:
        named = "SNNMESH_MODE"
        monkeypatch.setenv(named, "se")
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith(f"snnmesh: error[bad-input] mode set by {named} ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_run_reads_the_mode_from_config_and_environment(tmp_path, monkeypatch):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"mode": "se"}))
    out = tmp_path / "r.json"
    argv = ["run", "--program", str(FIXTURES / "tiny_program.json"),
            "--out", str(out)]
    assert main(argv + ["--config", str(config)]) == EXIT_OK
    assert json.loads(out.read_text())["mode"] == "se"
    monkeypatch.setenv("SNNMESH_MODE", "sync")
    assert main(argv + ["--config", str(config)]) == EXIT_OK
    assert json.loads(out.read_text())["mode"] == "sync"


def test_sweep_parallel_jobs_match_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    # one program under two configs; one program under every (m, mode);
    # two programs, so tasks name programs by index; a program per (value,
    # seed)
    for axis, modes, flags in (
            ("vc=2,4", "depasync", ["--grid", "2x2"]),
            ("m=2,3,4", "sync,se,depasync", ["--grid", "2x2"]),
            ("grid=2x2,3x2", "sync,se,depasync", []),
            ("exchange=0,0.5", "sync,depasync", ["--grid", "2x2", "--seeds", "0,1"])):
        base = ["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
                "--axis", axis, "--modes", modes, *flags]
        assert main(base + ["--out", str(serial)]) == EXIT_OK
        assert main(base + ["--jobs", "2", "--out", str(parallel)]) == EXIT_OK
        assert serial.read_text() == parallel.read_text(), axis


def _counted_sweep(tmp_path, monkeypatch, *flags):
    """The compile, run and image-build calls of a sweep, and its rows."""
    calls = {"compile_network": 0, "run": 0, "build_image": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        owner = compiler if name == "build_image" else cli
        monkeypatch.setattr(owner, name, counted(owner, name))
    results = tmp_path / "results.csv"
    assert main(["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--grid", "2x2", *flags, "--out", str(results)]) == EXIT_OK
    return calls, list(csv.DictReader(results.open()))


def test_sweep_simulates_each_distinct_point_once(tmp_path, monkeypatch):
    # m is a config axis: one program and one runtime image, and a run per
    # (m, mode) row
    calls, rows = _counted_sweep(tmp_path, monkeypatch, "--axis", "m=2,4,8")
    assert calls == {"compile_network": 1, "run": 9, "build_image": 1}
    assert len(rows) == 9


def test_sweep_compiles_a_program_per_seed_on_a_seeded_axis(tmp_path, monkeypatch):
    # the exchange axis reads the seed: a program and a run per (value, seed)
    calls, rows = _counted_sweep(tmp_path, monkeypatch, "--axis", "exchange=0.5",
                                 "--seeds", "0,1", "--modes", "sync")
    assert calls == {"compile_network": 2, "run": 2, "build_image": 2}
    assert [r["seed"] for r in rows] == ["0", "1"]


def test_sweep_copied_rows_match_in_parallel(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    base = ["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
            "--axis", "m=2,4", "--modes", "sync,se", "--grid", "2x2"]
    assert main(base + ["--out", str(serial)]) == EXIT_OK
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == EXIT_OK
    assert serial.read_text() == parallel.read_text()
    assert len(serial.read_text().splitlines()) == 1 + 2 * 2


def test_python_dash_m_snnmesh_passes_the_exit_code_through(tmp_path):
    missing = tmp_path / "missing.json"
    proc = subprocess.run(
        [sys.executable, "-m", "snnmesh", "run", "--program", str(missing),
         "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == EXIT_MISSING_FILE
    assert proc.stderr.startswith("snnmesh: error[missing-file] ")


class _FailsOnSecondWrite:
    """A text file whose second ``write`` raises, so the first has already
    put part of the text into it."""

    def __init__(self, f):
        self._f, self._writes = f, 0

    def write(self, text):
        self._writes += 1
        if self._writes > 1:
            raise OSError("disk full")
        return self._f.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._f.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._f, name)


def _write_sweep(path):
    args = cli.make_parser().parse_args([
        "sweep", "--workload", str(FIXTURES / "tiny_workload.json"), "--axis", "m=2",
        "--modes", "sync", "--grid", "2x2", "--out", str(path)])
    args.func(args)


def _small_report():
    from snnmesh import engine

    prog = compiler.load_program(FIXTURES / "tiny_program.json")
    return engine.run(prog, engine.SimConfig(grid=(2, 2), mode="sync", trace=True))


_WRITERS = {
    "save_program": lambda path: compiler.save_program(
        compiler.load_program(FIXTURES / "tiny_program.json"), path),
    "save_workload": lambda path: model.save_workload(
        model.load_workload(FIXTURES / "tiny_workload.json"), path),
    "write_json": lambda path: metrics.write_json(path, {"a": [1, 2, 3], "b": "c"}),
    "export_trace_csv": lambda path: metrics.export_trace_csv(_small_report(), path),
    "sweep": _write_sweep,
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_failed_write_keeps_the_old_file_and_no_temporary(tmp_path, monkeypatch,
                                                          writer):
    """Every file is written through ``atomic.atomic_open``: a write that
    fails half way leaves the target as it was and removes its temporary."""
    target = tmp_path / "out.txt"
    target.write_text("old\n", encoding="utf-8")
    real_open = open
    monkeypatch.setattr(atomic, "open", raising=False,
                        value=lambda *a, **k: _FailsOnSecondWrite(real_open(*a, **k)))
    with pytest.raises(OSError, match="disk full"):
        _WRITERS[writer](target)
    assert target.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "snnmesh.cli", "gen", "--kind", "layered",
         "--layers", "4,4", "--fanin", "2", "--t-max", "4",
         "--out", os.devnull],
        capture_output=True, text=True, env=child_env(),
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


def test_committed_results_fixture_equals_a_fresh_sweep(tmp_path):
    # the fixture is this sweep's output; a model change that moves any of
    # its numbers must regenerate it with the same command
    results = tmp_path / "results.csv"
    assert main(["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--axis", "m=2,4", "--seeds", "1", "--grid", "2x2",
                 "--out", str(results)]) == EXIT_OK
    assert results.read_bytes() == (FIXTURES / "results.csv").read_bytes()


def test_report_reads_results_saved_with_a_byte_order_mark(tmp_path, capsys):
    plain = FIXTURES / "results.csv"
    assert main(["report", "--results", str(plain)]) == EXIT_OK
    want = capsys.readouterr().out
    marked = tmp_path / "results.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert main(["report", "--results", str(marked)]) == EXIT_OK
    assert capsys.readouterr().out == want


def test_report_reads_results_written_with_a_rep_column(tmp_path, capsys):
    # sweeps once wrote a rep column after seed; such a file still reports
    plain = FIXTURES / "results.csv"
    assert main(["report", "--results", str(plain)]) == EXIT_OK
    want = capsys.readouterr().out
    header, *lines = plain.read_text(encoding="utf-8").splitlines()
    old = tmp_path / "results.csv"
    old.write_text("\n".join(
        [header.replace(",seed,", ",seed,rep,")]
        + [",".join(fields[:4] + ["0"] + fields[4:])
           for fields in (line.split(",") for line in lines)]) + "\n",
        encoding="utf-8")
    assert main(["report", "--results", str(old)]) == EXIT_OK
    assert capsys.readouterr().out == want


def test_run_report_file_is_the_export_report_file(tmp_path):
    from snnmesh import engine, metrics

    prog = FIXTURES / "tiny_program.json"
    out = tmp_path / "run.json"
    assert main(["run", "--program", str(prog), "--out", str(out)]) == EXIT_OK
    cfg = engine.SimConfig.from_dict(json.loads(out.read_text())["config"])
    exported = tmp_path / "exported.json"
    metrics.export_report(engine.run(compiler.load_program(prog), cfg), exported)
    assert out.read_bytes() == exported.read_bytes()


def test_report_empty_results(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("axis,value,mode,seed,rep,total_cycles\n")
    assert main(["report", "--results", str(empty)]) == EXIT_BAD_INPUT


@pytest.mark.parametrize("csv_text", [
    "axis,mode,seed,rep,total_cycles\nm,sync,1,0,10\n",
    "axis,value,mode,seed,rep,total_cycles\nm,2,sync,one,0,10\n",
    "axis,value,mode,seed,rep,total_cycles\nm,2,sync,1,x,10\n",
    "axis,value,mode,seed,rep,total_cycles\nm,2,sync,1,0,many\n",
], ids=["no-value-column", "seed-not-a-number", "rep-not-a-number",
        "cycles-not-a-number"])
def test_report_malformed_results(tmp_path, capsys, csv_text):
    bad = tmp_path / "bad.csv"
    bad.write_text(csv_text)
    assert main(["report", "--results", str(bad)]) == EXIT_BAD_INPUT
    assert "error[bad-input]" in capsys.readouterr().err


@pytest.mark.parametrize("kind_args", [
    ["--kind", "synthetic", "--neurons", "10", "--synapses", "10"],
    ["--kind", "layered", "--layers", "10,10"],
], ids=["synthetic", "layered"])
@pytest.mark.parametrize("horizon", [["--max-delay", "0"], ["--t-max", "-1"]],
                         ids=["max-delay-0", "t-max-negative"])
def test_gen_rejects_bad_horizon(tmp_path, capsys, kind_args, horizon):
    out = tmp_path / "w.json"
    assert main(["gen", *kind_args, *horizon, "--out", str(out)]) == EXIT_BAD_INPUT
    assert "error[bad-input]" in capsys.readouterr().err
    assert not out.exists()


def test_gen_rejects_nan_input_rate(tmp_path, capsys):
    out = tmp_path / "w.json"
    code = main(["gen", "--kind", "synthetic", "--neurons", "10", "--synapses",
                 "10", "--input-rate", "nan", "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert "error[bad-input]" in capsys.readouterr().err
    assert not out.exists()


def test_gen_rejects_non_integer_layer(tmp_path, capsys):
    out = tmp_path / "w.json"
    code = main(["gen", "--kind", "layered", "--layers", "10,abc",
                 "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert "error[bad-input]" in capsys.readouterr().err


def test_gen_layered_reads_input_rate(tmp_path):
    from snnmesh.model import gen_layered, save_workload

    out, want = tmp_path / "w.json", tmp_path / "want.json"
    args = ["gen", "--kind", "layered", "--layers", "4,2", "--fanin", "2",
            "--t-max", "5", "--input-rate", "0.9", "--out", str(out)]
    assert main(args) == EXIT_OK
    save_workload(gen_layered([4, 2], fanin=2, t_max=5, max_delay=2,
                              input_rate=0.9), str(want))
    assert out.read_bytes() == want.read_bytes()


def test_gen_layered_rejects_input_rate_outside_unit_interval(tmp_path, capsys):
    out = tmp_path / "w.json"
    code = main(["gen", "--kind", "layered", "--layers", "4,2", "--fanin", "2",
                 "--input-rate", "7", "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert "input_rate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,flag", [
    ("layered", ["--neurons", "10"]), ("layered", ["--synapses", "10"]),
    ("layered", ["--rate", "0.5"]), ("layered", ["--frac-inhibitory", "0.1"]),
    ("synthetic", ["--layers", "4,2"]), ("synthetic", ["--fanin", "2"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_gen_rejects_flag_its_kind_does_not_read(tmp_path, capsys, kind, flag):
    out = tmp_path / "w.json"
    assert main(["gen", "--kind", kind, *flag, "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("snnmesh: error[bad-input] ") and flag[0] in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_nonpositive_jobs_before_compiling(tmp_path, capsys,
                                                         monkeypatch, jobs):
    def never(*_a, **_k):
        raise AssertionError("sweep compiled or ran with no workers")

    monkeypatch.setattr(cli, "compile_network", never)
    monkeypatch.setattr(cli, "run", never)
    out = tmp_path / "r.csv"
    code = main(["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--axis", "m=2", "--jobs", jobs, "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert "jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--axis", "grid=0x2"],
    ["--axis", "mapping=foo"],
    ["--axis", "m=0"],
    ["--axis", "vc=0"],
    ["--axis", "mode=foo"],
    ["--axis", "m=2", "--modes", "foo"],
    ["--axis", "grid=2x2,0x2"],
], ids=["grid-0x2", "mapping-foo", "m-0", "vc-0", "mode-foo", "modes-foo",
        "second-grid-0x2"])
def test_sweep_refuses_a_bad_axis_value_before_loading(tmp_path, capsys, monkeypatch,
                                                       flags):
    def never(*_a, **_k):
        raise AssertionError("loaded or compiled before checking the axis values")

    monkeypatch.setattr(cli, "load_workload", never)
    monkeypatch.setattr(cli, "compile_network", never)
    out = tmp_path / "r.csv"
    code = main(["sweep", "--workload", str(FIXTURES / "tiny_workload.json"),
                 *([] if flags[1].startswith("grid=") else ["--grid", "2x2"]),
                 *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("snnmesh: error[bad-input] ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,programs", [
    (["compile", "--exchange-frac", "0.5", "--out", "p.json"], 1),
    (["sweep", "--axis", "exchange=0.25,0.5", "--seeds", "0,1", "--modes", "sync",
      "--out", "r.csv"], 4),
], ids=["compile", "sweep"])
def test_an_exchange_compile_partitions_once(tmp_path, monkeypatch, argv, programs):
    calls = []
    partition = compiler.partition

    def counted(*args, **kwargs):
        calls.append(args[1])
        return partition(*args, **kwargs)

    monkeypatch.setattr(compiler, "partition", counted)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--grid", "2x2"]) == EXIT_OK
    assert calls == [4] * programs
    # with no core to assign to, the exchange is refused as a compile error
    assert main(["compile", "--workload", str(FIXTURES / "tiny_workload.json"),
                 "--grid", "0x2", "--exchange-frac", "0.5",
                 "--out", "q.json"]) == EXIT_COMPILE
    assert not (tmp_path / "q.json").exists()


@pytest.mark.parametrize("grid", ["2x2", "2x1"])
def test_exchange_of_more_neurons_than_a_partner_holds(tmp_path, monkeypatch,
                                                       capsys, grid):
    # cores of 34/33/33/10 neurons on 2x2 and 100/10 on 2x1: a full exchange
    # empties core 3 (or core 1) before core 0's swaps run out
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--kind", "layered", "--layers", "100,10", "--fanin", "5",
                 "--t-max", "5", "--out", "w.json"]) == EXIT_OK
    assert main(["compile", "--workload", "w.json", "--grid", grid,
                 "--exchange-frac", "1.0", "--out", "p.json"]) == EXIT_OK
    ref = model.reference_run(model.load_workload("w.json")).ordered()
    for mode in ("sync", "se", "depasync"):
        assert main(["run", "--program", "p.json", "--mode", mode,
                     "--out", f"{mode}.json"]) == EXIT_OK
        assert [tuple(p) for p in json.loads(Path(f"{mode}.json").read_text())["raster"]] == ref
    assert main(["sweep", "--workload", "w.json", "--axis", "exchange=1.0",
                 "--grid", grid, "--out", "r.csv"]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


def test_summarize_results_harmonic_mean():
    rows = [
        {"axis": "m", "value": 2, "mode": "sync", "seed": 1,
         "total_cycles": 100, "busy": 50, "wait": 50, "rollback_cycles": 0,
         "energy_total": 1000.0},
        {"axis": "m", "value": 2, "mode": "depasync", "seed": 1,
         "total_cycles": 50, "busy": 50, "wait": 0, "rollback_cycles": 0,
         "energy_total": 500.0},
        {"axis": "m", "value": 2, "mode": "sync", "seed": 2,
         "total_cycles": 100, "busy": 50, "wait": 50, "rollback_cycles": 0,
         "energy_total": 1000.0},
        {"axis": "m", "value": 2, "mode": "depasync", "seed": 2,
         "total_cycles": 25, "busy": 25, "wait": 0, "rollback_cycles": 0,
         "energy_total": 250.0},
    ]
    summary = summarize_results(rows)
    cell = summary["m|2|depasync"]
    # harmonic mean of speedups 2 and 4 = 2 / (1/2 + 1/4) = 2.667
    assert abs(cell["harmonic_speedup"] - 8 / 3) < 1e-9


def _result(axis, value, mode, seed, cycles, busy, wait, rollback, energy):
    """A results row as ``report`` reads it: value and seed coerced, every
    measure still text."""
    return {"axis": axis, "value": value, "mode": mode, "seed": seed,
            "total_cycles": str(cycles), "busy": str(busy), "wait": str(wait),
            "rollback_cycles": str(rollback), "energy_total": str(energy)}


def test_summarize_results_states_every_field_of_every_cell():
    rows = [
        _result("m", 2, "sync", 0, 100, 60, 40, 0, 1000.0),
        _result("m", 2, "depasync", 0, 50, 40, 10, 0, 500.0),
        _result("m", 4, "se", 0, 80, 50, 25, 25, 900.0),  # m=4 has no sync row
        _result("mode", "sync", "sync", 0, 100, 100, 0, 0, 1000.0),
        _result("mode", "se", "se", 0, 25, 20, 0, 5, 250.0),
        _result("m", 2, "sync", 1, 200, 150, 50, 0, 2000.0),
        _result("m", 2, "depasync", 1, 50, 50, 0, 0, 1000.0),
        _result("m", 4, "se", 1, 120, 60, 15, 75, 1100.0),
        _result("mode", "depasync", "depasync", 0, 50, 50, 0, 0, 2000.0),
    ]
    # in the order of their keys' text, where "mode|" sorts before "m|"
    cells = [
        ("mode|depasync|depasync", "mode", "depasync", "depasync", 1, 50.0,
         2.0, 0.5, 0.0),
        ("mode|se|se", "mode", "se", "se", 1, 25.0, 4.0, 4.0, 0.2),
        ("mode|sync|sync", "mode", "sync", "sync", 1, 100.0, 0.0, 0.0, 0.0),
        ("m|2|depasync", "m", 2, "depasync", 2, 50.0, 2 / (1 / 2 + 1 / 4), 2.0, 0.0),
        ("m|2|sync", "m", 2, "sync", 2, 150.0, 0.0, 0.0, 0.0),
        ("m|4|se", "m", 4, "se", 2, 100.0, 0.0, 0.0, (0.25 + 0.5) / 2),
    ]
    fields = ("axis", "value", "mode", "runs", "mean_cycles", "harmonic_speedup",
              "harmonic_energy_efficiency", "mean_rollback_share")
    want = [(key, list(zip(fields, cell))) for key, *cell in cells]
    got = [(key, list(cell.items())) for key, cell in summarize_results(rows).items()]
    assert got == want
