"""The report-hash corpus: the sha256 of every report over a fixed grid of
programs and configs, so a change that must not alter a simulated number
can show that it alters none.

The grid is three programs (the tiny fixture, one small layered and one
small complete-graph program) x every mode x m in {1, 2, 4}, P in
{unset, 1, 3} for ``se``, debug off and on, and the default NoC plus one
non-default NoC. A report hashes as its ``to_dict()`` and its ``dep_log``
(which ``to_dict`` leaves out).

Regenerate ``fixtures/report_hashes.json`` (only in a change that states a
modelled-output change) with::

    PYTHONPATH=src python tests/report_hash_corpus.py

It prints the keys whose hash changed against the committed file, and how
many changed per mode, so a change can show which modes it moved. With
``--check`` it prints the same, writes nothing, and exits 1 if any hash
changed, so a change that must move no simulated number can show that it
moved none.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from snnmesh.compiler import compile_network, load_program
from snnmesh.engine import PROTOCOLS, DeadlockError, SimConfig, run
from snnmesh.model import gen_layered, gen_synthetic, rate_knobs_for_level

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
CORPUS_PATH = os.path.join(FIXTURES, "report_hashes.json")

NOCS = {
    "default": {},
    "narrow": {"n_vc": 1, "fifo_depth": 1, "inter_cluster_slowdown": 3},
}


def corpus_programs() -> dict:
    """name -> (compiled program, grid) of each corpus program."""
    tiny = load_program(os.path.join(FIXTURES, "tiny_program.json"))
    layered = gen_layered([24, 24, 16], fanin=6, seed=3, t_max=16, max_delay=2)
    complete = gen_synthetic(48, 1200, frac_inhibitory=0.4,
                             rate_knobs=rate_knobs_for_level(0.7), seed=5,
                             t_max=8, max_delay=2, input_rate=0.1)
    return {
        "tiny": (tiny, (2, 2)),
        "layered": (compile_network(layered, (3, 3)), (3, 3)),
        "complete": (compile_network(complete, (3, 2)), (3, 2)),
    }


def corpus_configs(grid: tuple[int, int]):
    """(key, config) for every point of the grid on one program."""
    for noc, noc_keys in NOCS.items():
        for mode in PROTOCOLS:
            for m in (1, 2, 4):
                periods = (None, 1, 3) if mode == "se" else (None,)
                for period in periods:
                    for debug in (False, True):
                        key = (f"{mode}/m={m}/P={period or '-'}/"
                               f"debug={int(debug)}/noc={noc}")
                        yield key, SimConfig(grid=grid, mode=mode, m=m, P=period,
                                             debug=debug, **noc_keys)


def run_sha256(prog, cfg) -> str:
    """The sha256 of one run's report, or of its deadlock diagnostic: a
    dependency cycle under ``depasync`` with m = 1 cannot advance."""
    try:
        report = run(prog, cfg)
        doc = {"report": report.to_dict(),
               "dep_log": [list(r) for r in report.dep_log]}
    except DeadlockError as exc:
        doc = {"deadlock": str(exc)}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def compute_corpus(programs: dict | None = None) -> dict[str, str]:
    """``program/config key`` -> report sha256 over the whole grid."""
    programs = corpus_programs() if programs is None else programs
    return {f"{name}/{key}": run_sha256(prog, cfg)
            for name, (prog, grid) in programs.items()
            for key, cfg in corpus_configs(grid)}


def load_corpus() -> dict[str, str]:
    with open(CORPUS_PATH, encoding="utf-8") as f:
        return json.load(f)


def changes_by_mode(old: dict[str, str], new: dict[str, str]) -> dict[str, tuple[int, int]]:
    """mode -> (entries of ``new`` whose hash is new or differs from ``old``,
    entries of ``new``)."""
    counts: dict[str, tuple[int, int]] = {}
    for key, sha in new.items():
        mode = key.split("/")[1]
        changed, total = counts.get(mode, (0, 0))
        counts[mode] = (changed + (old.get(key) != sha), total + 1)
    return counts


def print_changes(old: dict[str, str], new: dict[str, str]) -> int:
    """Print the keys of ``new`` whose hash differs from ``old``, the keys
    ``new`` lacks, and the changed-per-mode counts; return how many keys
    changed or went."""
    changed = sorted(key for key in new if old.get(key) != new[key])
    removed = sorted(set(old) - set(new))
    for key in changed:
        print(f"changed: {key}")
    for key in removed:
        print(f"removed: {key}")
    print("changed per mode: " + ", ".join(
        f"{mode} {n} of {total}"
        for mode, (n, total) in sorted(changes_by_mode(old, new).items())))
    return len(changed) + len(removed)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Compute the report-hash corpus "
                                 "and write it to fixtures/report_hashes.json.")
    ap.add_argument("--check", action="store_true",
                    help="compare with the committed file and write nothing; "
                         "exit 1 if any hash changed")
    args = ap.parse_args(argv)
    old = load_corpus() if os.path.exists(CORPUS_PATH) else {}
    hashes = compute_corpus()
    if not args.check:
        with open(CORPUS_PATH, "w", encoding="utf-8") as f:
            json.dump(hashes, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {CORPUS_PATH}: {len(hashes)} report hashes")
    moved = print_changes(old, hashes)
    if args.check:
        print(f"{moved} of {len(hashes)} changed")
        return 1 if moved else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
