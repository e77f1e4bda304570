"""List the lines of ``src/snnmesh`` that no test executes.

Runs pytest in this process under ``sys.settrace``, tracing only frames
whose code lives in ``src/snnmesh``, then prints every executable line (one
the compiler emits code for) that no traced frame reached, as
``path:line: source``, and a count per file. Only the standard library and
pytest are used; no coverage package is needed.

    python tests/unexecuted_lines.py                         # the whole suite
    python tests/unexecuted_lines.py tests/test_core.py -k rollback

Arguments go to pytest unchanged (default: the suite's ``testpaths``). The
exit status is pytest's. Code that runs only in a child process (a test that
starts ``python -m snnmesh``, the bench smoke run, a sweep with ``--jobs`` >
1) counts as unexecuted. Tracing makes the suite four to five times slower,
so Hypothesis runs without its per-example deadline here.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "snnmesh"


def executable_lines(path: Path) -> set[int]:
    """The line numbers the compiler emits code for, in every code object
    of the module."""
    def walk(code):
        yield from (line for _start, _end, line in code.co_lines() if line)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                yield from walk(const)

    return set(walk(compile(path.read_text(encoding="utf-8"), str(path), "exec")))


class NoDeadline:
    """A pytest plugin: tracing slows every example, so Hypothesis runs
    without its per-example deadline."""

    @staticmethod
    def pytest_configure(config):
        try:
            from hypothesis import settings
        except ImportError:
            return
        settings.register_profile("unexecuted-lines", deadline=None)
        settings.load_profile("unexecuted-lines")


def traced_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args``; returns its exit status and, per source
    file under ``SRC``, the lines executed."""
    import pytest

    prefix = str(SRC) + os.sep
    hit: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}

    def tracer_for(filename):
        add = hit.setdefault(filename, set()).add

        def local(frame, event, _arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def on_call(frame, _event, _arg):
        filename = frame.f_code.co_filename
        tracer = tracers.get(filename)
        if tracer is None:
            tracer = tracers[filename] = (
                tracer_for(filename) if filename.startswith(prefix) else False)
        return tracer or None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args],
                             plugins=[NoDeadline()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hit


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, hit = traced_pytest(argv)
    total = 0
    counts = []
    for path in sorted(SRC.glob("*.py")):
        missing = sorted(executable_lines(path) - hit.get(str(path), set()))
        source = path.read_text(encoding="utf-8").splitlines()
        rel = path.relative_to(ROOT)
        for line in missing:
            print(f"{rel}:{line}: {source[line - 1].strip()}")
        counts.append(f"{rel}: {len(missing)}")
        total += len(missing)
    print("\n".join(counts))
    print(f"{total} executable lines of {SRC.relative_to(ROOT)} not executed "
          f"(pytest exit status {status})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
