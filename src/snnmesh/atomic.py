"""One atomic file writer for every file snnmesh writes, and the one JSON
writer on top of it."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Open a temporary file next to ``path`` for UTF-8 text; when the block
    ends without an exception the file is renamed over ``path``. So ``path``
    holds either the whole new text or what it held before, and a failed
    write leaves no temporary file behind."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON with stable keys, atomically."""
    with atomic_open(path) as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
