"""Atomic artifact writes: each file is written beside its target as
`<path>.tmp` and renamed over it, so a failed or killed write never
leaves a truncated artifact behind."""

from __future__ import annotations

import contextlib
import json
import os


@contextlib.contextmanager
def atomic_open(path):
    """Text handle to `<path>.tmp`, renamed to `path` when the block
    completes. If the block raises, the temporary file is removed and
    `path` keeps its previous contents."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, payload: dict):
    """Write a JSON object with string keys, and a newline, atomically:
    the bytes of `json.dump(payload, f, separators=(",", ":"))`, encoded
    in one call."""
    with atomic_open(path) as f:
        f.write(json.dumps(payload, separators=(",", ":")) + "\n")
