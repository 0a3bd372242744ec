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
    """Write a JSON object with string keys, and a newline, atomically;
    the bytes equal `json.dump(payload, f, separators=(",", ":"))`.

    The C encoder runs on one piece at a time: objects and lists are
    opened, filled member by member and closed down to _SPLIT_DEPTH, and
    each member below that is one `json.dumps` call. One call for the
    whole document, or for each top-level field, would hold that much
    text and its pieces in memory at once."""
    with atomic_open(path) as f:
        _write_value(f, payload, _SPLIT_DEPTH)
        f.write("\n")


# levels of nesting written member by member; a checkpoint's largest
# pieces below that are single tensors
_SPLIT_DEPTH = 3


def _write_value(f, value, depth):
    if depth and isinstance(value, dict):
        f.write("{")
        for i, (key, member) in enumerate(value.items()):
            f.write(("," if i else "") + json.dumps(key) + ":")
            _write_value(f, member, depth - 1)
        f.write("}")
    elif depth and isinstance(value, list):
        f.write("[")
        for i, member in enumerate(value):
            if i:
                f.write(",")
            _write_value(f, member, depth - 1)
        f.write("]")
    else:
        f.write(json.dumps(value, separators=(",", ":")))
