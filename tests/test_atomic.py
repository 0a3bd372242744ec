"""Every artifact writer goes through one temporary file and a rename: a
write that fails part-way leaves the previous file byte-identical and
no temporary file behind."""

import base64
import io
import json

import pytest

import flowdistill as fd
from flowdistill.cli import write_csv
from flowdistill.distill import init_state, save_checkpoint

from helpers import rand_model


class Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format")


def _fail_on_second_encode(monkeypatch):
    real, calls = base64.b64encode, []

    def b64encode(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("disk full")
        return real(*args, **kwargs)

    monkeypatch.setattr(base64, "b64encode", b64encode)


def _paramset(path, monkeypatch, fail):
    fd.save_paramset(path, rand_model(seed=1).params,
                     {"kind": "raw", "note": object() if fail else "ok"})


def _checkpoint(path, monkeypatch, fail):
    cfg = fd.DistillConfig(m=5, iterations=1, batch_size=4)
    model = rand_model(seed=2)
    state = init_state(model, fd.generate_store(model, 2, fd.TimeGrid.uniform(4), seed=0), cfg)
    if fail:
        state.teacher = object()  # not JSON: the dump fails with the file open
    save_checkpoint(path, state)


def _store(path, monkeypatch, fail):
    store = fd.generate_store(rand_model(seed=3), 4, fd.TimeGrid.uniform(4), seed=0)
    if fail:
        _fail_on_second_encode(monkeypatch)
    fd.save_store(store, path)


def _csv(path, monkeypatch, fail):
    write_csv(path, ("a", "b"), [(1, 2.0), (3, Unprintable() if fail else 4.0)])


@pytest.mark.parametrize("write", [_paramset, _checkpoint, _store, _csv],
                         ids=["save_paramset", "save_checkpoint", "save_store", "write_csv"])
def test_failed_write_keeps_previous_file(write, tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    write(path, monkeypatch, fail=False)
    before = path.read_bytes()
    with pytest.raises((TypeError, RuntimeError)):
        write(path, monkeypatch, fail=True)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


@pytest.mark.parametrize("payload", [
    {},
    {"format": "x", "version": 1, "nested": {"a": [1.5, -0.0, 1e-300]}, "nan": float("nan")},
    {"rows": [(0, 4, 0.25, float("nan"), "1|2")], "big": 2**70, "text": "é\n\""},
    {"deep": [[], {}, [[1, [2, {"b": [], "c": {"d": [3.5]}}]]], {"e": {"f": {"g": {}}}}]},
])
def test_json_bytes_equal_one_dump(payload, tmp_path):
    from flowdistill.atomic import write_json

    path = tmp_path / "out.json"
    write_json(path, payload)
    expected = io.StringIO()
    json.dump(payload, expected, separators=(",", ":"))
    assert path.read_text(encoding="utf-8") == expected.getvalue() + "\n"
