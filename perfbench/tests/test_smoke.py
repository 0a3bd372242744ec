"""Toy-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/tests

Runs every workload at toy sizes (a 64-path store, a few iterations)
through the same code path as a full run.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY = {
    "N": 64, "n": 50, "teacher_iterations": 3, "setup_teacher_iterations": 3,
    "distill_rounds": 4, "checkpoint_interval": 2, "sweep_rounds": 2,
    "kd_iterations": 2, "kd_pool": 100, "m_sweep": [0.0, 1.0], "sweep_seeds": [0],
    "t_samples": 64, "sample_count": 64,
}
# every workload prints these, with the stage metrics of its own command
SUMMARY = {"unit_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB", "failed_ratio": "ratio"}
STAGE = {
    "teacher-b2048": {"teacher_iter_ms": "ms"},
    "distill-adv": {"distill_round_ms": "ms"},
    "store-roundtrip": {"synth_path_us": "us", "load_path_us": "us"},
    "mismatch-sweep": {"sweep_s": "s"},
}


@pytest.fixture(autouse=True)
def toy(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SIZES", TOY)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


def bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, "\n".join(lines[:-1])


def printed(summary, name):
    match = re.search(rf"^#\s+{re.escape(name)}\s+(\S+) (\S+)$", summary, re.M)
    assert match, f"{name} missing from the summary"
    return float(match.group(1)), match.group(2)


@pytest.mark.parametrize("workload", sorted(STAGE))
def test_prints_every_end_to_end_metric_with_its_unit(capsys, workload):
    result, summary = bench(capsys, workload)
    assert result["correct"] and result["failed"] == 0, summary
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in {**SUMMARY, **STAGE[workload]}.items():
        assert printed(summary, name)[1] == unit
    assert printed(summary, "failed_ratio")[0] == 0


@pytest.mark.parametrize("workload", ["teacher-b2048", "distill-adv"])
def test_traced_run_names_only_listed_metrics(capsys, workload):
    result, summary = bench(capsys, workload, trace=1)
    assert result["correct"], summary
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert set(metrics) == set(listed)
    assert all(v["unit"] == listed[k] for k, v in metrics.items())
    adversarial = metrics["adversarial.features_node.calls"]["value"]
    assert (adversarial > 0) == (workload == "distill-adv")
    assert metrics["analysis.useless_frequency.calls"]["value"] == 0
    meta = json.loads(summary.splitlines()[0])["metadata"]
    assert meta["trace"]["absent"] == []


def test_failing_output_check_counts_in_failed_ratio(capsys, monkeypatch):
    workload = run.WORKLOADS["teacher-b2048"]
    check, calls = workload.check, []

    def fail_first(inp, out, first):
        calls.append(out)
        check(inp, out, first)
        if len(calls) == 1:
            raise run.CheckFailed("injected failure")

    monkeypatch.setattr(workload, "check", fail_first)
    result, summary = bench(capsys, "teacher-b2048")
    assert not result["correct"]
    assert result["failed"] == 1
    assert printed(summary, "failed_ratio")[0] == pytest.approx(1 / result["attempted"])
    assert "injected failure" in summary


def test_exits_nonzero_without_the_program(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "distill-adv", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_tracer_patches_copied_bindings_and_reports_removed_names():
    probe = """
import json, sys
import child
names = {"nn.optimizer_step": ("calls",), "nn.no_longer_defined": ("calls",),
         "autodiff.backward": ("calls",)}
absent = child.Tracer().install(names, {"autodiff.backward": "Tensor.backward"}, {})
nn, distill = sys.modules["flowdistill.nn"], sys.modules["flowdistill.distill"]
print(json.dumps({
    "absent": absent,
    "shared": distill.optimizer_step is nn.optimizer_step,
    "wrapped": [hasattr(f, "__wrapped__") for f in (
        nn.optimizer_step, sys.modules["flowdistill.flow"].optimizer_step,
        sys.modules["flowdistill.analysis"].optimizer_step,
        sys.modules["flowdistill.autodiff"].Tensor.backward)],
}))
"""
    res = subprocess.run([sys.executable, "-c", probe], cwd=BENCH, env=run.child_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(res.stdout)
    assert report == {"absent": ["nn.no_longer_defined"], "shared": True,
                      "wrapped": [True, True, True, True]}
