import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import flowdistill as fd
from flowdistill.cli import _fmt, main


def test_csv_formatter_normalizes_numpy_scalars():
    assert _fmt(np.float64(0.25)) == "0.25"
    assert _fmt(0.25) == "0.25"
    assert _fmt(np.int64(7)) == "7"
    assert _fmt("label") == "label"
    assert _fmt(float("nan")) == "nan"

TINY = {
    "config_version": 1,
    "name": "tiny",
    "seed": 0,
    "dataset": {"support": [-3.0, 3.0]},
    "model": {"H": 12, "R": 2},
    "teacher": {"iterations": 60, "batch_size": 64, "lr": 1e-3},
    "store": {"N": 24, "n": 10},
    "distill": {"m": 5, "iterations": 6, "batch_size": 8, "lambda_adv": 0.1,
                "student_lr": 1e-4, "head_lr": 1e-4, "queue_capacity": 8,
                "checkpoint_interval": 2},
    "kd": {"windows": 2, "iterations": 10, "batch_size": 8, "lr": 1e-3,
           "pool_size": 64},
    "analysis": {"epsilon": 0.1, "mode": "trajectory-proximity", "t_samples": 64,
                 "m_sweep": [0.0, 1.0], "seeds": [0, 1], "sample_count": 128},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run_cli(*args):
    return main(list(args))


@pytest.fixture
def trained_dir(tiny_config, tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("train-teacher", "--config", tiny_config, "--out", out) == 0
    assert run_cli("synth", "--config", tiny_config, "--out", out,
                   "--teacher", f"{out}/teacher.json") == 0
    return out


class TestTrainTeacher:
    def test_writes_checkpoint_and_loss_csv(self, tiny_config, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("train-teacher", "--config", tiny_config, "--out", out) == 0
        assert os.path.exists(f"{out}/teacher.json")
        lines = open(f"{out}/teacher_loss.csv").read().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 1 + TINY["teacher"]["iterations"]

    def test_rerun_reproduces_identical_bytes(self, tiny_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli("train-teacher", "--config", tiny_config, "--out", out1)
        run_cli("train-teacher", "--config", tiny_config, "--out", out2)
        for name in ("teacher.json", "teacher_loss.csv"):
            assert open(f"{out1}/{name}", "rb").read() == open(f"{out2}/{name}", "rb").read()

    def test_malformed_config_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"config_version": 1, "teacher": {"iterations": 0}}))
        code = run_cli("train-teacher", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code != 0
        assert "teacher.iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("distill,field", [
        ({"lamda_adv": 5.0}, "distill.lamda_adv"),
        ({"adv_accum": "2"}, "distill.adv_accum"),
        ({"adv_batch": 32.5}, "distill.adv_batch"),
    ])
    def test_bad_distill_field_is_an_error_line(self, tmp_path, capsys, distill, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"config_version": 1, "distill": distill}))
        code = run_cli("train-teacher", "--config", str(bad), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and field in err


class TestSynth:
    def test_store_written_and_validates(self, trained_dir):
        store = fd.load_store(f"{trained_dir}/store.jsonl")
        assert store.N == TINY["store"]["N"]
        teacher = fd.load_model(f"{trained_dir}/teacher.json")
        fd.validate_store(store, teacher)

    def test_reload_equality(self, trained_dir, tmp_path):
        store = fd.load_store(f"{trained_dir}/store.jsonl")
        again = tmp_path / "again.jsonl"
        fd.save_store(store, again)
        assert open(f"{trained_dir}/store.jsonl", "rb").read() == again.read_bytes()

    def test_missing_teacher_nonzero_exit(self, tiny_config, tmp_path, capsys):
        code = run_cli("synth", "--config", tiny_config, "--out", str(tmp_path / "o"),
                       "--teacher", str(tmp_path / "missing.json"))
        assert code != 0
        assert capsys.readouterr().err.startswith("error:")


class TestDistill:
    def test_outputs_written(self, tiny_config, trained_dir):
        assert run_cli("distill", "--config", tiny_config, "--out", trained_dir,
                       "--teacher", f"{trained_dir}/teacher.json",
                       "--store", f"{trained_dir}/store.jsonl") == 0
        assert os.path.exists(f"{trained_dir}/student.json")
        for k in range(TINY["distill"]["m"]):
            assert os.path.exists(f"{trained_dir}/head_{k}.json")
        lines = open(f"{trained_dir}/distill_metrics.csv").read().splitlines()
        assert lines[0] == "iter,k,traj_loss,d_loss,g_loss,queue_sizes"
        assert len(lines) == 1 + 6 * 5

    def test_no_adv_equals_lambda_zero_config(self, tiny_config, tmp_path, trained_dir):
        flag_out = str(tmp_path / "flag")
        assert run_cli("distill", "--config", tiny_config, "--out", flag_out,
                       "--teacher", f"{trained_dir}/teacher.json",
                       "--store", f"{trained_dir}/store.jsonl", "--no-adv") == 0
        zero = dict(TINY)
        zero["distill"] = dict(TINY["distill"], lambda_adv=0.0)
        zero_cfg = tmp_path / "zero.json"
        zero_cfg.write_text(json.dumps(zero))
        zero_out = str(tmp_path / "zero")
        assert run_cli("distill", "--config", str(zero_cfg), "--out", zero_out,
                       "--teacher", f"{trained_dir}/teacher.json",
                       "--store", f"{trained_dir}/store.jsonl") == 0
        assert open(f"{flag_out}/student.json", "rb").read() == \
            open(f"{zero_out}/student.json", "rb").read()

    def test_single_head_writes_shared_head(self, tiny_config, tmp_path, trained_dir):
        out = str(tmp_path / "sh")
        assert run_cli("distill", "--config", tiny_config, "--out", out,
                       "--teacher", f"{trained_dir}/teacher.json",
                       "--store", f"{trained_dir}/store.jsonl", "--single-head") == 0
        assert os.path.exists(f"{out}/head_shared.json")

    def test_rerun_byte_identical(self, tiny_config, tmp_path, trained_dir):
        outs = [str(tmp_path / x) for x in ("r1", "r2")]
        for out in outs:
            assert run_cli("distill", "--config", tiny_config, "--out", out,
                           "--teacher", f"{trained_dir}/teacher.json",
                           "--store", f"{trained_dir}/store.jsonl") == 0
        for name in ("student.json", "distill_metrics.csv", "head_0.json"):
            assert open(f"{outs[0]}/{name}", "rb").read() == \
                open(f"{outs[1]}/{name}", "rb").read()


class TestKillResume:
    def test_killed_run_resumes_to_identical_output(self, tmp_path, trained_dir):
        cfg = dict(TINY)
        cfg["distill"] = dict(TINY["distill"], iterations=60, checkpoint_interval=2)
        cfg_path = tmp_path / "resume.json"
        cfg_path.write_text(json.dumps(cfg))

        ref_out = str(tmp_path / "reference")
        args = ["--config", str(cfg_path), "--teacher", f"{trained_dir}/teacher.json",
                "--store", f"{trained_dir}/store.jsonl"]
        assert run_cli("distill", *args, "--out", ref_out) == 0

        kill_out = str(tmp_path / "killed")
        proc = subprocess.Popen(
            [sys.executable, "-m", "flowdistill.cli", "distill", *args, "--out", kill_out],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        checkpoint = f"{kill_out}/distill_checkpoint.json"
        deadline = time.time() + 120
        while time.time() < deadline and not os.path.exists(checkpoint):
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            time.sleep(0.3)  # let it get past the first checkpoint
            proc.send_signal(signal.SIGKILL)
        proc.wait()

        assert os.path.exists(checkpoint), "no checkpoint was written before the kill"
        assert run_cli("distill", *args, "--out", kill_out, "--resume") == 0
        for name in ("student.json", "distill_metrics.csv"):
            assert open(f"{kill_out}/{name}", "rb").read() == \
                open(f"{ref_out}/{name}", "rb").read()


class TestCheckpointFormat:
    """`distill --resume` on checkpoints other than the ones this version
    writes: the layout of earlier versions, and damaged files."""

    @pytest.fixture
    def halfway(self, tmp_path, trained_dir):
        """(distill args, reference output dir, output dir holding only the
        round-2 checkpoint of the same run)."""
        args = ["--teacher", f"{trained_dir}/teacher.json",
                "--store", f"{trained_dir}/store.jsonl"]
        full, short = tmp_path / "full.json", tmp_path / "short.json"
        full.write_text(json.dumps(TINY))
        short.write_text(json.dumps(dict(TINY, distill=dict(TINY["distill"], iterations=2))))
        ref_out, out = str(tmp_path / "reference"), str(tmp_path / "resumed")
        assert run_cli("distill", "--config", str(full), *args, "--out", ref_out) == 0
        assert run_cli("distill", "--config", str(short), *args, "--out", out) == 0
        for name in os.listdir(out):
            if name != "distill_checkpoint.json":
                os.remove(f"{out}/{name}")
        return ["--config", str(full), *args], ref_out, out

    @staticmethod
    def _rewrite(out, edit):
        path = f"{out}/distill_checkpoint.json"
        with open(path) as f:
            payload = json.load(f)
        edit(payload)
        with open(path, "w") as f:
            json.dump(payload, f)
        return path

    @staticmethod
    def _with_gradient_sums(payload, g_count=0, h_counts=(0,) * 5):
        """The layout of versions that kept summed adversarial gradients
        in the checkpoint (written after each round's update, so empty)."""
        def zeros(records):
            return [dict(r, data=np.zeros(r["shape"]).tolist()) for r in records]
        payload["adv_g_sum"] = zeros(payload["student"])
        payload["adv_g_count"] = g_count
        payload["adv_h_sum"] = [zeros(h["params"]) for h in payload["heads"]]
        payload["adv_h_count"] = list(h_counts)

    @staticmethod
    def _with_adam_settings(payload):
        """The layout of versions whose optimizer states carried the Adam
        settings, always at the values that are now constants."""
        for opt in (payload["opt_student"], payload["opt_student_adv"],
                    *payload["opt_heads"]):
            opt.update(beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0)

    @staticmethod
    def _assert_same_outputs(out, ref_out):
        names = ["student.json", "distill_metrics.csv"] + [
            f"head_{k}.json" for k in range(TINY["distill"]["m"])]
        for name in names:
            assert open(f"{out}/{name}", "rb").read() == \
                open(f"{ref_out}/{name}", "rb").read(), name

    def test_earlier_layout_resumes_to_identical_output(self, halfway):
        args, ref_out, out = halfway
        self._rewrite(out, self._with_gradient_sums)
        assert run_cli("distill", *args, "--out", out, "--resume") == 0
        self._assert_same_outputs(out, ref_out)

    def test_adam_settings_of_earlier_layout_resume_to_identical_output(self, halfway):
        args, ref_out, out = halfway
        self._rewrite(out, self._with_adam_settings)
        assert run_cli("distill", *args, "--out", out, "--resume") == 0
        self._assert_same_outputs(out, ref_out)

    @pytest.mark.parametrize("where,field", [
        ((), "round"), (("opt_student",), "lr"), (("heads", 0), "index"),
        (("queues", 0, 0), "latent"),
    ], ids=["round", "optimizer-lr", "head-index", "queue-entry-latent"])
    def test_missing_field_is_named(self, halfway, capsys, where, field):
        args, _, out = halfway

        def damage(payload):
            for key in where:
                payload = payload[key]
            payload.pop(field)

        path = self._rewrite(out, damage)
        assert run_cli("distill", *args, "--out", out, "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and f"missing field '{field}'" in err, err

    @pytest.mark.parametrize("counts", [(1, (0,) * 5), (0, (0, 1, 0, 0, 0))])
    def test_unapplied_gradient_sums_are_refused(self, halfway, capsys, counts):
        args, _, out = halfway
        path = self._rewrite(out, lambda p: self._with_gradient_sums(p, *counts))
        assert run_cli("distill", *args, "--out", out, "--resume") == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_truncated_checkpoint_is_an_error_line(self, halfway, capsys):
        args, _, out = halfway
        path = f"{out}/distill_checkpoint.json"
        with open(path, "rb") as f:
            head = f.read(3000)
        with open(path, "wb") as f:
            f.write(head)
        assert run_cli("distill", *args, "--out", out, "--resume") == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_tensor_off_its_shape_is_named(self, halfway, capsys):
        args, _, out = halfway

        def damage(payload):
            payload["opt_student"]["m"][1]["data"] = [0.0]

        path = self._rewrite(out, damage)
        assert run_cli("distill", *args, "--out", out, "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: tensor 'in.b'"), err


class TestKdBaseline:
    def test_runs_and_writes_outputs(self, tiny_config, tmp_path, trained_dir):
        out = str(tmp_path / "kd")
        assert run_cli("kd-baseline", "--config", tiny_config, "--out", out,
                       "--teacher", f"{trained_dir}/teacher.json",
                       "--mismatch", "1.0") == 0
        assert os.path.exists(f"{out}/kd_student.json")
        assert os.path.exists(f"{out}/kd_loss.csv")


def _drop(obj, key):
    return {k: v for k, v in obj.items() if k != key}


# ways to damage a model file, each with the start of its error message
BAD_MODELS = {
    "not-an-object": (lambda p: [], "not a flowdistill-paramset file"),
    "no-tensors": (lambda p: _drop(p, "tensors"), "missing field 'tensors'"),
    "meta-without-d": (lambda p: dict(p, meta=_drop(p["meta"], "d")),
                       "meta: missing field 'd'"),
    "tensor-without-shape": (lambda p: dict(p, tensors=[_drop(p["tensors"][0], "shape")]),
                             "tensor record 0: missing field 'shape'"),
}


class TestSample:
    @pytest.mark.parametrize("damage", list(BAD_MODELS))
    def test_damaged_model_is_an_error_line(self, trained_dir, tmp_path, capsys, damage):
        edit, message = BAD_MODELS[damage]
        path = tmp_path / "model.json"
        with open(f"{trained_dir}/teacher.json") as f:
            path.write_text(json.dumps(edit(json.load(f))))
        code = run_cli("sample", "--model", str(path), "--count", "4", "--steps", "2",
                       "--out", str(tmp_path / "s"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    def test_reports_nfe_in_header_and_rows(self, trained_dir, tmp_path):
        out = str(tmp_path / "s")
        assert run_cli("sample", "--model", f"{trained_dir}/teacher.json",
                       "--count", "16", "--steps", "5", "--out", out) == 0
        lines = open(f"{out}/samples.csv").read().splitlines()
        assert lines[0] == "index,x0,nfe"
        assert len(lines) == 17
        assert all(line.endswith(",5") for line in lines[1:])

    def test_zero_count_rejected(self, trained_dir, tmp_path, capsys):
        code = run_cli("sample", "--model", f"{trained_dir}/teacher.json",
                       "--count", "0", "--steps", "5", "--out", str(tmp_path / "s"))
        assert code != 0

    def test_deterministic_given_seed(self, trained_dir, tmp_path):
        outs = [str(tmp_path / x) for x in ("s1", "s2")]
        for out in outs:
            run_cli("sample", "--model", f"{trained_dir}/teacher.json",
                    "--count", "8", "--steps", "10", "--seed", "3", "--out", out)
        assert open(f"{outs[0]}/samples.csv", "rb").read() == \
            open(f"{outs[1]}/samples.csv", "rb").read()


class TestEval:
    def test_teacher_and_student_rows(self, tiny_config, trained_dir):
        assert run_cli("distill", "--config", tiny_config, "--out", trained_dir,
                       "--teacher", f"{trained_dir}/teacher.json",
                       "--store", f"{trained_dir}/store.jsonl") == 0
        assert run_cli("eval", "--config", tiny_config, "--out", trained_dir,
                       "--teacher", f"{trained_dir}/teacher.json",
                       "--student", f"{trained_dir}/student.json",
                       "--store", f"{trained_dir}/store.jsonl") == 0
        lines = open(f"{trained_dir}/eval.csv").read().splitlines()
        assert lines[0] == "label,w1,endpoint_error,useless_frequency,seed"
        assert lines[1].startswith("teacher-10step,")
        assert lines[2].startswith("student-5step,")


class TestAnalyze:
    def test_sweep_has_row_per_m_and_seed(self, tiny_config, tmp_path, trained_dir):
        out = str(tmp_path / "an")
        assert run_cli("analyze-mismatch", "--config", tiny_config, "--out", out,
                       "--teacher", f"{trained_dir}/teacher.json",
                       "--store", f"{trained_dir}/store.jsonl") == 0
        lines = open(f"{out}/mismatch_sweep.csv").read().splitlines()
        assert lines[0] == "M,seed,useless_frequency,kd_w1,traj_distill_w1,endpoint_error"
        assert len(lines) == 1 + 2 * 2  # m_sweep x seeds
