import csv
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
from flowdistill.trajstore import ROW_BLOCK

from helpers import record_array, tensor_data


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
                "student_lr": 1e-4, "head_lr": 1e-4, "checkpoint_interval": 2},
    "kd": {"windows": 2, "iterations": 10, "batch_size": 8, "lr": 1e-3,
           "pool_size": 64},
    "analysis": {"epsilon": 0.1, "mode": "trajectory-proximity", "t_samples": 64,
                 "m_sweep": [0.0, 1.0], "seeds": [0, 1], "sample_count": 128},
}


@pytest.fixture
def tiny_config(tmp_path):
    return tiny_variant(tmp_path, "config")


def run_cli(*args):
    return main(list(args))


def inputs(run_dir):
    """The --teacher and --store arguments naming the files in `run_dir`."""
    return ["--teacher", f"{run_dir}/teacher.json", "--store", f"{run_dir}/store.jsonl"]


def same_bytes(a, b) -> bool:
    return open(a, "rb").read() == open(b, "rb").read()


def tiny_variant(tmp_path, name, **distill):
    """The path of a TINY config with the `distill` fields changed."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(TINY, distill=dict(TINY["distill"], **distill))))
    return str(path)


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
            assert same_bytes(f"{out1}/{name}", f"{out2}/{name}")

    def test_malformed_config_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"config_version": 1, "teacher": {"iterations": 0}}))
        code = run_cli("train-teacher", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code != 0
        assert "teacher.iterations" in capsys.readouterr().err

    def test_range_error_names_the_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"config_version": 1, "teacher": {"lr": float("nan")}}))
        code = run_cli("train-teacher", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: config field teacher.lr ")

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

    def test_teacher_evaluated_once_per_step_and_block(self, tiny_config, tmp_path,
                                                       trained_dir, monkeypatch):
        # generation evaluates the teacher once per step and row block; the check adds none
        loaded = []
        monkeypatch.setattr("flowdistill.cli.load_model",
                            lambda path: loaded.append(fd.load_model(path)) or loaded[-1])
        assert run_cli("synth", "--config", tiny_config, "--out", str(tmp_path / "o"),
                       "--teacher", f"{trained_dir}/teacher.json") == 0
        N, n = TINY["store"]["N"], TINY["store"]["n"]
        assert [model.eval_count for model in loaded] == [n * -(-N // ROW_BLOCK)]

    def test_store_that_does_not_reload_is_refused(self, tiny_config, tmp_path, trained_dir,
                                                   monkeypatch, capsys):
        def save_flipped(store, path):
            # one state one ulp off: still within the recurrence tolerance
            states = store.states.copy()
            states[3, 4, 0] = np.nextafter(states[3, 4, 0], np.inf)
            fd.save_store(fd.TrajectoryStore(store.seed, store.teacher_fingerprint, states),
                          path)

        monkeypatch.setattr("flowdistill.cli.save_store", save_flipped)
        out = tmp_path / "o"
        assert run_cli("synth", "--config", tiny_config, "--out", str(out),
                       "--teacher", f"{trained_dir}/teacher.json") == 1
        assert capsys.readouterr().err.startswith(f"error: {out}/store.jsonl: ")

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
                       *inputs(trained_dir)) == 0
        assert os.path.exists(f"{trained_dir}/student.json")
        for k in range(TINY["distill"]["m"]):
            assert os.path.exists(f"{trained_dir}/head_{k}.json")
        lines = open(f"{trained_dir}/distill_metrics.csv").read().splitlines()
        assert lines[0] == "iter,k,traj_loss,d_loss,g_loss"
        assert len(lines) == 1 + 6 * 5

    @pytest.mark.parametrize("flags", [[], ["--no-adv"]], ids=["adv", "no-adv"])
    def test_csv_rows_are_metrics_in_round_order(self, tiny_config, tmp_path, trained_dir,
                                                 flags):
        # the last checkpoint is at round 6, the end of the run: it holds every round
        out = str(tmp_path / "out")
        assert run_cli("distill", "--config", tiny_config, "--out", out,
                       *inputs(trained_dir), *flags) == 0
        with open(f"{out}/distill_checkpoint.json") as f:
            metrics = record_array(json.load(f)["metrics"])
        assert metrics.shape == (6, 5, 3)
        assert np.all(np.isnan(metrics[..., 1:]) if flags else np.isfinite(metrics))
        lines = open(f"{out}/distill_metrics.csv").read().splitlines()[1:]
        assert lines == [",".join([str(r), str(k), *map(repr, metrics[r, k].tolist())])
                         for r in range(6) for k in range(4, -1, -1)]

    def test_no_adv_equals_lambda_zero_config(self, tiny_config, tmp_path, trained_dir):
        flag_out = str(tmp_path / "flag")
        assert run_cli("distill", "--config", tiny_config, "--out", flag_out,
                       *inputs(trained_dir), "--no-adv") == 0
        zero_out = str(tmp_path / "zero")
        assert run_cli("distill", "--config", tiny_variant(tmp_path, "zero", lambda_adv=0.0),
                       "--out", zero_out, *inputs(trained_dir)) == 0
        assert same_bytes(f"{flag_out}/student.json", f"{zero_out}/student.json")

    def test_single_head_writes_shared_head(self, tiny_config, tmp_path, trained_dir):
        out = str(tmp_path / "sh")
        assert run_cli("distill", "--config", tiny_config, "--out", out,
                       *inputs(trained_dir), "--single-head") == 0
        assert os.path.exists(f"{out}/head_shared.json")

    @pytest.mark.parametrize("command", ["distill", "analyze-mismatch", "eval"])
    def test_store_of_another_teacher_is_refused(self, tiny_config, tmp_path, trained_dir,
                                                 capsys, command):
        other = str(tmp_path / "other")
        assert run_cli("train-teacher", "--config", tiny_config, "--out", other,
                       "--seed", "7") == 0
        code = run_cli(command, "--config", tiny_config, "--out", other,
                       "--teacher", f"{other}/teacher.json",
                       "--store", f"{trained_dir}/store.jsonl")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: store was generated by a different teacher"), err

    def test_overflowing_adversary_names_phase_and_round(self, tmp_path, trained_dir, capsys):
        config = tiny_variant(tmp_path, "huge", lambda_adv=1e300)
        assert run_cli("distill", "--config", config, "--out", str(tmp_path / "o"),
                       *inputs(trained_dir)) == 1
        assert capsys.readouterr().err.startswith(
            "error: distillation diverged (adv update, round=0): Adam step")

    def test_rerun_byte_identical(self, tiny_config, tmp_path, trained_dir):
        outs = [str(tmp_path / x) for x in ("r1", "r2")]
        for out in outs:
            assert run_cli("distill", "--config", tiny_config, "--out", out,
                           *inputs(trained_dir)) == 0
        for name in ("student.json", "distill_metrics.csv", "head_0.json"):
            assert same_bytes(f"{outs[0]}/{name}", f"{outs[1]}/{name}")


class TestKillResume:
    def test_killed_run_resumes_to_identical_output(self, tmp_path, trained_dir):
        ref_out = str(tmp_path / "reference")
        args = ["--config", tiny_variant(tmp_path, "resume", iterations=60,
                                         checkpoint_interval=2), *inputs(trained_dir)]
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
            assert same_bytes(f"{kill_out}/{name}", f"{ref_out}/{name}")


class TestCheckpointFormat:
    """`distill --resume` on checkpoints other than the ones this version
    writes: damaged files, and those of another run."""

    @pytest.fixture
    def halfway(self, tmp_path, trained_dir):
        """(distill args, reference output dir, output dir holding only the
        round-2 checkpoint of the same run)."""
        full = ["--config", tiny_variant(tmp_path, "full"), *inputs(trained_dir)]
        short = tiny_variant(tmp_path, "short", iterations=2)
        ref_out, out = str(tmp_path / "reference"), str(tmp_path / "resumed")
        assert run_cli("distill", *full, "--out", ref_out) == 0
        assert run_cli("distill", *full, "--config", short, "--out", out) == 0
        for name in os.listdir(out):
            if name != "distill_checkpoint.json":
                os.remove(f"{out}/{name}")
        return full, ref_out, out

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
    def _assert_same_outputs(out, ref_out):
        names = ["student.json", "distill_metrics.csv"] + [
            f"head_{k}.json" for k in range(TINY["distill"]["m"])]
        for name in names:
            assert same_bytes(f"{out}/{name}", f"{ref_out}/{name}"), name

    @pytest.mark.parametrize("where,field", [
        ((), "round"), (("opt_student",), "step"), (("opt_heads",), "step"),
        # a run's identity: without it a resume could mix runs
        ((), "config"), ((), "teacher"), ((), "store"),
    ], ids=["round", "optimizer-step", "head-optimizer-step", "config", "teacher", "store"])
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

    def test_learning_rate_comes_from_the_config(self, halfway):
        # checkpoints used to carry each optimizer's rate, and a resume used it
        args, ref_out, out = halfway
        self._rewrite(out, lambda p: p["opt_student"].update(lr=0.5))
        assert run_cli("distill", *args, "--out", out, "--resume") == 0
        self._assert_same_outputs(out, ref_out)

    @pytest.mark.parametrize("field,edit", [
        ("rng_batch", lambda p: p.update(rng_batch={"bit_generator": "MT19937",
                                                    "state": {}})),
        ("rng_noise", lambda p: p.update(rng_noise="PCG64")),
        ("round", lambda p: p.update(round="2")),
        ("metrics", lambda p: p.update(metrics=5)),
        ("heads", lambda p: p.update(heads=7)),
        ("opt_student.step", lambda p: p["opt_student"].update(step="3")),
        ("heads", lambda p: [rec.update(shape=[4, *rec["shape"][1:]],
                                        data=tensor_data(record_array(rec)[:4]))
                             for rec in p["heads"]]),
        # shape and data agree with each other, not with the student
        ("student", lambda p: p["student"][1].update(shape=[3], data=tensor_data([0.0] * 3))),
        # PCG64: 128-bit unsigned counters, a 32-bit buffered draw behind a 0/1 flag
        ("rng_batch.uinteger", lambda p: p["rng_batch"].update(uinteger=-1)),
        ("rng_batch.uinteger", lambda p: p["rng_batch"].update(uinteger=1.5)),
        ("rng_batch.uinteger", lambda p: p["rng_batch"].update(uinteger=True)),
        ("rng_batch.uinteger", lambda p: p["rng_batch"].update(uinteger=2**32)),
        ("rng_batch.state.state", lambda p: p["rng_batch"]["state"].update(state=-1)),
        ("rng_batch.state.state", lambda p: p["rng_batch"]["state"].update(state=1.5)),
        ("rng_noise.state.inc", lambda p: p["rng_noise"]["state"].update(inc=2**128)),
        ("rng_noise.has_uint32", lambda p: p["rng_noise"].update(has_uint32=-1)),
        ("rng_noise.has_uint32", lambda p: p["rng_noise"].update(has_uint32=1.5)),
        ("rng_noise.has_uint32", lambda p: p["rng_noise"].update(has_uint32=2)),
    ], ids=["rng-batch-not-pcg64", "rng-noise-not-a-state", "round-as-string",
            "metrics-not-a-record", "heads-not-a-list", "optimizer-step-as-string",
            "heads-of-another-count", "consistent-wrong-shape", "uinteger-negative",
            "uinteger-fractional", "uinteger-bool", "uinteger-33-bit", "state-negative",
            "state-fractional", "inc-129-bit", "has-uint32-negative", "has-uint32-fractional",
            "has-uint32-2"])
    def test_bad_value_is_named(self, halfway, capsys, field, edit):
        args, _, out = halfway
        path = self._rewrite(out, edit)
        assert run_cli("distill", *args, "--out", out, "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: field '{field}'"), err

    @staticmethod
    def _changing(field, tmp_path, tiny_config):
        """Arguments that, put after a run's own, change `field` of the run
        (argparse keeps the last of a repeated option)."""
        if field == "batch_size":
            return ["--config", tiny_variant(tmp_path, "batch", batch_size=4)]
        if field == "teacher":
            # another teacher, with its own store so the store check passes
            other = str(tmp_path / "other")
            assert run_cli("train-teacher", "--config", tiny_config, "--out", other,
                           "--seed", "7") == 0
            assert run_cli("synth", "--config", tiny_config, "--out", other,
                           "--teacher", f"{other}/teacher.json") == 0
            return ["--teacher", f"{other}/teacher.json", "--store", f"{other}/store.jsonl"]
        if field == "store":
            # another store of the same teacher
            other = str(tmp_path / "other")
            assert run_cli("synth", "--config", tiny_config, "--out", other, "--seed", "5",
                           "--teacher", f"{tmp_path}/run/teacher.json") == 0
            return ["--store", f"{other}/store.jsonl"]
        return {"heads": ["--single-head"], "lambda_adv": ["--no-adv"]}[field]

    @pytest.mark.parametrize("field", ["heads", "lambda_adv", "batch_size", "teacher",
                                       "store"])
    def test_resume_of_another_run_is_refused(self, halfway, tmp_path, tiny_config,
                                              capsys, field):
        args, _, out = halfway
        changed = self._changing(field, tmp_path, tiny_config)
        assert run_cli("distill", *args, *changed, "--out", out, "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {out}/distill_checkpoint.json: checkpoint was written for {field}="), err

    def test_resume_may_change_iterations(self, halfway, tmp_path):
        # the checkpoint was written by a 2-round run; this one runs 6
        args, ref_out, out = halfway
        with open(f"{out}/distill_checkpoint.json") as f:
            assert json.load(f)["config"]["iterations"] == 2
        assert run_cli("distill", *args, "--out", out, "--resume") == 0
        self._assert_same_outputs(out, ref_out)
        assert same_bytes(f"{out}/distill_checkpoint.json", f"{ref_out}/distill_checkpoint.json")

    @staticmethod
    def _interval_0(tmp_path):
        """Arguments that, put after a run's own, turn its checkpoints off."""
        return ["--config", tiny_variant(tmp_path, "interval0", checkpoint_interval=0)]

    def test_truncated_checkpoint_is_an_error_line(self, halfway, tmp_path, capsys):
        args, _, out = halfway
        path = f"{out}/distill_checkpoint.json"
        with open(path, "rb") as f:
            head = f.read(3000)
        with open(path, "wb") as f:
            f.write(head)
        # at interval 0 too: it says when to write checkpoints, not whether to read one
        for interval in ([], self._interval_0(tmp_path)):
            assert run_cli("distill", *args, *interval, "--out", out, "--resume") == 1
            assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_resume_at_interval_0_continues_and_keeps_the_checkpoint(self, halfway,
                                                                     tmp_path):
        args, ref_out, out = halfway
        path = f"{out}/distill_checkpoint.json"
        before = open(path, "rb").read()
        assert run_cli("distill", *args, *self._interval_0(tmp_path), "--out", out,
                       "--resume") == 0
        self._assert_same_outputs(out, ref_out)
        assert open(path, "rb").read() == before

    @pytest.mark.parametrize("kept", [
        lambda a: a[:1],  # round 1 dropped
        lambda a: a.reshape(-1, 3)[:3],  # 3 of the 10 (round, key) rows
        lambda a: a[:, :4],  # key 4 dropped
    ], ids=["round-dropped", "rows-dropped", "key-dropped"])
    def test_metrics_not_of_the_rounds_done_are_refused(self, halfway, capsys, kept):
        # the round-2 checkpoint holds a (2, m, 3) loss history
        args, _, out = halfway

        def cut(p):
            a = kept(record_array(p["metrics"]))
            p["metrics"] = {"shape": list(a.shape), "data": tensor_data(a)}

        path = self._rewrite(out, cut)
        assert run_cli("distill", *args, "--out", out, "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: field 'metrics' has shape "), err
        assert err.endswith("round 2 needs [2, 5, 3]\n"), err
        assert not os.path.exists(f"{out}/distill_metrics.csv")

    def test_checkpoint_with_metrics_rows_is_refused(self, halfway, capsys):
        # the history as (iter, k, traj_loss, d_loss, g_loss, queue_sizes)
        # rows, the layout before it became one array
        args, _, out = halfway

        def rows(p):
            in_flight = lambda k: "|".join("1" if j == k else "0" for j in range(6))
            p["metrics"] = [[r, k, 0.5, 0.25, 0.75, in_flight(k)]
                            for r in range(2) for k in range(4, -1, -1)]

        path = self._rewrite(out, rows)
        assert run_cli("distill", *args, "--out", out, "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: field 'metrics'"), err
        assert not os.path.exists(f"{out}/distill_metrics.csv")

    def test_per_head_records_are_refused(self, halfway, capsys):
        # the earlier layout: one {index, params} record and one Adam state per head
        args, _, out = halfway

        def head(records, i):
            return [dict(r, shape=r["shape"][1:], data=tensor_data(record_array(r)[i]))
                    for r in records]

        def per_head(p):
            heads, opt = p["heads"], p["opt_heads"]
            p["heads"] = [{"index": i, "params": head(heads, i)} for i in range(5)]
            p["opt_heads"] = [dict(opt, m=head(opt["m"], i), v=head(opt["v"], i))
                              for i in range(5)]

        path = self._rewrite(out, per_head)
        assert run_cli("distill", *args, "--out", out, "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {path}: field 'heads': tensor record 0: missing field 'name'"), err

    def test_tensor_off_its_shape_is_named(self, halfway, capsys):
        args, _, out = halfway

        def damage(payload):
            payload["opt_student"]["m"][1]["data"] = tensor_data([0.0])

        path = self._rewrite(out, damage)
        assert run_cli("distill", *args, "--out", out, "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: field 'opt_student.m': tensor 'in.b': "
                              "data holds 8 bytes, shape [12] needs 96"), err

    @pytest.mark.parametrize("version", [1, 3, "2", None])
    def test_checkpoint_of_another_version_is_refused(self, halfway, capsys, version):
        args, _, out = halfway
        path = self._rewrite(out, lambda p: p.update(version=version))
        assert run_cli("distill", *args, "--out", out, "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: version {version!r} is not 2; "
                              "re-run distill without --resume"), err


class TestKdBaseline:
    def test_runs_and_writes_outputs(self, tiny_config, tmp_path, trained_dir):
        out = str(tmp_path / "kd")
        assert run_cli("kd-baseline", "--config", tiny_config, "--out", out,
                       "--teacher", f"{trained_dir}/teacher.json",
                       "--mismatch", "1.0") == 0
        assert os.path.exists(f"{out}/kd_student.json")
        assert os.path.exists(f"{out}/kd_loss.csv")

    @pytest.mark.parametrize("mismatch", ["nan", "inf"])
    def test_non_finite_mismatch_is_refused_first(self, tiny_config, tmp_path, capsys,
                                                  mismatch):
        # refused before the output directory is made or the teacher read
        out = tmp_path / "kd"
        assert run_cli("kd-baseline", "--config", tiny_config, "--out", str(out),
                       "--teacher", str(tmp_path / "none.json"), "--mismatch", mismatch) == 1
        assert capsys.readouterr().err.startswith("error: --mismatch must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("mismatch", ["1e308", "1e150"])
    def test_overflowing_mismatch_is_named(self, tiny_config, tmp_path, capsys, trained_dir,
                                           mismatch):
        # 1e308 overflows the teacher rollouts of the pool, 1e150 Adam's second moment
        assert run_cli("kd-baseline", "--config", tiny_config, "--out", str(tmp_path / "kd"),
                       "--teacher", f"{trained_dir}/teacher.json",
                       "--mismatch", mismatch) == 1
        assert capsys.readouterr().err.startswith(f"error: --mismatch {float(mismatch)} ")


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
    "relu-activation": (lambda p: dict(p, meta=dict(p["meta"], activation="relu")),
                        "meta.activation"),
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
        assert capsys.readouterr().err == "error: sample count must be positive, got 0\n"
        assert not (tmp_path / "s" / "samples.csv").exists()

    def test_deterministic_given_seed(self, trained_dir, tmp_path):
        outs = [str(tmp_path / x) for x in ("s1", "s2")]
        for out in outs:
            run_cli("sample", "--model", f"{trained_dir}/teacher.json",
                    "--count", "8", "--steps", "10", "--seed", "3", "--out", out)
        assert same_bytes(f"{outs[0]}/samples.csv", f"{outs[1]}/samples.csv")


class TestEval:
    def test_teacher_and_student_rows(self, tiny_config, trained_dir):
        assert run_cli("distill", "--config", tiny_config, "--out", trained_dir,
                       *inputs(trained_dir)) == 0
        assert run_cli("eval", "--config", tiny_config, "--out", trained_dir,
                       *inputs(trained_dir), "--student", f"{trained_dir}/student.json") == 0
        lines = open(f"{trained_dir}/eval.csv").read().splitlines()
        assert lines[0] == "label,w1,endpoint_error,useless_frequency,seed"
        assert lines[1].startswith("teacher-10step,")
        assert lines[2].startswith("student-5step,")

        # both rows are the scoring cell's numbers on the eval noise
        teacher, student = (fd.load_model(f"{trained_dir}/{name}.json")
                            for name in ("teacher", "student"))
        Z = np.random.default_rng(fd.derive_seed(TINY["seed"], "eval")).standard_normal(
            (TINY["analysis"]["sample_count"], 1))
        support = TINY["dataset"]["support"]
        t = fd.score_model(teacher, Z, fd.TimeGrid.uniform(TINY["store"]["n"]), support)
        s = fd.score_model(student, Z, fd.TimeGrid.uniform(TINY["distill"]["m"]), t.samples)
        for row, cell in zip(csv.DictReader(lines), (t, s)):
            assert float(row["w1"]) == cell.w1, row
            assert float(row["endpoint_error"]) == fd.endpoint_error(cell.samples, support), row


class TestAnalyze:
    def test_sweep_has_row_per_m_and_seed(self, tiny_config, tmp_path, trained_dir):
        out = str(tmp_path / "an")
        assert run_cli("analyze-mismatch", "--config", tiny_config, "--out", out,
                       *inputs(trained_dir)) == 0
        lines = open(f"{out}/mismatch_sweep.csv").read().splitlines()
        assert lines[0] == "M,seed,useless_frequency,kd_w1,traj_distill_w1,endpoint_error"
        assert len(lines) == 1 + 2 * 2  # m_sweep x seeds
        # distillation never reads the shifted dataset: one student per seed serves every M
        w1 = {}
        for row in csv.DictReader(lines):
            w1.setdefault(row["seed"], set()).add(row["traj_distill_w1"])
        assert sorted(w1) == ["0", "1"]
        assert all(len(values) == 1 for values in w1.values()), w1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_shift_is_named(self, tmp_path, trained_dir, capsys):
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(dict(TINY, analysis=dict(TINY["analysis"],
                                                              m_sweep=[1e300]))))
        assert run_cli("analyze-mismatch", "--config", str(config), "--out",
                       str(tmp_path / "an"), *inputs(trained_dir)) == 1
        assert capsys.readouterr().err.startswith(
            "error: analysis.m_sweep value 1e+300 is too large to train on with kd.lr 0.001: "
            "KD training")

    def test_one_and_two_workers_write_the_same_bytes(self, tiny_config, tmp_path,
                                                      trained_dir, monkeypatch):
        def sweep(out):
            assert run_cli("analyze-mismatch", "--config", tiny_config, "--out", out,
                           *inputs(trained_dir)) == 0
            return open(f"{out}/mismatch_sweep.csv", "rb").read()

        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            serial = sweep(str(tmp_path / "one"))
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("this process may use one CPU, so the sweep cannot run on two workers")
        assert sweep(str(tmp_path / "two")) == serial


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["synth", "sample", "eval", "kd-baseline"])
def test_model_whose_euler_integration_overflows_is_named(tmp_path, capsys, command):
    # an output layer at the edge of the float range: the first Euler step overflows
    model = fd.build_velocity_model(1, 8, 1, seed=0)
    model.params.tensors[-2][:] = 1e307
    model.params.tensors[-1][:] = 1.7e308
    path = str(tmp_path / "model.json")
    fd.save_model(path, model)
    config = tmp_path / "small.json"
    config.write_text(json.dumps(dict(TINY, model={"H": 8, "R": 1}, store={"N": 4, "n": 10})))
    args = ["--model", path, "--count", "4", "--steps", "5"] if command == "sample" else \
        ["--teacher", path, "--config", str(config)]
    assert run_cli(command, *args, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: Euler integration produced a non-finite state"), err
    assert err.count("\n") == 1, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["kd-baseline", "analyze-mismatch"])
def test_kd_divergence_at_zero_shift_names_the_rate(tmp_path, trained_dir, capsys, command):
    # the teacher's rollouts are finite and the data unshifted: only kd.lr is to blame
    config = tmp_path / "steep.json"
    config.write_text(json.dumps(dict(TINY, kd=dict(TINY["kd"], lr=1e300), analysis=dict(
        TINY["analysis"], m_sweep=[0.0], seeds=[0]))))
    args = ["--mismatch", "0"] if command == "kd-baseline" else \
        ["--store", f"{trained_dir}/store.jsonl"]
    assert run_cli(command, "--config", str(config), "--out", str(tmp_path / "o"),
                   "--teacher", f"{trained_dir}/teacher.json", *args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: kd.lr 1e+300: KD training diverged at iteration "), err
    assert err.count("\n") == 1, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["kd-baseline", "analyze-mismatch"])
def test_kd_divergence_at_a_shift_names_shift_and_rate(tmp_path, trained_dir, capsys, command):
    # a shift or the rate can make training diverge: both commands name both, in one wording
    config = tmp_path / "steep.json"
    config.write_text(json.dumps(dict(TINY, kd=dict(TINY["kd"], lr=1e300), analysis=dict(
        TINY["analysis"], m_sweep=[1.0], seeds=[0]))))
    args = ["--mismatch", "1.0"] if command == "kd-baseline" else \
        ["--store", f"{trained_dir}/store.jsonl"]
    shift = "--mismatch 1.0" if command == "kd-baseline" else "analysis.m_sweep value 1.0"
    assert run_cli(command, "--config", str(config), "--out", str(tmp_path / "o"),
                   "--teacher", f"{trained_dir}/teacher.json", *args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {shift} is too large to train on with kd.lr 1e+300: "
                          "KD training diverged at iteration "), err
    assert err.count("\n") == 1, err


class TestDimensionMismatch:
    """A model whose d is not the dimension of the config's data points is
    refused, naming the model file and the config field."""

    @pytest.mark.parametrize("command", ["kd-baseline", "eval", "analyze-mismatch"])
    def test_support_of_another_dimension_is_refused(self, tmp_path, trained_dir, capsys,
                                                     command):
        config = tmp_path / "plane.json"
        config.write_text(json.dumps(dict(TINY, dataset={"support": [[-3.0, 0.0],
                                                                     [3.0, 0.0]]})))
        teacher = f"{trained_dir}/teacher.json"
        store = [] if command == "kd-baseline" else ["--store", f"{trained_dir}/store.jsonl"]
        assert run_cli(command, "--config", str(config), "--out", str(tmp_path / "o"),
                       "--teacher", teacher, *store) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {teacher}: model has d=1, but config field dataset.support holds "
            "points of dimension 2")

    def test_eval_student_of_another_dimension_is_refused(self, tiny_config, tmp_path,
                                                         trained_dir, capsys):
        student = str(tmp_path / "student.json")
        fd.save_model(student, fd.build_velocity_model(2, 12, 2, seed=0))
        assert run_cli("eval", "--config", tiny_config, "--out", str(tmp_path / "o"),
                       "--teacher", f"{trained_dir}/teacher.json", "--student", student) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {student}: model has d=2, but config field dataset.support holds "
            "points of dimension 1")
