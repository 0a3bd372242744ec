"""Benchmark of the flowdistill pipeline, one CLI stage per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this file's directory.
Each workload builds its inputs from --seed (the config, a small
teacher and an N=4096 store, timed as `setup_s`), then runs its stage
the way a user would: `python3 -m flowdistill.cli ...` in a fresh
process with PYTHONPATH=src and BLAS pinned to one thread. One caller
runs one command at a time (a closed loop) until --seconds have passed,
times each command from outside, reads the child's peak RSS from
os.wait4 and checks its outputs. With --trace 1 it also runs the stage
once more under perfbench/child.py, which wraps the public functions of
each module and reports call counts, self time and bytes written.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1). Lines before it give run metadata and a
readable summary.

Every workload reports the same end-to-end metrics:
  unit_ms      median wall time of the stage, process start included,
               per unit of its work: a teacher iteration (teacher-b2048),
               a distill round (distill-adv), a store path written by
               `synth` and reloaded with validation in a fresh process
               (store-roundtrip), a (M, seed) cell (mismatch-sweep)
  setup_s      median time to build the config, teacher and store the
               stage consumes
  peak_rss_mb  median peak resident memory of the stage's processes
The summary adds the stage's own figures (teacher_iter_ms,
distill_round_ms, synth_path_us and load_path_us, sweep_s) and
failed_ratio, the share of attempts whose command or checks failed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
PY = sys.executable or "python3"

# set-up is repeated at least SETUP_REPEATS times and for SETUP_SECONDS
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
MIN_ATTEMPTS = 3
STARTUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0
# distill-adv: the 5-step student's W1 to the teacher's 50-step samples
# (eval.csv); distillation from a teacher-initialised student stays far
# below this on every seed tried
STUDENT_W1_BOUND = 0.05

# Work per command, sized so a command takes 1-4 s on one core: long
# enough that process start is a small share, short enough that a run
# of --seconds holds several commands to take the median of.
SIZES = {
    "N": 4096,
    "n": 50,
    "teacher_iterations": 100,      # teacher-b2048, at batch 2048
    "setup_teacher_iterations": 100,  # the teacher the other stages consume
    "distill_rounds": 100,
    "checkpoint_interval": 50,
    "sweep_rounds": 50,
    "kd_iterations": 100,
    "kd_pool": 2048,
    "m_sweep": [0.0, 1.0, 2.5],
    "sweep_seeds": [0, 1],
    "t_samples": 1024,
    "sample_count": 1024,
}

# "<module>.<function>" -> the statistics reported for it in a traced run
TRACED = {
    "autodiff.backward": ("calls", "self_ms"),
    "nn.value_and_grad": ("calls", "self_ms"),
    "nn.forward_velocity": ("calls", "self_ms"),
    "nn.optimizer_step": ("calls", "self_ms"),
    "nn.eval_velocity": ("calls", "self_ms"),
    "nn.save_paramset": ("self_ms",),
    "nn.load_model": ("self_ms",),
    "flow.train_teacher": ("self_ms",),
    "flow.denoise_batch": ("calls", "self_ms"),
    "trajstore.generate_store": ("self_ms",),
    "trajstore.save_store": ("self_ms", "bytes"),
    "trajstore.load_store": ("self_ms",),
    "trajstore.validate_store": ("self_ms",),
    "trajstore.key_points": ("calls", "self_ms"),
    "distill.distill": ("self_ms",),
    "distill.save_checkpoint": ("calls", "self_ms", "bytes"),
    "adversarial.features_node": ("calls", "self_ms"),
    "adversarial.head_logit_node": ("calls", "self_ms"),
    "analysis.kd_baseline_distill": ("self_ms",),
    "analysis.useless_frequency": ("calls", "self_ms"),
    "analysis.w1_distance": ("self_ms",),
    "analysis.endpoint_error": ("self_ms",),
    "cli.write_csv": ("self_ms", "bytes"),
}
# where a traced name is not a module-level function
TRACED_ATTR = {"autodiff.backward": "Tensor.backward"}
# argument index of the path written by functions reporting bytes
BYTES_ARG = {"trajstore.save_store": 1, "distill.save_checkpoint": 0,
             "cli.write_csv": 0}
STAT_UNITS = {"calls": "count", "self_ms": "ms", "bytes": "bytes"}
DERIVED_LAYER = {
    "distill.adv_steps_ratio": "ratio",  # adversarial updates / (rounds * m)
    "cli.startup_ms": "ms",  # fresh process that only imports flowdistill
    "trace.overhead_ms": "ms",  # traced wall time minus the untraced median
    # traced wall time less process start and import, less every self time
    "trace.unattributed_ms": "ms",
}
END_TO_END = {"unit_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


class CheckFailed(Exception):
    """An output check of one attempt failed."""


class SetupFailed(Exception):
    """The inputs of the measured command could not be built."""


# --------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    # the package's own pin is a setdefault that loses to an earlier
    # numpy import, so every child gets it explicitly
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(SRC)
    # imports read cached bytecode, as from an installed package, so the
    # size of src/ does not add compile time to every command
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class ChildResult:
    rc: int
    wall_s: float
    rss_mb: float
    stderr: str


def run_child(argv: list, log: Path) -> ChildResult:
    """Run one process to completion; wall time and its own peak RSS.

    Peak memory comes from the wait4 rusage of this child alone:
    RUSAGE_CHILDREN would keep the maximum over every child so far.
    """
    with open(log, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-2000:].decode("utf-8", "replace")
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, tail)


def cli(*args) -> list:
    return [PY, "-m", "flowdistill.cli", *map(str, args)]


def helper(*args) -> list:
    return [PY, str(CHILD), *map(str, args)]


def run_ok(argv: list, log: Path, what: str, exc=CheckFailed) -> ChildResult:
    res = run_child(argv, log)
    if res.rc != 0:
        raise exc(f"{what} exited with {res.rc}: {res.stderr.strip()[-400:]}")
    return res


# ----------------------------------------------------------------- inputs

def make_config(workload: str, seed: int) -> dict:
    """Run config for one workload: acceptance shapes (H=32, R=3, d=1,
    N=4096, n=50, m=5), with the iteration counts of SIZES."""
    sizes = SIZES
    sweep = workload == "mismatch-sweep"
    teacher = ({"iterations": sizes["teacher_iterations"], "batch_size": 2048,
                "lr": 1e-4} if workload == "teacher-b2048" else
               {"iterations": sizes["setup_teacher_iterations"], "batch_size": 256,
                "lr": 1e-3})
    return {
        "config_version": 1,
        "name": f"perfbench-{workload}",
        "seed": seed,
        "out_dir": "out",
        "dataset": {"support": [-3.0, 3.0]},
        "model": {"H": 32, "R": 3},
        "teacher": teacher,
        "store": {"N": sizes["N"], "n": sizes["n"]},
        "distill": {
            "m": 5,
            "iterations": sizes["sweep_rounds"] if sweep else sizes["distill_rounds"],
            "batch_size": 128,
            "lambda_adv": 0.0 if sweep else 0.1,
            "heads": "per_timestep",
            "adv_batch": 32,
            "checkpoint_interval": 0 if sweep else sizes["checkpoint_interval"],
        },
        "kd": {"windows": 5, "iterations": sizes["kd_iterations"], "batch_size": 256,
               "lr": 1e-3, "pool_size": sizes["kd_pool"]},
        "analysis": {
            "epsilon": 0.1,
            "mode": "trajectory-proximity",
            "t_samples": sizes["t_samples"],
            "m_sweep": list(sizes["m_sweep"]),
            "seeds": list(sizes["sweep_seeds"]),
            "sample_count": sizes["sample_count"],
        },
    }


@dataclass
class Inputs:
    dir: Path
    config: Path
    raw: dict

    @property
    def teacher(self) -> Path:
        return self.dir / "teacher.json"

    @property
    def store(self) -> Path:
        return self.dir / "store.jsonl"


def build_inputs(workload: "Workload", seed: int, base: Path):
    """Build config, teacher and store several times; the median time
    is setup_s. Each build is checked by the process that consumes it,
    and every build must give the same bytes."""
    times, digests, inputs = [], set(), None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        d = base / f"setup{len(times)}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        raw = make_config(workload.name, seed)
        inputs = Inputs(d, d / "config.json", raw)
        inputs.config.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
        run_ok(helper("check-config", inputs.config), d / "config.log",
               "config check", SetupFailed)
        if "teacher" in workload.needs:
            run_ok(cli("train-teacher", "--config", inputs.config, "--out", d),
                   d / "teacher.log", "setup train-teacher", SetupFailed)
        if "store" in workload.needs:
            run_ok(cli("synth", "--config", inputs.config, "--teacher", inputs.teacher,
                       "--out", d), d / "store.log", "setup synth", SetupFailed)
        times.append(time.perf_counter() - t0)
        digests.add(tuple(sorted(tree_digests(d, skip_suffix=".log").items())))
    if len(digests) != 1:
        raise SetupFailed("setup builds of the same seed differ")
    return statistics.median(times), inputs


# ----------------------------------------------------------------- checks

def tree_digests(directory: Path, skip_suffix: str | None = None) -> dict:
    out = {}
    for p in sorted(directory.iterdir()):
        if p.is_file() and not (skip_suffix and p.name.endswith(skip_suffix)):
            out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def read_csv(path: Path) -> list:
    if not path.is_file():
        raise CheckFailed(f"missing artifact {path.name}")
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def require_files(out: Path, names):
    missing = [n for n in names if not (out / n).is_file()]
    require(not missing, f"missing artifacts {missing}")


def finite(rows, column) -> bool:
    return all(math.isfinite(float(r[column])) for r in rows)


def check_teacher(inp: Inputs, out: Path, first: bool):
    require_files(out, ["teacher.json", "teacher_loss.csv"])
    rows = read_csv(out / "teacher_loss.csv")
    require(len(rows) == inp.raw["teacher"]["iterations"],
            f"teacher_loss.csv has {len(rows)} rows")
    require(finite(rows, "loss"), "non-finite teacher loss")


def adv_steps(rows) -> int:
    return sum(1 for r in rows if math.isfinite(float(r["d_loss"])))


def check_distill(inp: Inputs, out: Path, first: bool):
    m, rounds = inp.raw["distill"]["m"], inp.raw["distill"]["iterations"]
    require_files(out, ["student.json", "distill_metrics.csv", "distill_checkpoint.json",
                        *(f"head_{k}.json" for k in range(m))])
    rows = read_csv(out / "distill_metrics.csv")
    require(len(rows) == rounds * m, f"distill_metrics.csv has {len(rows)} rows")
    require(finite(rows, "traj_loss"), "non-finite trajectory loss")
    for column in ("d_loss", "g_loss"):
        # nan marks a queue warm-up skip; anything else must be finite
        require(all(not math.isinf(float(r[column])) for r in rows),
                f"infinite {column}")
    require(adv_steps(rows) > 0, "no adversarial update was performed")
    if first:
        ev = out.parent / (out.name + "-eval")
        run_ok(cli("eval", "--config", inp.config, "--teacher", inp.teacher,
                   "--student", out / "student.json", "--out", ev),
               out.parent / (out.name + "-eval.log"), "eval")
        student = [r for r in read_csv(ev / "eval.csv") if r["label"].startswith("student")]
        require(len(student) == 1, "eval.csv has no student row")
        w1 = float(student[0]["w1"])
        shutil.rmtree(ev)
        require(w1 < STUDENT_W1_BOUND,
                f"student W1 {w1} to the teacher is not below {STUDENT_W1_BOUND}")


def check_store(inp: Inputs, out: Path, first: bool):
    require_files(out, ["store.jsonl"])
    with open(out / "store.jsonl", "rb") as f:
        lines = sum(1 for _ in f)
    require(lines == inp.raw["store"]["N"] + 1, f"store.jsonl has {lines} lines")
    if first:
        # regenerates the store synth wrote and compares it with the file
        run_ok(helper("check-store", inp.config, inp.teacher, out / "store.jsonl"),
               out.parent / (out.name + "-check.log"), "store round trip")


def check_sweep(inp: Inputs, out: Path, first: bool):
    rows = read_csv(out / "mismatch_sweep.csv")
    a = inp.raw["analysis"]
    expected = [M for M in a["m_sweep"] for _ in a["seeds"]]
    require(len(rows) == len(expected), f"mismatch_sweep.csv has {len(rows)} rows")
    require([float(r["M"]) for r in rows] == expected,
            "M column differs from the requested shifts")
    for column in ("useless_frequency", "kd_w1", "traj_distill_w1", "endpoint_error"):
        require(finite(rows, column), f"non-finite {column}")


# -------------------------------------------------------------- workloads

@dataclass
class Workload:
    name: str
    needs: tuple          # inputs built in setup besides the config
    units: str            # what unit_ms divides the command time by
    count_units: object   # Inputs -> number of units
    commands: object      # (Inputs, out dir) -> [(kind, args)]
    check: object         # (Inputs, out dir, first) -> None, raises CheckFailed
    # (name, unit, scale, command index) of the stage metrics in the summary:
    # scale * median(wall of that command) / units, or the median wall in
    # seconds when scale is None
    stage: tuple


WORKLOADS = {w.name: w for w in [
    Workload(
        "teacher-b2048", (), "teacher iterations",
        lambda i: i.raw["teacher"]["iterations"],
        lambda i, out: [("cli", ["train-teacher", "--config", i.config, "--out", out])],
        check_teacher, (("teacher_iter_ms", "ms", 1e3, 0),)),
    Workload(
        "distill-adv", ("teacher", "store"), "distill rounds",
        lambda i: i.raw["distill"]["iterations"],
        lambda i, out: [("cli", ["distill", "--config", i.config, "--teacher", i.teacher,
                                 "--store", i.store, "--out", out])],
        check_distill, (("distill_round_ms", "ms", 1e3, 0),)),
    Workload(
        "store-roundtrip", ("teacher",), "store paths written and reloaded",
        lambda i: i.raw["store"]["N"],
        lambda i, out: [("cli", ["synth", "--config", i.config, "--teacher", i.teacher,
                                 "--out", out]),
                        ("load-store", [i.teacher, out / "store.jsonl"])],
        check_store, (("synth_path_us", "us", 1e6, 0), ("load_path_us", "us", 1e6, 1))),
    Workload(
        "mismatch-sweep", ("teacher", "store"), "sweep cells (M, seed)",
        lambda i: len(i.raw["analysis"]["m_sweep"]) * len(i.raw["analysis"]["seeds"]),
        lambda i, out: [("cli", ["analyze-mismatch", "--config", i.config, "--teacher",
                                 i.teacher, "--store", i.store, "--out", out])],
        check_sweep, (("sweep_s", "s", None, 0),)),
]}


def argv_of(kind: str, args: list, spans: Path | None = None) -> list:
    if spans is not None:
        return helper("trace", spans, kind, *args)
    return cli(*args) if kind == "cli" else helper(kind, *args)


# ------------------------------------------------------------ measurement

@dataclass
class Attempt:
    walls: list
    rss_mb: float
    ok: bool
    error: str = ""


def attempt(wl: Workload, inp: Inputs, out: Path, first: bool, reference: dict,
            spans_dir: Path | None = None) -> Attempt:
    out.mkdir(parents=True)
    walls, rss = [], 0.0
    try:
        for j, (kind, args) in enumerate(wl.commands(inp, out)):
            spans = spans_dir / f"spans{j}.json" if spans_dir else None
            res = run_ok(argv_of(kind, args, spans), out.parent / f"{out.name}-{j}.log",
                         f"{kind} {args[0]}")
            walls.append(res.wall_s)
            rss = max(rss, res.rss_mb)
        wl.check(inp, out, first)
        digests = tree_digests(out)
        if not reference:
            reference.update(digests)
        require(digests == reference, "artifact digests differ from the first attempt")
    except CheckFailed as e:
        return Attempt(walls, rss, False, str(e))
    finally:
        if spans_dir is not None:
            for csv_file in out.glob("*.csv"):
                shutil.copy(csv_file, spans_dir / csv_file.name)
        shutil.rmtree(out, ignore_errors=True)
    return Attempt(walls, rss, True)


def closed_loop(wl: Workload, inp: Inputs, base: Path, seconds: float, reference: dict):
    attempts = []
    start = time.perf_counter()
    while len(attempts) < MIN_ATTEMPTS or time.perf_counter() - start < seconds:
        attempts.append(attempt(wl, inp, base / f"rep{len(attempts)}",
                                not attempts, reference))
    return attempts


def passed(attempts: list) -> list:
    """The attempts whose figures count: those that passed their checks."""
    return [a for a in attempts if a.ok] or attempts


def end_to_end(wl: Workload, inp: Inputs, attempts: list, setup_s: float):
    good = passed(attempts)
    units = wl.count_units(inp)
    metrics = {
        "unit_ms": statistics.median(sum(a.walls) for a in good) / units * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(a.rss_mb for a in good),
    }
    stage = {}
    for name, unit, scale, j in wl.stage:
        walls = [a.walls[j] for a in good if len(a.walls) > j]
        if walls:
            med = statistics.median(walls)
            stage[name] = (med if scale is None else scale * med / units, unit)
    return metrics, stage


def startup_ms(base: Path) -> float:
    walls = [run_ok([PY, "-c", "import flowdistill"], base / "startup.log",
                    "import flowdistill").wall_s for _ in range(STARTUP_PROBES)]
    return statistics.median(walls) * 1e3


def traced(wl: Workload, inp: Inputs, base: Path, attempts: list, reference: dict):
    """One traced attempt; per-layer metrics and the trace's own report."""
    spans_dir = base / "spans"
    spans_dir.mkdir()
    tr = attempt(wl, inp, base / "traced", False, reference, spans_dir)
    stats, absent = {}, set()
    for p in sorted(spans_dir.glob("spans*.json")):
        report = json.loads(p.read_text(encoding="utf-8"))
        absent.update(report["absent"])
        for name, s in report["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "self_ms": 0.0, "bytes": 0})
            for key in acc:
                acc[key] += s[key]
    start_ms = startup_ms(base)
    untraced_ms = statistics.median(sum(a.walls) for a in passed(attempts)) * 1e3
    traced_ms = sum(tr.walls) * 1e3
    metrics, units = {}, {}
    for name, kinds in TRACED.items():
        if name in absent:
            continue
        s = stats.get(name, {"calls": 0, "self_ms": 0.0, "bytes": 0})
        for kind in kinds:
            metrics[f"{name}.{kind}"] = s[kind]
            units[f"{name}.{kind}"] = STAT_UNITS[kind]
    rounds_m = inp.raw["distill"]["iterations"] * inp.raw["distill"]["m"]
    metrics_csv = spans_dir / "distill_metrics.csv"
    adv_rows = adv_steps(read_csv(metrics_csv)) if metrics_csv.is_file() else 0
    metrics["distill.adv_steps_ratio"] = adv_rows / rounds_m
    metrics["cli.startup_ms"] = start_ms
    metrics["trace.overhead_ms"] = traced_ms - untraced_ms
    metrics["trace.unattributed_ms"] = (traced_ms - start_ms * len(tr.walls)
                                        - sum(s["self_ms"] for s in stats.values()))
    units.update(DERIVED_LAYER)
    never_fired = sorted(n for n in TRACED if n not in absent
                         and stats.get(n, {"calls": 0})["calls"] == 0)
    report = {"traced_ms": traced_ms, "untraced_median_ms": untraced_ms,
              "absent": sorted(absent), "never_fired": never_fired}
    return tr, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, report


# --------------------------------------------------------------- metadata

def line_count(directory: Path) -> int:
    total = 0
    for p in sorted(directory.rglob("*.py")):
        with open(p, "rb") as f:
            total += sum(1 for _ in f)
    return total


def git_revision() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def metadata() -> dict:
    res = subprocess.run(helper("meta"), cwd=ROOT, env=child_env(), capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S)
    versions = json.loads(res.stdout) if res.returncode == 0 else {"error": res.stderr[-400:]}
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "git_revision": git_revision(),
        "src_lines": line_count(SRC),
        "tests_lines": line_count(ROOT / "tests") if (ROOT / "tests").is_dir() else 0,
        "child_env": {v: child_env()[v] for v in (*BLAS_THREAD_VARS, "PYTHONPATH")},
    }


# ------------------------------------------------------------------- main

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    base = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        meta = metadata()
        setup_s, inp = build_inputs(wl, seed, base)
        reference: dict = {}
        attempts = closed_loop(wl, inp, base, seconds, reference)
        metrics, stage = end_to_end(wl, inp, attempts, setup_s)
        if trace:
            tr, layer_metrics, trace_report = traced(wl, inp, base, attempts, reference)
            attempts.append(tr)
            meta["trace"] = trace_report
        failed = sum(not a.ok for a in attempts)
        print(json.dumps({"metadata": meta}))
        summary(wl, inp, attempts, metrics, stage, failed)
        result = {
            "correct": failed == 0,
            "attempted": len(attempts),
            "failed": failed,
            "metrics": layer_metrics if trace else
            {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return result


def summary(wl, inp, attempts, metrics, stage, failed):
    n_ok = sum(a.ok for a in attempts)
    print(f"# {wl.name}: {len(attempts)} attempts, {n_ok} passed checks; "
          f"unit_ms is per {wl.units} ({wl.count_units(inp)} per attempt)")
    for a in attempts:
        if not a.ok:
            print(f"#   failed: {a.error}")
    rows = [(k, v, END_TO_END[k]) for k, v in metrics.items()]
    rows += [(k, v, u) for k, (v, u) in stage.items()]
    rows.append(("failed_ratio", failed / len(attempts), "ratio"))
    for name, value, unit in rows:
        print(f"#   {name:<18} {value:12.6g} {unit}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into an exception so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "flowdistill" / "__init__.py").is_file():
        print(f"error: no flowdistill package under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupFailed as e:
        print(f"error: setup failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
