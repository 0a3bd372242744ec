"""Golden SHA-256 digests of every file the CLI writes on two small runs.

    PYTHONPATH=src python tests/golden.py           compare with tests/golden.json
    PYTHONPATH=src python tests/golden.py --write   rewrite tests/golden.json

The runs are the criterion-9 CLI sequence and a short distill at the
distill-adv shape of perfbench (N=4096, n=50, H=32, R=3, batch 128) with
a checkpoint, with and without the adversary and with one shared head.

The bits depend on the machine: OpenBLAS picks its kernels by CPU, and
numpy dispatches its float64 loops by CPU level. So the digests are
recorded with an environment key, and they are comparable only under an
equal key. A change that alters bits on purpose rewrites the file and
lists the changed artifacts.
"""

from __future__ import annotations

import os

# must happen before numpy loads so BLAS sees it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from flowdistill.cli import main as cli_main

GOLDEN = Path(__file__).with_name("golden.json")

CRITERION_9 = {
    "config_version": 1, "seed": 3,
    "dataset": {"support": [-3.0, 3.0]},
    "model": {"H": 12, "R": 2},
    "teacher": {"iterations": 40, "batch_size": 32, "lr": 1e-3},
    "store": {"N": 12, "n": 10},
    "distill": {"m": 5, "iterations": 4, "batch_size": 8, "checkpoint_interval": 2},
    "kd": {"windows": 2, "iterations": 8, "batch_size": 8, "pool_size": 32},
    "analysis": {"t_samples": 32, "m_sweep": [0.0, 1.0], "seeds": [0], "sample_count": 64},
}
DISTILL_ADV = {
    "config_version": 1, "seed": 0,
    "dataset": {"support": [-3.0, 3.0]},
    "model": {"H": 32, "R": 3},
    "teacher": {"iterations": 100, "batch_size": 256, "lr": 1e-3},
    "store": {"N": 4096, "n": 50},
    "distill": {"m": 5, "iterations": 4, "batch_size": 128, "lambda_adv": 0.1,
                "heads": "per_timestep", "adv_batch": 32, "checkpoint_interval": 2},
}


def _criterion_9(out: str) -> list:
    model = ["--teacher", f"{out}/teacher.json"]
    store = ["--store", f"{out}/store.jsonl"]
    return [["train-teacher"], ["synth", *model], ["distill", *model, *store],
            ["kd-baseline", *model, "--mismatch", "1.0"], ["analyze-mismatch", *model, *store],
            ["sample", "--model", f"{out}/teacher.json", "--count", "8", "--steps", "5",
             "--seed", "1"],
            ["eval", *model, "--student", f"{out}/student.json", *store]]


def _distill_adv(out: str) -> list:
    inputs = ["--teacher", f"{out}/teacher.json", "--store", f"{out}/store.jsonl"]
    return [["train-teacher"], ["synth", "--teacher", f"{out}/teacher.json"],
            ["distill", *inputs],
            ["distill", *inputs, "--no-adv", "--out", f"{out}/no-adv"],
            ["distill", *inputs, "--single-head", "--out", f"{out}/single-head"]]


# run name -> (config, the CLI argument lists of the run writing into its directory)
RUNS = {"criterion-9": (CRITERION_9, _criterion_9),
        "distill-adv": (DISTILL_ADV, _distill_adv)}


def environment() -> dict:
    """What the bits of a run depend on besides the code."""
    config = np.show_config(mode="dicts")
    blas, simd = config["Build Dependencies"]["blas"], config["SIMD Extensions"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}: "
                    f"{blas.get('openblas configuration', '')}",
            "cpu_baseline": simd["baseline"], "cpu_found": simd["found"],
            "python": platform.python_version()}


def run(name: str, root: Path) -> Path:
    """Run the entry `name` of RUNS into the directory root/name, which
    it returns, with its config file beside that directory."""
    config, arguments = RUNS[name]
    out = root / name
    out.mkdir(parents=True)
    config_path = root / f"{name}.config.json"
    config_path.write_text(json.dumps(config))
    for args in arguments(str(out)):
        full = args if "--out" in args else args + ["--out", str(out)]
        if args[0] != "sample":
            full = full + ["--config", str(config_path)]
        if cli_main(full) != 0:
            raise RuntimeError(f"{name}: {' '.join(args)} failed")
    return out


def write_runs(root: Path):
    """Run every entry of RUNS into its own directory under `root`."""
    for name in RUNS:
        run(name, root)


def digests(root: Path) -> dict:
    """The SHA-256 of every file in the run directories, by path under `root`."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for name in RUNS for path in sorted((root / name).rglob("*")) if path.is_file()}


def check_digests(expected: dict, actual: dict):
    """Fail naming every file whose digest differs, is missing or is new."""
    differing = sorted(name for name in expected.keys() | actual.keys()
                       if expected.get(name) != actual.get(name))
    assert not differing, f"files differ from {GOLDEN.name}: {', '.join(differing)}"


def environment_mismatch(recorded: dict) -> str | None:
    """None when `recorded` is this machine's environment key, else the keys that differ."""
    here = environment()
    differing = [f"{key}: {recorded.get(key)!r} recorded, {here.get(key)!r} here"
                 for key in recorded.keys() | here.keys()
                 if recorded.get(key) != here.get(key)]
    return "; ".join(sorted(differing)) or None


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        write_runs(Path(tmp))
        actual = digests(Path(tmp))
    if args.write:
        GOLDEN.write_text(json.dumps({"environment": environment(), "digests": actual},
                                     indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(actual)} digests to {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    mismatch = environment_mismatch(golden["environment"])
    if mismatch:
        print(f"digests not comparable: {mismatch}")
        return 2
    check_digests(golden["digests"], actual)
    print(f"{len(actual)} digests match {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
