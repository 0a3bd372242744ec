"""Command-line driver wiring configs, seeds, and file paths to every
pipeline stage.

Every command is deterministic given (config, seed): rerunning it
reproduces identical output bytes. Subcommands: train-teacher, synth,
distill, kd-baseline, analyze-mismatch, sample, eval.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

import numpy as np

from .adversarial import head_of
from .analysis import SWEEP_COLUMNS, endpoint_error, kd_baseline_distill, kd_failure, \
    mismatch_sweep, score_model, shifted_dataset, useless_frequency
from .atomic import atomic_open
from .config import load_config
from .distill import distill, METRIC_COLUMNS
from .errors import ConfigError, FlowDistillError, NumericsError, StoreIntegrityError
from .flow import TimeGrid, denoise_batch, train_teacher
from .nn import ParamSet, load_model, save_model, save_paramset
from .seeds import derive_seed
from .trajstore import check_teacher, generate_store, load_store, save_store


def _fmt(value) -> str:
    # np.float64 subclasses float but reprs differently; normalize first
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows):
    with atomic_open(path) as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _prepare(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _load_for_data(path, cfg):
    """The model at `path`, refused unless its d is the dimension of the
    config's data points."""
    model = load_model(path)
    if model.d != cfg.data.d:
        raise ConfigError(f"{path}: model has d={model.d}, but config field dataset.support "
                          f"holds points of dimension {cfg.data.d}")
    return model


@contextlib.contextmanager
def _model_named(path):
    """A NumericsError raised inside, such as an Euler integration that
    overflows, names the model file `path`."""
    try:
        yield
    except NumericsError as e:
        raise NumericsError(f"{path}: {e}") from e


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def cmd_train_teacher(args) -> int:
    cfg = _prepare(args)
    teacher, losses = train_teacher(
        cfg.data, cfg.teacher["iterations"], cfg.teacher["batch_size"],
        cfg.teacher["lr"], derive_seed(cfg.seed, "teacher"), **cfg.model,
    )
    save_model(os.path.join(cfg.out_dir, "teacher.json"), teacher)
    write_csv(os.path.join(cfg.out_dir, "teacher_loss.csv"), ("iteration", "loss"),
              [(i, float(l)) for i, l in enumerate(losses)])
    return 0


def cmd_synth(args) -> int:
    """Generate the store, save it, and check that the file reloads as
    the generated store bit for bit: seed, teacher fingerprint and every
    state (which fix the grid).

    A bit-exact reload passes `validate_store` without re-running the
    teacher: the stored states are the generation's own Euler steps,
    evaluated at the same batch shape a validated load uses, and their
    start states are the `path_noise` draws. A store from elsewhere is
    checked by `load_store(path, teacher)`.
    """
    cfg = _prepare(args)
    teacher = load_model(args.teacher)
    grid = TimeGrid.uniform(cfg.store["n"])
    with _model_named(args.teacher):
        store = generate_store(teacher, cfg.store["N"], grid, derive_seed(cfg.seed, "store"))
    path = os.path.join(cfg.out_dir, "store.jsonl")
    save_store(store, path)
    if not load_store(path).equal(store):
        raise StoreIntegrityError(f"{path}: the saved store does not reload as the "
                                  "store that was generated")
    return 0


def cmd_distill(args) -> int:
    cfg = _prepare(args)
    teacher = load_model(args.teacher)
    store = load_store(args.store)
    dcfg = dataclasses.replace(cfg.distill, seed=derive_seed(cfg.seed, "distill"))
    if args.no_adv:
        dcfg = dataclasses.replace(dcfg, lambda_adv=0.0)
    if args.single_head:
        dcfg = dataclasses.replace(dcfg, heads="single")
    # a resume reads the checkpoint whatever the interval: RESUMABLE lets it change
    result = distill(teacher, store, dcfg,
                     checkpoint_path=os.path.join(cfg.out_dir, "distill_checkpoint.json"),
                     resume=args.resume)
    save_model(os.path.join(cfg.out_dir, "student.json"), result.student)
    for i in range(result.heads.shapes[0][0]):
        name = f"head_{i}.json" if dcfg.heads == "per_timestep" else "head_shared.json"
        save_paramset(os.path.join(cfg.out_dir, name),
                      ParamSet(result.heads.names, head_of(result.heads, i)),
                      {"kind": "projection_head", "index": i})
    write_csv(os.path.join(cfg.out_dir, "distill_metrics.csv"), METRIC_COLUMNS,
              [(r, k, *losses[k]) for r, losses in enumerate(result.metrics)
               for k in range(dcfg.m - 1, -1, -1)])
    return 0


def cmd_kd_baseline(args) -> int:
    if not np.isfinite(args.mismatch):
        raise ConfigError(f"--mismatch must be finite, got {args.mismatch}")
    cfg = _prepare(args)
    teacher = _load_for_data(args.teacher, cfg)
    p_d = shifted_dataset(cfg.data, args.mismatch)
    kd_cfg = dataclasses.replace(cfg.kd, seed=derive_seed(cfg.seed, "kd"))
    grid = TimeGrid.uniform(cfg.store["n"])
    try:
        student, losses = kd_baseline_distill(teacher, p_d, kd_cfg, grid)
    except NumericsError as e:
        raise kd_failure(e, "--mismatch", args.mismatch, args.teacher, kd_cfg.lr) from e
    save_model(os.path.join(cfg.out_dir, "kd_student.json"), student)
    write_csv(os.path.join(cfg.out_dir, "kd_loss.csv"), ("iteration", "loss"),
              [(i, float(l)) for i, l in enumerate(losses)])
    return 0


def cmd_analyze(args) -> int:
    cfg = _prepare(args)
    teacher = _load_for_data(args.teacher, cfg)
    rows = mismatch_sweep(teacher, load_store(args.store), cfg)
    write_csv(os.path.join(cfg.out_dir, "mismatch_sweep.csv"), SWEEP_COLUMNS, rows)
    return 0


def cmd_sample(args) -> int:
    model = load_model(args.model)
    if args.count < 1:
        raise ConfigError(f"sample count must be positive, got {args.count}")
    Z = np.random.default_rng(args.seed or 0).standard_normal((args.count, model.d))
    with _model_named(args.model):
        samples = denoise_batch(model, Z, TimeGrid.uniform(args.steps))[0]
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    header = ["index"] + [f"x{i}" for i in range(model.d)] + ["nfe"]
    rows = [[i, *map(float, samples[i]), args.steps] for i in range(args.count)]
    write_csv(os.path.join(out_dir, "samples.csv"), header, rows)
    return 0


def cmd_eval(args) -> int:
    cfg = _prepare(args)
    teacher = _load_for_data(args.teacher, cfg)
    n, a, data = cfg.store["n"], cfg.analysis, cfg.data
    rng = np.random.default_rng(derive_seed(cfg.seed, "eval"))
    Z = rng.standard_normal((a["sample_count"], teacher.d))
    with _model_named(args.teacher):
        teacher_row = score_model(teacher, Z, TimeGrid.uniform(n), data.support)
    freq = float("nan")
    if args.store:
        store = load_store(args.store)
        check_teacher(store, teacher)
        freq = useless_frequency(store, data, a["t_samples"], a["epsilon"],
                                 seed=derive_seed(cfg.seed, "eval-useless"))
    scored = [(f"teacher-{n}step", teacher_row)]
    if args.student:
        m, student = cfg.distill.m, _load_for_data(args.student, cfg)
        with _model_named(args.student):
            scored.append((f"student-{m}step", score_model(student, Z, TimeGrid.uniform(m),
                                                           teacher_row.samples)))
    write_csv(os.path.join(cfg.out_dir, "eval.csv"),
              ("label", "w1", "endpoint_error", "useless_frequency", "seed"),
              [(label, s.w1, endpoint_error(s.samples, data.support), freq, cfg.seed)
               for label, s in scored])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowdistill",
        description="Flow-matching distillation lab on toy distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--seed", type=_seed, default=None, help="override root seed")
        p.add_argument("--out", default=None, help="override output directory")

    p = sub.add_parser("train-teacher", help="train the velocity-field teacher")
    common(p)
    p.set_defaults(fn=cmd_train_teacher)

    p = sub.add_parser("synth", help="generate the synthetic trajectory store")
    common(p)
    p.add_argument("--teacher", required=True, help="teacher checkpoint")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("distill", help="train the few-step student")
    common(p)
    p.add_argument("--teacher", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--no-adv", action="store_true",
                   help="disable adversarial refinement (lambda_adv = 0)")
    p.add_argument("--single-head", action="store_true",
                   help="use one shared projection head instead of per-timestep heads")
    p.add_argument("--resume", action="store_true",
                   help="continue from the last checkpoint in the output directory")
    p.set_defaults(fn=cmd_distill)

    p = sub.add_parser("kd-baseline", help="train the window-mimicry baseline")
    common(p)
    p.add_argument("--teacher", required=True)
    p.add_argument("--mismatch", type=float, default=0.0,
                   help="shift applied to the distillation dataset (mismatch degree)")
    p.set_defaults(fn=cmd_kd_baseline)

    p = sub.add_parser("analyze-mismatch", help="run the mismatch sweep")
    common(p)
    p.add_argument("--teacher", required=True)
    p.add_argument("--store", required=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("sample", help="draw samples from a model checkpoint")
    common(p, needs_config=False)
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--steps", type=int, required=True,
                   help="Euler steps (also the per-sample evaluation count)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("eval", help="evaluate teacher (and optionally student)")
    common(p)
    p.add_argument("--teacher", required=True)
    p.add_argument("--student", default=None)
    p.add_argument("--store", default=None)
    p.set_defaults(fn=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FlowDistillError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
