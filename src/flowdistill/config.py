"""Run configuration: one JSON file drives every pipeline stage.

A run is reproducible from the config file alone; all randomness flows
from the root seed through `derive_seed(root, stage)`. CLI flags may
override the root seed and the output directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .analysis import KDConfig
from .distill import DistillConfig
from .errors import ConfigError
from .flow import ToyDataset

CONFIG_VERSION = 1

DEFAULT_CONFIG = {
    "config_version": CONFIG_VERSION,
    "name": "toy-default",
    "seed": 0,
    "out_dir": "runs/toy",
    "dataset": {"support": [-3.0, 3.0]},
    "model": {"H": 32, "R": 3},
    "teacher": {"iterations": 10000, "batch_size": 2048, "lr": 1e-4},
    "store": {"N": 4096, "n": 50},
    "distill": {
        "m": 5,
        "iterations": 3000,
        "batch_size": 128,
        "lambda_adv": 0.1,
        "student_lr": 1e-4,
        "adv_student_lr": 1e-5,
        "head_lr": 1e-2,
        "queue_capacity": 64,
        "heads": "per_timestep",
        "adv_batch": 32,
        "checkpoint_interval": 200,
    },
    "kd": {"windows": 5, "iterations": 4000, "batch_size": 256, "lr": 1e-3,
           "pool_size": 16384},
    "analysis": {
        "epsilon": 0.1,
        "mode": "trajectory-proximity",
        "t_samples": 4096,
        "m_sweep": [0.0, 1.0, 2.0, 4.0],
        "seeds": [0, 1, 2, 3, 4],
        "sample_count": 4096,
    },
}


@dataclass
class RunConfig:
    name: str
    seed: int
    out_dir: str
    dataset: ToyDataset
    model: dict
    teacher: dict
    store: dict
    distill: DistillConfig
    kd: KDConfig
    kd_windows: int
    analysis: dict

    @property
    def H(self) -> int:
        return self.model["H"]

    @property
    def R(self) -> int:
        return self.model["R"]


def _require(section: dict, path: str, key: str, kind, positive=False):
    if key not in section:
        raise ConfigError(f"config is missing field {path}.{key}")
    value = section[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"config field {path}.{key} must be {kind.__name__}")
    if positive and value <= 0:
        raise ConfigError(f"config field {path}.{key} must be positive")
    return value


def _check_fields(merged: dict):
    """Every section is an object and holds only the fields
    DEFAULT_CONFIG names, so a misspelt key cannot pass silently."""
    for key, value in merged.items():
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"config has unknown field {key}")
        if isinstance(DEFAULT_CONFIG[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config field {key} must be an object")
            for field in value:
                if field not in DEFAULT_CONFIG[key]:
                    raise ConfigError(f"config has unknown field {key}.{field}")


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = raw.get("config_version")
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"config field config_version must be {CONFIG_VERSION}, got {version!r}"
        )
    merged = _merge(DEFAULT_CONFIG, raw)
    _check_fields(merged)

    support = merged["dataset"].get("support")
    try:
        support = np.asarray(support if isinstance(support, list) else [])
    except ValueError:  # ragged nesting
        support = np.zeros(0)
    if support.size == 0 or support.dtype.kind not in "if" or not np.all(np.isfinite(support)):
        raise ConfigError("config field dataset.support must be a non-empty list of "
                          "finite numbers, or of equal-length lists of them")
    dataset = ToyDataset(support)

    model = {
        "H": _require(merged["model"], "model", "H", int, positive=True),
        "R": _require(merged["model"], "model", "R", int, positive=True),
    }
    teacher = {
        "iterations": _require(merged["teacher"], "teacher", "iterations", int, True),
        "batch_size": _require(merged["teacher"], "teacher", "batch_size", int, True),
        "lr": _require(merged["teacher"], "teacher", "lr", float, True),
    }
    store = {
        "N": _require(merged["store"], "store", "N", int, True),
        "n": _require(merged["store"], "store", "n", int, True),
    }
    dd = merged["distill"]

    def field(key, kind, positive=False):
        return _require(dd, "distill", key, kind, positive)

    distill_cfg = DistillConfig(
        m=field("m", int, True),
        n=store["n"],
        lambda_adv=field("lambda_adv", float),
        student_lr=field("student_lr", float, True),
        adv_student_lr=field("adv_student_lr", float, True),
        head_lr=field("head_lr", float, True),
        batch_size=field("batch_size", int, True),
        iterations=field("iterations", int, True),
        queue_capacity=field("queue_capacity", int, True),
        heads=field("heads", str),
        adv_batch=field("adv_batch", int, True),
        checkpoint_interval=field("checkpoint_interval", int),
    )
    distill_cfg.validate()
    kd = merged["kd"]
    kd_cfg = KDConfig(
        iterations=_require(kd, "kd", "iterations", int, True),
        batch_size=_require(kd, "kd", "batch_size", int, True),
        lr=_require(kd, "kd", "lr", float, True),
        pool_size=_require(kd, "kd", "pool_size", int, True),
    )
    kd_windows = _require(kd, "kd", "windows", int, True)
    analysis = merged["analysis"]
    if analysis["mode"] not in ("trajectory-proximity", "endpoint"):
        raise ConfigError("config field analysis.mode must be "
                          "'trajectory-proximity' or 'endpoint'")
    _require(analysis, "analysis", "epsilon", float, True)
    _require(analysis, "analysis", "t_samples", int, True)
    _require(analysis, "analysis", "sample_count", int, True)
    m_sweep = analysis.get("m_sweep")
    if not isinstance(m_sweep, list) or not m_sweep or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in m_sweep):
        raise ConfigError("config field analysis.m_sweep must be a non-empty list of numbers")
    if not isinstance(analysis.get("seeds"), list) or not analysis["seeds"]:
        raise ConfigError("config field analysis.seeds must be a non-empty list")

    return RunConfig(
        name=str(merged.get("name", "run")),
        seed=_require(merged, "(root)", "seed", int),
        out_dir=_require(merged, "(root)", "out_dir", str),
        dataset=dataset,
        model=model,
        teacher=teacher,
        store=store,
        distill=distill_cfg,
        kd=kd_cfg,
        kd_windows=kd_windows,
        analysis=analysis,
    )


def _merge(defaults, overrides):
    if not isinstance(overrides, dict):
        return overrides
    out = dict(defaults)
    for key, value in overrides.items():
        if key in out and isinstance(out[key], dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    return parse_config(raw)


def write_default_config(path):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(DEFAULT_CONFIG, f, indent=2)
        f.write("\n")
