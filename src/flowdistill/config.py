"""Run configuration: one JSON file drives every pipeline stage.

A run is reproducible from the config file alone; all randomness flows
from the root seed through `derive_seed(root, stage)`. CLI flags may
override the root seed and the output directory.

Each section is typed: a TypedDict (a plain dict at run time) or a
frozen dataclass. The checkpoint codec `nn.from_payload` decodes a file
merged over DEFAULT_CONFIG and refuses wrongly typed values;
`validate()` checks ranges and finiteness.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from typing import TypedDict

from .analysis import KDConfig
from .distill import DistillConfig
from .errors import ConfigError, StoreFormatError, check_fields, check_numbers, type_hints
from .flow import ToyDataset
from .nn import from_payload

CONFIG_VERSION = 1

# every number in these sections must be finite and positive
DatasetSection = TypedDict("DatasetSection", {"support": list})  # k numbers, or k lists of d
ModelSection = TypedDict("ModelSection", {"H": int, "R": int})
TeacherSection = TypedDict("TeacherSection", {"iterations": int, "batch_size": int, "lr": float})
StoreSection = TypedDict("StoreSection", {"N": int, "n": int})
# m_sweep is kept as written, because each M labels its seeds as written;
# mode has one value, "trajectory-proximity", and stays for configs that set it
AnalysisSection = TypedDict("AnalysisSection", {"epsilon": float, "mode": str, "t_samples": int,
                            "m_sweep": list, "seeds": list[int], "sample_count": int})


def _finite(x) -> bool:
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


@dataclasses.dataclass(frozen=True)
class RunConfig:
    name: str
    seed: int
    out_dir: str
    dataset: DatasetSection
    model: ModelSection
    teacher: TeacherSection
    store: StoreSection
    distill: DistillConfig
    kd: KDConfig
    analysis: AnalysisSection

    @property
    def data(self) -> ToyDataset:
        return ToyDataset(self.dataset["support"])

    def validate(self):
        self.distill.validate()
        self.kd.validate()
        for name, kind in type_hints(RunConfig).items():
            if typing.is_typeddict(kind):
                check_numbers(kind, getattr(self, name), f"{name}.")
        support, m, a = self.dataset["support"], self.distill.m, self.analysis
        rows = support if all(type(r) is list for r in support) else [[x] for x in support]
        check_fields([
            ("dataset.support", rows and rows[0] and all(
                len(r) == len(rows[0]) and all(map(_finite, r)) for r in rows),
             "a non-empty list of finite numbers, or of equal-length lists of them"),
            ("model.H", self.model["H"] >= 2, f"at least 2, not {self.model['H']}"),
            ("store.n", self.store["n"] % m == 0,
             f"divisible by distill.m={m}, not {self.store['n']}"),
            ("kd.windows", self.store["n"] % self.kd.windows == 0,
             f"a divisor of store.n={self.store['n']}, not {self.kd.windows}"),
            ("analysis.mode", a["mode"] == "trajectory-proximity", "'trajectory-proximity'"),
            ("analysis.m_sweep", a["m_sweep"] and all(map(_finite, a["m_sweep"])),
             "a non-empty list of finite numbers"),
            ("analysis.seeds", a["seeds"], "a non-empty list"),
        ])


def _defaults(kind) -> dict:
    """A dataclass section's defaults, less the seed its stage derives."""
    return {f.name: f.default for f in dataclasses.fields(kind) if f.name != "seed"}


DEFAULT_CONFIG = {
    "config_version": CONFIG_VERSION, "name": "toy-default", "seed": 0, "out_dir": "runs/toy",
    "dataset": {"support": [-3.0, 3.0]}, "model": {"H": 32, "R": 3},
    "teacher": {"iterations": 10000, "batch_size": 2048, "lr": 1e-4},
    "store": {"N": 4096, "n": 50},
    "distill": _defaults(DistillConfig), "kd": _defaults(KDConfig),
    "analysis": {"epsilon": 0.1, "mode": "trajectory-proximity", "t_samples": 4096,
                 "m_sweep": [0.0, 1.0, 2.0, 4.0], "seeds": [0, 1, 2, 3, 4],
                 "sample_count": 4096},
}


def parse_config(raw: dict, source="config") -> RunConfig:
    """The run config of the JSON object `raw`, read from `source`."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = raw.get("config_version")
    if type(version) is not int or version != CONFIG_VERSION:
        raise ConfigError(
            f"config field config_version must be {CONFIG_VERSION}, got {version!r}"
        )
    sections, merged = type_hints(RunConfig), {}
    for key, value in {**DEFAULT_CONFIG, **raw}.items():
        if key not in sections and key != "config_version":
            raise ConfigError(f"config has unknown field {key}")
        if isinstance(value, dict) and isinstance(DEFAULT_CONFIG[key], dict):
            # a misspelt key must not pass silently; a stage derives its own seed
            known = type_hints(sections[key]).keys() - {"seed"}
            unknown = [field for field in value if field not in known]
            if unknown:
                raise ConfigError(f"config has unknown field {key}.{unknown[0]}")
            value = {**DEFAULT_CONFIG[key], **value}
            if dataclasses.is_dataclass(sections[key]):
                value["seed"] = 0
        merged[key] = value
    try:
        cfg = from_payload(RunConfig, merged, source)
    except StoreFormatError as e:
        raise ConfigError(str(e)) from e
    try:
        cfg.validate()
    except ConfigError as e:
        raise ConfigError(f"{source}: {e}") from e
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    return parse_config(raw, path)
