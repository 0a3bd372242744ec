import dataclasses
import json

import pytest

from flowdistill.config import DEFAULT_CONFIG, load_config, parse_config, \
    write_default_config
from flowdistill.distill import DistillConfig
from flowdistill.errors import ConfigError


def test_default_config_parses():
    cfg = parse_config(DEFAULT_CONFIG)
    assert cfg.seed == 0
    assert cfg.dataset.support.shape == (2, 1)
    assert cfg.distill.m == 5
    assert cfg.kd_windows == 5


def test_written_default_round_trips(tmp_path):
    path = tmp_path / "config.json"
    write_default_config(path)
    cfg = load_config(path)
    assert cfg.teacher["iterations"] == 10000
    assert cfg.teacher["batch_size"] == 2048
    assert cfg.teacher["lr"] == 1e-4


def test_partial_config_fills_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"config_version": 1, "seed": 5,
                                "teacher": {"iterations": 50}}))
    cfg = load_config(path)
    assert cfg.seed == 5
    assert cfg.teacher["iterations"] == 50
    assert cfg.teacher["batch_size"] == 2048  # default retained


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.json")


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_wrong_version_rejected():
    with pytest.raises(ConfigError, match="config_version"):
        parse_config({"config_version": 99})


@pytest.mark.parametrize("patch,field", [
    ({"teacher": {"iterations": 0}}, "teacher.iterations"),
    ({"teacher": {"iterations": -5}}, "teacher.iterations"),
    ({"teacher": {"lr": "fast"}}, "teacher.lr"),
    ({"model": {"H": 0}}, "model.H"),
    ({"store": {"N": 0}}, "store.N"),
    ({"distill": {"batch_size": 0}}, "distill"),
    ({"kd": {"windows": 0}}, "kd.windows"),
    ({"dataset": {"support": []}}, "dataset.support"),
    ({"analysis": {"mode": "nearest"}}, "analysis.mode"),
    ({"analysis": {"seeds": []}}, "analysis.seeds"),
])
def test_invalid_fields_name_the_field(patch, field):
    raw = {"config_version": 1, **patch}
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        parse_config(raw)


# adv_accum, generator_loss, tap_noisy and tap_clean are no longer
# fields: their cases now fail as unknown fields
@pytest.mark.parametrize("patch,field", [
    ({"distill": {"lamda_adv": 5.0}}, "distill.lamda_adv"),
    ({"distill": {"adv_accum": "2"}}, "distill.adv_accum"),
    ({"distill": {"adv_batch": 32.5}}, "distill.adv_batch"),
    ({"distill": {"adv_batch": 0}}, "distill.adv_batch"),
    ({"distill": {"checkpoint_interval": "50"}}, "distill.checkpoint_interval"),
    ({"distill": {"adv_student_lr": "slow"}}, "distill.adv_student_lr"),
    ({"distill": {"heads": 1}}, "distill.heads"),
    ({"distill": {"generator_loss": None}}, "distill.generator_loss"),
    ({"distill": {"tap_noisy": 1.5}}, "distill.tap_noisy"),
    ({"distill": {"tap_clean": "2"}}, "distill.tap_clean"),
    ({"distill": 3}, "distill"),
    ({"teacher": {"iters": 5}}, "teacher.iters"),
    ({"model": {"h": 8}}, "model.h"),
    ({"store": {"m": 5}}, "store.m"),
    ({"dataset": {"points": [0.0]}}, "dataset.points"),
    ({"kd": {"window": 2}}, "kd.window"),
    ({"analysis": {"eps": 0.1}}, "analysis.eps"),
    ({"sed": 4}, "sed"),
    ({"distill": {"queue_capacity": "2"}}, "distill.queue_capacity"),
    ({"distill": {"heads": None}}, "distill.heads"),
    ({"distill": {"m": 1.5}}, "distill.m"),
    ({"distill": {"student_lr": "2"}}, "distill.student_lr"),
    ({"analysis": {"sample_count": "64"}}, "analysis.sample_count"),
    ({"analysis": {"sample_count": 0}}, "analysis.sample_count"),
    ({"analysis": {"m_sweep": ["x"]}}, "analysis.m_sweep"),
    ({"analysis": {"m_sweep": [0.0, None]}}, "analysis.m_sweep"),
    ({"dataset": {"support": [1.0, "a"]}}, "dataset.support"),
    ({"dataset": {"support": [[1.0, 2.0], [3.0]]}}, "dataset.support"),
    ({"dataset": {"support": [1.0, float("nan")]}}, "dataset.support"),
    ({"out_dir": None}, "out_dir"),
])
def test_strict_fields_name_the_field(patch, field):
    with pytest.raises(ConfigError, match=rf"\b{field.replace('.', '[.]')}\b"):
        parse_config({"config_version": 1, **patch})


def test_distill_section_holds_the_config_fields():
    # n comes from the store section and seed from the root seed
    assert set(DEFAULT_CONFIG["distill"]) | {"n", "seed"} == \
        {f.name for f in dataclasses.fields(DistillConfig)}


def test_removed_distill_fields_are_unknown():
    # each at the value it used to default to
    removed = {"generator_loss": "non_saturating", "adv_real_source": "queued",
               "adv_optimizer": "separate", "adv_accum": 1, "tap_noisy": None,
               "tap_clean": None}
    for key, value in removed.items():
        with pytest.raises(ConfigError, match=f"^config has unknown field distill[.]{key}$"):
            parse_config({"config_version": 1, "distill": {key: value}})


def test_indivisible_key_spacing_rejected():
    with pytest.raises(ConfigError, match="divisible"):
        parse_config({"config_version": 1, "distill": {"m": 7}})
