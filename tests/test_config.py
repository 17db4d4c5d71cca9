"""Run-config keys, parsers and echo: the architecture keys come from
`ModelConfig`, and every key's echo parses back to the same value."""

import math
import re
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resemotenet.config import RunConfig, load_run_config, parse_config_text
from resemotenet.errors import ConfigError
from resemotenet.model import ModelConfig
from resemotenet.optim import PlateauScheduler, SgdState

README = Path(__file__).resolve().parents[1] / "README.md"

#: every field away from its default, still a valid run
ALL_CHANGED = RunConfig(
    dataset="dir", data_root="/data/faces", out_dir="runs/other", batch_size=5,
    epochs=3, lr=0.05, momentum=0.5, weight_decay=1e-4, factor=0.5, patience=2,
    min_lr=1e-8, augment=False, dtype="float64", seed=7, input_channels=1,
    input_size=32, stem_channels=(4, 8, 8), se_reduction=4,
    residual_channels=((8, 8, 1), (8, 16, 2)), num_classes=5, aap_output=(2, 2))


def test_every_field_of_the_round_trip_config_is_changed():
    for f in fields(RunConfig):
        assert getattr(ALL_CHANGED, f.name) != f.default, f.name


def test_optimizer_and_schedule_carry_the_config_values():
    assert ALL_CHANGED.sgd_state() == SgdState(lr=0.05, momentum=0.5, weight_decay=1e-4)
    assert ALL_CHANGED.scheduler() == PlateauScheduler(factor=0.5, patience=2, min_lr=1e-8)


def test_echo_parses_back_to_the_same_config(tmp_path):
    text = "\n".join(f"{key} = {value}" for key, value in ALL_CHANGED.effective_items())
    assert RunConfig(**parse_config_text(text)) == ALL_CHANGED
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    assert load_run_config(path) == ALL_CHANGED


def readme_config_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    return section.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_example_names_every_key():
    values = parse_config_text(readme_config_example(), source=str(README))
    assert set(values) == {f.name for f in fields(RunConfig)}
    RunConfig(**values)


@pytest.mark.parametrize("entry", [(256, 512), (256, 512, 2, 1)])
def test_model_config_rejects_a_residual_entry_that_is_not_a_triple(entry):
    with pytest.raises(ConfigError, match="residual block 0 needs an in:out:stride"):
        ModelConfig(residual_channels=(entry,))


@pytest.mark.parametrize("cls", [ModelConfig, RunConfig])
@pytest.mark.parametrize("widths", [(0, 8, 8), (-4, 8, 8), (4, 8, 0)])
def test_a_stem_width_below_one_fails_when_the_config_is_built(cls, widths):
    with pytest.raises(ConfigError, match=r"^stem_channels must all be >= 1"):
        cls(stem_channels=widths)


@pytest.mark.parametrize("cls", [ModelConfig, RunConfig])
@pytest.mark.parametrize("channels", [0, 2, 4])
def test_a_channel_count_other_than_one_or_three_fails_when_built(cls, channels):
    with pytest.raises(ConfigError,
                       match=rf"^input_channels must be 1 or 3, got {channels}$"):
        cls(input_channels=channels)


def test_model_config_turns_json_arrays_into_tuples():
    cfg = ModelConfig(stem_channels=[64, 128, 256], aap_output=[1, 1],
                      residual_channels=[[256, 512, 2], [512, 1024, 2],
                                         [1024, 2048, 2]])
    assert cfg == ModelConfig()
    assert hash(cfg) == hash(ModelConfig())


def test_run_config_holds_sequence_fields_as_its_model_config_does():
    cfg = RunConfig(stem_channels=[64, 128, 256], aap_output=[1, 1],
                    residual_channels=[[256, 512, 2], [512, 1024, 2],
                                       [1024, 2048, 2]])
    assert cfg == RunConfig()
    assert hash(cfg) == hash(RunConfig())


@pytest.mark.parametrize("line", ["lr = nan", "lr = inf", "weight_decay = nan",
                                  "min_lr = nan"])
def test_non_finite_hyperparameter_line_is_rejected_naming_its_key(line):
    key = line.split(" = ")[0]
    values = parse_config_text(line + "\n")
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        RunConfig(**values)


@pytest.mark.parametrize("key, value", [("epochs", 0), ("epochs", -3),
                                        ("dataset", "bogus"), ("dtype", "float16")])
def test_bad_recipe_value_fails_when_built_naming_its_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        RunConfig(**{key: value})


#: one bad value for every key a RunConfig checks (a key may have several)
REFUSED_VALUES = [
    ("dataset", "bogus"), ("batch_size", 0), ("epochs", 0), ("lr", -1.0),
    ("momentum", 1.0), ("weight_decay", -1.0), ("factor", 1.0), ("patience", 0),
    ("min_lr", math.nan), ("min_lr", 0.0), ("min_lr", -1.0), ("dtype", "float16"),
    ("seed", -1),
    ("input_channels", 2), ("input_size", 12), ("stem_channels", (0, 8, 8)),
    ("se_reduction", 3), ("residual_channels", ((256, 512),)),
    ("residual_channels", ((128, 512, 2),)), ("residual_channels", ((256, 0, 2),)),
    ("num_classes", 1), ("aap_output", (0, 1)),
]


def test_every_model_config_field_has_a_refused_value():
    assert {f.name for f in fields(ModelConfig)} <= {key for key, _ in REFUSED_VALUES}


@pytest.mark.parametrize("key, value", REFUSED_VALUES)
def test_every_refusal_names_its_key(key, value):
    with pytest.raises(ConfigError) as err:
        RunConfig(**{key: value})
    assert re.search(rf"\b{key}\b", str(err.value)), str(err.value)


def test_built_config_cannot_be_changed():
    cfg = RunConfig()
    for f in fields(RunConfig):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, f.name, getattr(ALL_CHANGED, f.name))
    assert cfg == RunConfig()


def test_negative_seed_is_rejected():
    # numpy's generators take no negative seed; build_model would fail later
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -21"):
        RunConfig(**parse_config_text("seed = -21\n"))


def test_a_key_set_twice_is_refused_naming_both_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 0.1\nseed = 3\n\nlr = 0.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}: line 4: key 'lr' is already set on line 1")):
        load_run_config(path)


def test_config_file_that_is_not_utf8_is_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"data_root = /faces/\xff\n")
    with pytest.raises(ConfigError, match="cannot read config.*utf-8"):
        load_run_config(path)


#: value-shaped fragments: numbers at and past the limits, separators, words
CONFIG_FRAGMENT = st.sampled_from(
    ["0", "1", "2", "7", "16", "64", "-1", "1e400", "nan", "inf", ".", ",", ":",
     "e", "true", "off", " ", "#", "_", "x", "\u0663", "4:8:2", "8:8:1", "9" * 30])
CONFIG_VALUE = st.lists(CONFIG_FRAGMENT, max_size=6).map("".join) | st.text(max_size=10)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([f.name for f in fields(RunConfig)]),
                          CONFIG_VALUE), min_size=1, max_size=3))
def test_any_text_for_any_key_raises_only_config_error(lines):
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    try:
        RunConfig(**parse_config_text(text))
    except ConfigError:
        pass
