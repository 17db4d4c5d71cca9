"""Run configuration: one flat dataclass covering architecture, optimizer,
schedule, and data settings, parseable from `key = value` files.  The
architecture keys are `ModelConfig`'s fields; each key's parser follows the
form of its default.

File syntax: one assignment per line, ``#`` starts a comment (full-line or
trailing), blank lines ignored.  Lists are comma-separated (``64,128,256``);
a list of triples separates each triple's items by colons
(``256:512:2,512:1024:2``).  Command-line flags override file values, which
override the defaults below.  The defaults are the full training recipe:
batch 16, 80 epochs, horizontal-flip augmentation on, and the optimizer and
plateau-schedule defaults that `SgdState` and `PlateauScheduler` declare.
A `RunConfig` is checked when it is built (a bad value raises `ConfigError`
naming its key) and is frozen, so it cannot be changed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path

from .errors import ConfigError
from .model import ModelConfig
from .optim import PlateauScheduler, SgdState

DATASET_KINDS = ("fer2013", "rafdb", "affectnet", "dir")


@dataclass(frozen=True)
class _Recipe:
    """The run settings that are not architecture: data, optimizer, schedule,
    element type, and the seed shared with `ModelConfig`."""

    # data
    dataset: str = "fer2013"
    data_root: str = ""
    out_dir: str = "runs/default"
    # training recipe
    batch_size: int = 16
    epochs: int = 80
    lr: float = SgdState.lr
    momentum: float = SgdState.momentum
    weight_decay: float = SgdState.weight_decay
    factor: float = PlateauScheduler.factor
    patience: int = PlateauScheduler.patience
    min_lr: float = PlateauScheduler.min_lr
    augment: bool = True
    dtype: str = "float32"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dataset not in DATASET_KINDS:
            raise ConfigError(
                f"dataset must be one of {', '.join(DATASET_KINDS)}; got "
                f"{self.dataset!r}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        model = self.model_config()  # architecture invariants; lists become tuples
        for f in fields(ModelConfig):
            object.__setattr__(self, f.name, getattr(model, f.name))
        self.sgd_state()     # optimizer invariants
        self.scheduler()     # schedule invariants

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name)
                              for f in fields(ModelConfig)})

    def sgd_state(self) -> SgdState:
        return SgdState(**{key: getattr(self, key) for key in recipe_keys(SgdState)})

    def scheduler(self) -> PlateauScheduler:
        return PlateauScheduler(**{key: getattr(self, key)
                                   for key in recipe_keys(PlateauScheduler)})

    def effective_items(self) -> list[tuple[str, str]]:
        """Every tunable with its resolved value, in declaration order —
        the exhaustive config echo."""
        items = []
        for f in fields(self):
            items.append((f.name, _format_value(getattr(self, f.name))))
        return items


def recipe_keys(cls) -> list[str]:
    """The fields of `cls` that are run settings, in `cls`'s declared order."""
    return [f.name for f in fields(cls) if f.name in {g.name for g in fields(_Recipe)}]


#: The recipe fields, then every architecture field of `ModelConfig` under
#: its own name and default; `seed` is the recipe's.
RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=f.default))
     for f in fields(ModelConfig) if f.name != "seed"],
    bases=(_Recipe,), frozen=True, namespace={"__module__": __name__})


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ",".join(":".join(str(x) for x in t) for t in value)
        return ",".join(str(x) for x in value)
    return str(value)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _parse_triples(text: str) -> tuple[tuple[int, int, int], ...]:
    triples = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValueError(f"expected in:out:stride, got {part!r}")
        triples.append(tuple(int(p) for p in pieces))
    return tuple(triples)


def _parser_for(default):
    """A key's parser, chosen by the form of its default (the rule
    `_format_value` writes by)."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return _parse_triples if isinstance(default[0], tuple) else _parse_int_list
    return type(default)


_PARSERS = {f.name: _parser_for(f.default) for f in fields(RunConfig)}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse `key = value` lines into typed values; errors carry line numbers.
    A key may be set once."""
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {ln}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{source}: line {ln}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{source}: line {ln}: key {key!r} is already set "
                              f"on line {first_line[key]}")
        first_line[key] = ln
        try:
            values[key] = parser(value)
        except ValueError as err:
            raise ConfigError(
                f"{source}: line {ln}: bad value for {key!r}: {err}") from None
    return values


def load_run_config(config_path=None, overrides: dict[str, object] | None = None
                    ) -> RunConfig:
    """Defaults <- config file <- overrides, checked as a whole when built."""
    merged: dict[str, object] = {}
    if config_path is not None:
        path = Path(config_path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from None
        merged.update(parse_config_text(text, source=str(path)))
    merged.update(overrides or {})
    try:
        return RunConfig(**merged)
    except TypeError as err:
        raise ConfigError(str(err)) from None
