"""Experiment configuration: dataclasses, JSON loading, and validation.

Each field declares its valid values once, as the rule of a `ruled` field.
One checker, field_problems, tests a value's type and rule together: for a
JSON section before it is built, for each swept value, for every section in
ExperimentConfig.validate, and when ModelConfig, PrivacyConfig or
DLGExperimentConfig is built. validate adds only the rules that relate two
fields. Problems name field paths ("defense.beta: must be a finite number
>= 1"), so a bad config file fails before any round runs.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cached_property
from typing import get_type_hints

AGGREGATOR_KINDS = ("fedavg", "median", "trimmed_mean", "signsgd")
DEFENSE_KINDS = ("pass", "rffl", "none")
DATA_SOURCES = ("synthetic", "idx")
# fair first, then the free-rider kinds
CLIENT_KINDS = ("fair", "plain", "disguised", "anonymous", "selfish")


class ConfigError(ValueError):
    """Invalid experiment configuration; message lists field paths."""


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite real number (bool excluded); JSON's NaN, Infinity and
    overflowing literals such as 1e400 are not."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_list_of(test):
    return lambda value: isinstance(value, (list, tuple)) and all(map(test, value))


# JSON value test and its description, per dataclass field annotation
_FIELD_TYPES = {
    "int": (_is_integer, "an integer"),
    "float": (_is_finite, "a finite number"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "tuple[int, ...]": (_is_list_of(_is_integer), "a list of integers"),
    "tuple[float, ...]": (_is_list_of(_is_finite), "a list of finite numbers"),
}


def ruled(default, rule):
    """A dataclass field (default MISSING for none) whose values must meet
    `rule`: a tuple of choices, a bound ">= x" or "> x", or an interval such
    as "[0, 0.5)". A tuple field's rule applies to each element."""
    return field(default=default, metadata={"rule": rule})


def _rule_of(cls, name: str):
    return cls.__dataclass_fields__[name].metadata["rule"]


def _meets(rule, value) -> bool:
    if isinstance(rule, tuple):
        return value in rule
    if rule[0] in "[(":
        low, high = map(float, rule[1:-1].split(","))
        return ((low <= value if rule[0] == "[" else low < value)
                and (value <= high if rule[-1] == "]" else value < high))
    op, bound = rule.split()
    return value >= float(bound) if op == ">=" else value > float(bound)


def value_problem(path: str, kind: str, rule, value) -> str | None:
    """The problem with `value` as a field of annotation `kind` under `rule`
    (None for no rule), named by `path`; None when there is none."""
    test, expected = _FIELD_TYPES[kind]
    if isinstance(rule, str):
        expected += f" {'in ' if rule[0] in '[(' else ''}{rule}"
    if not test(value):
        return f"{path}: must be {expected}"
    if rule is None or all(_meets(rule, v)
                           for v in (value if kind.startswith("tuple[") else [value])):
        return None
    if isinstance(rule, tuple):
        return f"{path}: {value!r} not one of {rule}"
    return f"{path}: must be {expected}"


def field_problems(cls, values: dict, prefix: str = "") -> list[str]:
    """The value_problem of each entry of `values` (field name -> value) as
    that field of the dataclass `cls`, named prefix + name. None passes an
    "X | None" field, and section fields are not looked at."""
    problems = []
    for f in fields(cls):
        kind = f.type.removesuffix(" | None")
        if (f.name in values and kind in _FIELD_TYPES
                and not (values[f.name] is None and kind != f.type)):
            problems.append(value_problem(prefix + f.name, kind, f.metadata.get("rule"),
                                          values[f.name]))
    return [problem for problem in problems if problem is not None]


def _raise_problems(problems: list[str]) -> None:
    if problems:
        raise ConfigError("\n  ".join(problems))


def _check_fields(section) -> None:
    """Raise on any field of a library-built section that breaks its rule."""
    _raise_problems(field_problems(type(section), vars(section)))


@dataclass(frozen=True)
class ModelConfig:
    """Classifier shape: input width, hidden widths (may be empty), class count."""

    input_dim: int = ruled(MISSING, ">= 1")
    hidden_dims: tuple[int, ...] = ruled((), ">= 1")
    num_classes: int = ruled(2, ">= 2")

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        _check_fields(self)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.num_classes)

    @cached_property
    def layout(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per layer (start, end, fan_in, fan_out) in the flat parameter
        vector, whose slice holds W row-major then b; computed once, since
        the layer views are taken in every training step and audit."""
        cuts = []
        offset = 0
        dims = self.layer_dims
        for fan_in, fan_out in zip(dims, dims[1:]):
            end = offset + (fan_in + 1) * fan_out
            cuts.append((offset, end, fan_in, fan_out))
            offset = end
        return tuple(cuts)


@dataclass(frozen=True)
class PrivacyConfig:
    """Gaussian noise variance and prune rate applied to every upload."""

    noise_variance: float = ruled(0.0, ">= 0")
    prune_rate: float = ruled(0.0, "[0, 1)")

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class DataConfig:
    """Where the samples come from; synthetic data takes the model's shape
    (model.input_dim features, model.num_classes classes)."""

    source: str = ruled("synthetic", DATA_SOURCES)
    separation: float = ruled(3.0, "> 0")
    samples_per_client: int = ruled(25, ">= 1")
    holdout_samples: int = ruled(500, ">= 1")
    mode: str = ruled("iid", ("iid", "non_iid"))
    non_iid_concentration: float = ruled(0.5, "> 0")
    images_path: str | None = None
    labels_path: str | None = None


@dataclass(frozen=True)
class RosterConfig:
    """Client counts per behavior; each free rider's strength is its class's
    constructor default (fedaudit.clients)."""

    fair: int = ruled(10, ">= 0")
    plain: int = ruled(0, ">= 0")
    disguised: int = ruled(0, ">= 0")
    anonymous: int = ruled(0, ">= 0")
    selfish: int = ruled(0, ">= 0")

    @property
    def total(self) -> int:
        return sum(getattr(self, kind) for kind in CLIENT_KINDS)


@dataclass(frozen=True)
class AggregatorConfig:
    kind: str = ruled("fedavg", AGGREGATOR_KINDS)


@dataclass(frozen=True)
class DefenseSettings:
    """Flat defense block; which fields apply depends on `kind`."""

    kind: str = ruled("pass", DEFENSE_KINDS)
    alpha: float = ruled(0.95, "[0, 1]")
    beta: float = ruled(1.75, ">= 1")
    initial_contribution: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs; defaults follow the reference
    setting (eta 0.1, 200 rounds, alpha 0.95, beta 1.75, prune 0.9, noise 1e-2)."""

    seed: int = ruled(0, ">= 0")
    rounds: int = ruled(200, ">= 1")
    eta: float = ruled(0.1, "> 0")
    local_epochs: int = ruled(1, ">= 0")
    local_batch_size: int | None = ruled(None, ">= 1")  # None = full batch
    model: ModelConfig = field(default_factory=lambda: ModelConfig(12, (), 4))
    data: DataConfig = field(default_factory=DataConfig)
    roster: RosterConfig = field(default_factory=RosterConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    defense: DefenseSettings = field(default_factory=DefenseSettings)
    privacy: PrivacyConfig = field(default_factory=lambda: PrivacyConfig(1e-2, 0.9))

    def validate(self) -> None:
        """Every field's own rule, the sections' too; then, on values that
        passed them, the rules that relate two fields."""
        sections = [("", self)] + [(f"{f.name}.", getattr(self, f.name))
                                   for f in fields(self)
                                   if is_dataclass(getattr(self, f.name))]
        _raise_problems([problem for prefix, section in sections
                         for problem in field_problems(type(section), vars(section),
                                                       prefix)])
        problems: list[str] = []
        if (self.local_batch_size is not None
                and self.local_batch_size > self.data.samples_per_client):
            problems.append("local_batch_size: cannot exceed data.samples_per_client")
        if self.roster.total < 1:
            problems.append("roster: at least one client required")
        if self.data.source == "synthetic":
            data_clients = self.roster.fair + self.roster.selfish
            if (data_clients * self.data.samples_per_client + self.data.holdout_samples
                    < self.model.num_classes):
                problems.append(
                    "data.samples_per_client/holdout_samples: the synthetic pool, "
                    "(roster.fair + roster.selfish) * samples_per_client + "
                    "holdout_samples, must be >= model.num_classes")
        elif not self.data.images_path or not self.data.labels_path:
            problems.append("data.images_path/labels_path: required for source 'idx'")
        _raise_problems(problems)


@dataclass(frozen=True)
class DLGExperimentConfig:
    """Grid evaluation of the leakage attack under noise/prune settings; each
    grid value meets the rule of the PrivacyConfig field it stands for, and
    the model shape ModelConfig's."""

    noise_variances: tuple[float, ...] = ruled((0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1),
                                               _rule_of(PrivacyConfig, "noise_variance"))
    prune_rates: tuple[float, ...] = ruled((0.0, 0.9), _rule_of(PrivacyConfig, "prune_rate"))
    instances: int = ruled(10, ">= 1")
    iterations: int = ruled(300, ">= 1")
    batch_samples: int = ruled(1, ">= 1")
    input_dim: int = ruled(8, _rule_of(ModelConfig, "input_dim"))
    hidden_dims: tuple[int, ...] = ruled((), _rule_of(ModelConfig, "hidden_dims"))
    num_classes: int = ruled(2, _rule_of(ModelConfig, "num_classes"))
    seed: int = ruled(0, ">= 0")

    def __post_init__(self):
        _check_fields(self)
        for name in ("noise_variances", "prune_rates"):
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ValueError(f"{name}: must be a non-empty list of distinct values")

    @cached_property
    def model(self) -> ModelConfig:
        return ModelConfig(self.input_dim, self.hidden_dims, self.num_classes)


def build_section(cls, raw: dict, path: str):
    """Build the dataclass `cls` from one JSON object: unknown keys, missing
    fields without a default, and values that break their field's type or
    rule are rejected, lists become tuples, and the constructor's own checks
    ("noise_variances: must be ...") gain the path prefix."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    _raise_problems([f"{path}.{f.name}: required" for f in fields(cls)
                     if f.name not in raw and f.default is MISSING
                     and f.default_factory is MISSING])
    _raise_problems(field_problems(cls, raw, f"{path}."))
    try:
        return cls(**{name: tuple(value) if isinstance(value, list) else value
                      for name, value in raw.items()})
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a parsed JSON dict. Each
    ExperimentConfig field is a top-level key (absent keys keep the field's
    default); 'sweep' and 'dlg' are left for those subcommands."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    hints = get_type_hints(ExperimentConfig)
    unknown = set(raw) - set(hints) - {"sweep", "dlg"}
    if unknown:
        raise ConfigError(f"top level: unknown keys {sorted(unknown)}")
    cfg = ExperimentConfig(**{
        name: build_section(hint, raw[name], name) if is_dataclass(hint) else raw[name]
        for name, hint in hints.items() if name in raw})
    cfg.validate()
    return cfg


def load_config(path) -> tuple[ExperimentConfig, dict]:
    """Read a JSON config file; returns the config plus the raw dict (which
    may carry 'sweep'/'dlg' sections for those subcommands)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(raw), raw
