"""Experiment configuration: dataclasses, JSON loading, and validation.

Validation failures are collected and reported with field paths
("defense.beta: must be >= 1") so a bad config file fails before any round
runs.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_type_hints

from .model import ModelConfig
from .privacy import PrivacyConfig

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


def _raise_problems(problems: list[str]) -> None:
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))


def _type_problems(annotations: dict[str, str], raw: dict, prefix: str) -> list[str]:
    problems = []
    for name, annotation in annotations.items():
        if name not in raw:
            continue
        value, kind = raw[name], annotation.removesuffix(" | None")
        if value is None and kind != annotation:
            continue
        test, expected = _FIELD_TYPES.get(kind, (None, None))
        if test is not None and not test(value):
            problems.append(f"{prefix}{name}: must be {expected}")
    return problems


def check_types(annotations: dict[str, str], raw: dict, path: str) -> None:
    """Reject raw JSON values that do not match their key's annotation
    ("X | None" also admits null), naming each field path, so no constructor
    or range check ever compares a string or a list."""
    _raise_problems(_type_problems(annotations, raw, f"{path}."))


def _field_types(cls) -> dict[str, str]:
    return {f.name: f.type for f in fields(cls)}


@dataclass(frozen=True)
class DataConfig:
    """Where the samples come from; synthetic data takes the model's shape
    (model.input_dim features, model.num_classes classes)."""

    source: str = "synthetic"
    separation: float = 3.0
    samples_per_client: int = 25
    holdout_samples: int = 500
    mode: str = "iid"
    non_iid_concentration: float = 0.5
    images_path: str | None = None
    labels_path: str | None = None


@dataclass(frozen=True)
class RosterConfig:
    """Client counts per behavior; each free rider's strength is its class's
    constructor default (fedaudit.clients)."""

    fair: int = 10
    plain: int = 0
    disguised: int = 0
    anonymous: int = 0
    selfish: int = 0

    @property
    def total(self) -> int:
        return sum(getattr(self, kind) for kind in CLIENT_KINDS)


@dataclass(frozen=True)
class AggregatorConfig:
    kind: str = "fedavg"
    trim_fraction: float = 0.1


@dataclass(frozen=True)
class DefenseSettings:
    """Flat defense block; which fields apply depends on `kind`."""

    kind: str = "pass"
    alpha: float = 0.95
    beta: float = 1.75
    initial_contribution: float | None = None
    threshold_mode: str = "current"
    rffl_threshold: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs; defaults follow the reference
    setting (eta 0.1, 200 rounds, alpha 0.95, beta 1.75, prune 0.9, noise 1e-2)."""

    seed: int = 0
    rounds: int = 200
    eta: float = 0.1
    local_epochs: int = 1
    local_batch_size: int | None = None  # None = full batch
    model: ModelConfig = field(default_factory=lambda: ModelConfig(12, (), 4))
    data: DataConfig = field(default_factory=DataConfig)
    roster: RosterConfig = field(default_factory=RosterConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    defense: DefenseSettings = field(default_factory=DefenseSettings)
    privacy: PrivacyConfig = field(default_factory=lambda: PrivacyConfig(1e-2, 0.9))

    def validate(self) -> None:
        # every field, the sections' too, must first pass the JSON boundary's
        # type check: no range check below then compares a string or a NaN
        sections = [("", self)] + [(f"{f.name}.", getattr(self, f.name))
                                   for f in fields(self)
                                   if is_dataclass(getattr(self, f.name))]
        _raise_problems([problem for prefix, section in sections
                         for problem in _type_problems(_field_types(section),
                                                       vars(section), prefix)])
        problems: list[str] = []
        for name, minimum in (("seed", 0), ("rounds", 1), ("local_epochs", 0)):
            if getattr(self, name) < minimum:
                problems.append(f"{name}: must be an integer >= {minimum}")
        if not self.eta > 0:
            problems.append("eta: must be a finite number > 0")
        if self.local_batch_size is not None:
            if self.local_batch_size < 1:
                problems.append(
                    "local_batch_size: must be an integer >= 1 (or null for full batch)")
            elif self.local_batch_size > self.data.samples_per_client:
                problems.append("local_batch_size: cannot exceed data.samples_per_client")
        if self.roster.total < 1:
            problems.append("roster: at least one client required")
        for kind in CLIENT_KINDS:
            if getattr(self.roster, kind) < 0:
                problems.append(f"roster.{kind}: must be >= 0")
        if self.aggregator.kind not in AGGREGATOR_KINDS:
            problems.append(
                f"aggregator.kind: {self.aggregator.kind!r} not one of {AGGREGATOR_KINDS}")
        if not 0 <= self.aggregator.trim_fraction < 0.5:
            problems.append("aggregator.trim_fraction: must lie in [0, 0.5)")
        if self.defense.kind not in DEFENSE_KINDS:
            problems.append(
                f"defense.kind: {self.defense.kind!r} not one of {DEFENSE_KINDS}")
        if not 0 <= self.defense.alpha <= 1:
            problems.append("defense.alpha: must lie in [0, 1]")
        if self.defense.beta < 1:
            problems.append("defense.beta: must be >= 1")
        if self.defense.threshold_mode not in ("current", "initial"):
            problems.append("defense.threshold_mode: must be 'current' or 'initial'")
        if self.data.source not in DATA_SOURCES:
            problems.append(f"data.source: {self.data.source!r} not one of {DATA_SOURCES}")
        if self.data.source == "synthetic":
            if self.data.separation <= 0:
                problems.append("data.separation: must be > 0")
            data_clients = self.roster.fair + self.roster.selfish
            if (data_clients * self.data.samples_per_client + self.data.holdout_samples
                    < self.model.num_classes):
                problems.append(
                    "data.samples_per_client/holdout_samples: the synthetic pool, "
                    "(roster.fair + roster.selfish) * samples_per_client + "
                    "holdout_samples, must be >= model.num_classes")
        else:
            if not self.data.images_path or not self.data.labels_path:
                problems.append("data.images_path/labels_path: required for source 'idx'")
        if self.data.samples_per_client < 1:
            problems.append("data.samples_per_client: must be >= 1")
        if self.data.holdout_samples < 1:
            problems.append("data.holdout_samples: must be >= 1")
        if self.data.mode not in ("iid", "non_iid"):
            problems.append("data.mode: must be 'iid' or 'non_iid'")
        if self.data.non_iid_concentration <= 0:
            problems.append("data.non_iid_concentration: must be > 0")
        _raise_problems(problems)


def build_section(cls, raw: dict, path: str):
    """Build the dataclass `cls` from one JSON object: unknown keys, missing
    fields without a default and mistyped values are rejected, lists become
    tuples for tuple fields, and the constructor's own checks ("seed: must
    be ...") gain the path prefix."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    annotations = _field_types(cls)
    unknown = set(raw) - set(annotations)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    _raise_problems([f"{path}.{f.name}: required" for f in fields(cls)
                     if f.name not in raw and f.default is MISSING
                     and f.default_factory is MISSING])
    check_types(annotations, raw, path)
    kwargs = {name: tuple(value) if annotations[name].startswith("tuple[") else value
              for name, value in raw.items()}
    try:
        return cls(**kwargs)
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
