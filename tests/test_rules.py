"""Every declared setting rule at its boundary, through the CLI.

The cases are generated from the rule each config field declares
(fedaudit.config's `ruled` fields, read from the dataclass metadata) plus the
four rules ExperimentConfig.validate relates two fields by. Each rule gets its
boundary value and the nearest value past it: an accepted value runs and exits
0, a rejected one exits 1 naming the field path, and no value exits 2.
"""

import json
import math
import struct
from dataclasses import fields, is_dataclass
from typing import get_type_hints

import numpy as np
import pytest

from fedaudit.cli import main
from fedaudit.config import DLGExperimentConfig, ExperimentConfig

RUN_BASE = {
    "seed": 5, "rounds": 2, "eta": 0.1, "local_epochs": 1,
    "model": {"input_dim": 3, "num_classes": 3},
    "data": {"separation": 2.0, "samples_per_client": 10, "holdout_samples": 20},
    "roster": {"fair": 2, "plain": 1},
    "privacy": {"noise_variance": 0.0, "prune_rate": 0.0},
}
DLG_BASE = {"noise_variances": [0.0], "prune_rates": [0.0], "instances": 1,
            "iterations": 2, "input_dim": 2, "num_classes": 2}
IDX_SAMPLES = 60  # >= (fair + selfish) * samples_per_client + holdout_samples


def edges(rule, integer: bool) -> list[tuple[object, bool]]:
    """(value, accepted) at each end of a rule: a closed end and the nearest
    value outside it, or an open end and the nearest value inside it; each
    choice of a choice rule, and one value that is none of them."""
    if isinstance(rule, tuple):
        return [(choice, True) for choice in rule] + [("none-of-these", False)]
    up = (lambda x: x + 1) if integer else (lambda x: math.nextafter(x, math.inf))
    down = (lambda x: x - 1) if integer else (lambda x: math.nextafter(x, -math.inf))
    cast = int if integer else float
    if rule[0] in "[(":
        low, high = (cast(float(bound)) for bound in rule[1:-1].split(","))
        ends = [(low, rule[0] == "[", down, up), (high, rule[-1] == "]", up, down)]
    else:
        op, bound = rule.split()
        ends = [(cast(float(bound)), op == ">=", down, up)]
    cases = []
    for bound, closed, outward, inward in ends:
        cases += [(bound, closed), (outward(bound), False) if closed else (inward(bound), True)]
    return cases


def rule_cases(cls, command: str, section: str | None):
    """One case per edge of each ruled field of `cls`."""
    for f in fields(cls):
        rule = f.metadata.get("rule")
        if rule is None:
            continue
        listed = f.type.startswith("tuple[")
        for value, accepted in edges(rule, "int" in f.type):
            path = f"{section}.{f.name}" if section else f.name
            yield pytest.param(command, {section: {f.name: [value] if listed else value}}
                               if section else {f.name: value}, accepted, path,
                               id=f"{path}={value!r}")


def all_rule_cases():
    yield from rule_cases(ExperimentConfig, "run", None)
    for name, hint in get_type_hints(ExperimentConfig).items():
        if is_dataclass(hint):
            yield from rule_cases(hint, "run", name)
    yield from rule_cases(DLGExperimentConfig, "dlg", "dlg")


def cross(overrides, accepted, path, name):
    return pytest.param("run", overrides, accepted, path, id=f"{path}:{name}")


CROSS_FIELD_CASES = [
    cross({"local_batch_size": 10}, True, "local_batch_size", "batch=samples"),
    cross({"local_batch_size": 11}, False, "local_batch_size", "batch>samples"),
    cross({"roster": {"fair": 1, "plain": 0}}, True, "roster", "one client"),
    cross({"roster": {"fair": 0, "plain": 0}}, False, "roster", "no client"),
    # the selfish rider's public shard counts toward the pool
    cross({"roster": {"fair": 1, "plain": 0, "selfish": 1},
           "data": {"samples_per_client": 1, "holdout_samples": 1}}, True,
          "data.samples_per_client/holdout_samples", "pool=classes"),
    cross({"roster": {"fair": 1, "plain": 0},
           "data": {"samples_per_client": 1, "holdout_samples": 1}}, False,
          "data.samples_per_client/holdout_samples", "pool<classes"),
    cross({"data": {"source": "idx"}}, True, "data.images_path/labels_path", "both"),
    cross({"data": {"source": "idx", "labels_path": None}}, False,
          "data.images_path/labels_path", "no labels"),
]


@pytest.fixture(scope="module")
def idx_paths(tmp_path_factory):
    """An IDX pair the base config names, shaped to its model (1x3 images,
    3 labels), so that source "idx" runs."""
    directory = tmp_path_factory.mktemp("idx")
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (IDX_SAMPLES, 1, 3), dtype=np.uint8)
    labels = np.arange(IDX_SAMPLES, dtype=np.uint8) % 3
    images_path, labels_path = directory / "images", directory / "labels"
    images_path.write_bytes(struct.pack(">IIII", 0x00000803, *images.shape)
                            + images.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x00000801, IDX_SAMPLES) + labels.tobytes())
    return {"images_path": str(images_path), "labels_path": str(labels_path)}


@pytest.mark.parametrize("command, overrides, accepted, path",
                         [*all_rule_cases(), *CROSS_FIELD_CASES])
def test_rule_boundary(tmp_path, capsys, idx_paths, command, overrides, accepted, path):
    payload = {**RUN_BASE, "data": {**RUN_BASE["data"], **idx_paths}, "dlg": DLG_BASE}
    for key, value in overrides.items():
        payload[key] = {**payload.get(key, {}), **value} if isinstance(value, dict) else value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    code = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == (0 if accepted else 1), err
    if not accepted:
        assert f"config error: {path}: " in err
