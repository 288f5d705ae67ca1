"""Generated configs as a standing check of the forked splits and the CLI.

Where two CPUs are usable, Simulation.run() trains half of each round's fair
stack and scores half of its auditors in a forked worker, and
run_dlg_experiment solves half of the grid's instances in one. Either way the
output bytes must be those of one process. Hypothesis draws tiny run configs
and leakage grids (derandomized, so every run of the suite checks the same
examples), and each is run with one usable CPU and with two. The CPU mask is
patched inside the test body, because hypothesis rejects function-scoped
fixtures. A few of the same configs, written as JSON config files, must make
`fedaudit run` and `fedaudit dlg` write the bytes the reporting functions
give for the same run.
"""

import dataclasses
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from fedaudit import cli, simulator
from fedaudit.config import (AggregatorConfig, DataConfig, DefenseSettings,
                             ExperimentConfig, RosterConfig)
from fedaudit.model import ModelConfig
from fedaudit.privacy import PrivacyConfig
from fedaudit.reporting import (dlg_csv_text, dlg_json_text, result_json_text,
                                rounds_csv_text)
from fedaudit.simulator import DLGExperimentConfig, run_dlg_experiment, run_experiment

SPLITS = settings(derandomize=True, database=None, deadline=None)


def serial_and_split(fn, arg):
    """fn(arg) with one usable CPU and with two, and the names of the forked
    workers each started."""
    outputs, forks = [], []
    for mask in ({0}, {0, 1}):
        started = []

        class CountedWorker(simulator._ForkedWorker):
            def __init__(self, name, task):
                started.append(name)
                super().__init__(name, task)
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(mask)), \
                mock.patch.object(simulator, "_ForkedWorker", CountedWorker):
            outputs.append(fn(arg))
        forks.append(started)
    return outputs, forks


@st.composite
def run_configs(draw):
    riders = {kind: draw(st.integers(0, 1))
              for kind in ("plain", "disguised", "anonymous", "selfish")}
    batch = draw(st.sampled_from([None, 4]))
    return ExperimentConfig(
        seed=draw(st.integers(0, 2**16)),
        rounds=draw(st.integers(3, 6)),
        eta=0.1,
        local_epochs=draw(st.integers(1, 3)),
        local_batch_size=batch,
        model=ModelConfig(3, draw(st.sampled_from([(), (4,)])), 3),
        data=DataConfig(source="synthetic", separation=2.0, samples_per_client=8,
                        holdout_samples=24, mode=draw(st.sampled_from(["iid", "non_iid"]))),
        roster=RosterConfig(fair=draw(st.integers(1, 5)), **riders),
        aggregator=AggregatorConfig(draw(st.sampled_from(["fedavg", "trimmed_mean"]))),
        defense=DefenseSettings(kind=draw(st.sampled_from(["pass", "rffl"]))),
        privacy=draw(st.sampled_from([PrivacyConfig(0.0, 0.0), PrivacyConfig(1e-2, 0.9)])),
    )


@settings(SPLITS, max_examples=60)
@given(run_configs())
def test_split_run_equals_serial(cfg):
    (serial, split), (serial_forks, split_forks) = serial_and_split(
        lambda c: result_json_text(run_experiment(c)), cfg)
    assert split == serial
    assert serial_forks == []
    splits = cfg.local_batch_size is None and cfg.roster.fair >= 2
    assert split_forks == (["round worker"] if splits else [])


@st.composite
def dlg_grids(draw):
    return DLGExperimentConfig(
        noise_variances=tuple(draw(st.lists(st.sampled_from([0.0, 1e-4, 1e-2]),
                                            min_size=1, max_size=2, unique=True))),
        prune_rates=tuple(draw(st.lists(st.sampled_from([0.0, 0.5, 0.9]),
                                        min_size=1, max_size=2, unique=True))),
        instances=draw(st.integers(1, 3)),
        iterations=draw(st.integers(5, 20)),
        batch_samples=draw(st.integers(1, 2)),
        input_dim=draw(st.integers(2, 4)),
        hidden_dims=draw(st.sampled_from([(), (3,)])),
        num_classes=draw(st.integers(2, 3)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(SPLITS, max_examples=25)
@given(dlg_grids())
def test_split_grid_equals_serial(grid):
    (serial, split), (serial_forks, split_forks) = serial_and_split(
        lambda g: dlg_csv_text(run_dlg_experiment(g)), grid)
    assert split == serial
    assert serial_forks == []
    assert split_forks == (["leakage grid worker"] if grid.instances >= 2 else [])


def cli_files(command: str, config: dict, fmt: str) -> dict[str, bytes]:
    """The files `fedaudit COMMAND --format FMT` writes for a config file
    holding `config`, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(path), "--out", str(out),
                         "--format", fmt]) == 0
        return {file.name: file.read_bytes() for file in out.iterdir()}


@settings(SPLITS, max_examples=6)
@given(run_configs())
def test_cli_run_writes_the_reporting_bytes(cfg):
    result = run_experiment(cfg)
    config = dataclasses.asdict(cfg)
    assert cli_files("run", config, "csv") == {
        "rounds.csv": rounds_csv_text(result).encode(),
        "summary.json": result_json_text(result, include_rounds=False).encode()}
    assert cli_files("run", config, "json") == {
        "result.json": result_json_text(result).encode()}


@settings(SPLITS, max_examples=6)
@given(dlg_grids())
def test_cli_dlg_writes_the_reporting_bytes(grid):
    cells = run_dlg_experiment(grid)
    config = {"dlg": dataclasses.asdict(grid)}
    assert cli_files("dlg", config, "csv") == {"dlg_grid.csv": dlg_csv_text(cells).encode()}
    assert cli_files("dlg", config, "json") == {"dlg_grid.json": dlg_json_text(cells).encode()}
