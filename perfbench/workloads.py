"""The benchmark's workloads: how each is built from a seed, what its timed
body runs, and the output checks it must pass.

Every workload is built from `seed` alone, so one seed always gives the same
inputs and the same output bytes. `scale="tiny"` shrinks each workload to a
size the benchmark's own tests can run in well under a second; the same
checks hold at both scales.

Sizes (the scenario shapes come from the acceptance criteria):

pass_echo       the criterion-1 scenario, 10 fair + 5 plain riders, cut to 25
                rounds: full-batch training is nearly all of the time, and
                every plain rider is eliminated (DSR 100%) on every seed.
audit_wide      120 fair + 30 plain, 5 local epochs, 12 rounds, contributions
                starting at 1.0. With at most 10 contribution updates a score
                stays >= 2 * 0.95**10 - 1 = 0.197, far above the cutoff
                1 / (1.75 * 150), so no client can be eliminated on any seed
                and every audited round makes exactly 120 * 149 reports.
minibatch_rffl  cosine defense, trimmed mean, minibatch SGD (300 gathered
                steps per round), selfish and anonymous riders; 100 rounds.
dlg_grid        criterion-5 leakage grid: 30 instances x 10 cells x 300 L-BFGS
                iterations. The work per seed varies by +-5%; fewer instances
                would widen that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import fedaudit
from fedaudit import reporting
from fedaudit.scenarios import standard_config
from fedaudit.simulator import (DLGExperimentConfig, Simulation,
                                run_dlg_experiment)

# The benchmark measures the checkout it sits in, never an installed copy.
_SRC = Path(__file__).resolve().parents[1] / "src"
if Path(fedaudit.__file__).resolve().parent != _SRC / "fedaudit":
    raise ImportError(f"fedaudit imported from {fedaudit.__file__}, not from {_SRC}")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    config(seed, scale) gives the configuration; build(config) makes the
    object the body consumes (a fresh Simulation, or the grid config itself);
    body(obj) returns (output text, result); check(result, stats) returns a
    list of problems, empty when the output is correct; ops(config) is the
    number of operations (rounds or reconstructions) one body attempts.
    """

    name: str
    kind: str  # "sim" or "dlg"
    config: Callable
    build: Callable
    body: Callable
    check: Callable
    ops: Callable


# -- simulator workloads ----------------------------------------------------

def pass_echo_config(seed: int, scale: str = "full"):
    if scale == "tiny":
        return standard_config(fair=3, plain=1, seed=seed, rounds=20, local_epochs=2)
    return standard_config(fair=10, plain=5, seed=seed, rounds=25)


def audit_wide_config(seed: int, scale: str = "full"):
    if scale == "tiny":
        cfg = standard_config(fair=6, plain=2, seed=seed, rounds=4, local_epochs=5)
    else:
        cfg = standard_config(fair=120, plain=30, seed=seed, rounds=12, local_epochs=5)
    return replace(cfg, defense=replace(cfg.defense, initial_contribution=1.0))


def minibatch_rffl_config(seed: int, scale: str = "full"):
    if scale == "tiny":
        cfg = standard_config(fair=3, selfish=1, anonymous=1, seed=seed, rounds=4,
                              defense="rffl", aggregator="trimmed_mean",
                              local_epochs=2)
    else:
        cfg = standard_config(fair=10, selfish=3, anonymous=2, seed=seed, rounds=100,
                              defense="rffl", aggregator="trimmed_mean",
                              local_epochs=30)
    return replace(cfg, local_batch_size=10)


def _sim_body(sim: Simulation):
    result = sim.run()
    return reporting.rounds_csv_text(result), result


def check_pass_echo(result, stats) -> list[str]:
    if result.dsr != 100.0:
        return [f"DSR {result.dsr}%: a plain rider was not eliminated"]
    return []


def check_audit_wide(result, stats) -> list[str]:
    cfg = result.config
    problems = []
    if result.eliminated:
        problems.append(f"clients eliminated: {list(result.eliminated)}")
    # uploads of round t are audited in round t + 1; round-0 uploads never are
    expected = (cfg.rounds - 2) * cfg.roster.fair * (cfg.roster.total - 1)
    if stats["audit_reports"] != expected:
        problems.append(f"audit reports {stats['audit_reports']} != {expected}")
    return problems


def check_minibatch_rffl(result, stats) -> list[str]:
    problems = []
    if len(result.rounds) != result.config.rounds or result.halted_early:
        problems.append(f"only {len(result.rounds)} of {result.config.rounds} rounds ran")
    if not result.final_accuracy > 1 / 8:
        problems.append(f"final accuracy {result.final_accuracy} <= 1/8")
    return problems


def _sim_workload(name, config_fn, check):
    return Workload(name=name, kind="sim", config=config_fn, build=Simulation,
                    body=_sim_body, check=check, ops=lambda config: config.rounds)


# -- leakage grid -----------------------------------------------------------

CLEAN_MSE_LIMIT = 1e-2


def dlg_grid_config(seed: int, scale: str = "full") -> DLGExperimentConfig:
    if scale == "tiny":
        return DLGExperimentConfig(noise_variances=(0.0, 1e-2), prune_rates=(0.0, 0.9),
                                   instances=2, iterations=20, batch_samples=1,
                                   input_dim=8, num_classes=2, seed=seed)
    return DLGExperimentConfig(noise_variances=(0.0, 1e-4, 1e-3, 1e-2, 1e-1),
                               prune_rates=(0.0, 0.9), instances=30, iterations=300,
                               batch_samples=1, input_dim=8, num_classes=2, seed=seed)


def _dlg_body(grid: DLGExperimentConfig):
    cells = run_dlg_experiment(grid)
    return reporting.dlg_csv_text(cells), cells


def check_dlg_grid(cells, stats) -> list[str]:
    problems = []
    clean = next(c for c in cells if c.noise_variance == 0.0 and c.prune_rate == 0.0)
    if not clean.median_mse < CLEAN_MSE_LIMIT:
        problems.append(f"clean-cell median MSE {clean.median_mse} >= {CLEAN_MSE_LIMIT}")
    return problems


def _dlg_ops(grid: DLGExperimentConfig) -> int:
    return grid.instances * len(grid.noise_variances) * len(grid.prune_rates)


WORKLOADS = {
    w.name: w for w in (
        _sim_workload("pass_echo", pass_echo_config, check_pass_echo),
        _sim_workload("audit_wide", audit_wide_config, check_audit_wide),
        _sim_workload("minibatch_rffl", minibatch_rffl_config, check_minibatch_rffl),
        Workload(name="dlg_grid", kind="dlg", config=dlg_grid_config,
                 build=lambda grid: grid, body=_dlg_body, check=check_dlg_grid,
                 ops=_dlg_ops),
    )
}
