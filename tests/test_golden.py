"""Golden behaviour fingerprints.

Each small configuration below is run and compared with its recorded golden in
tests/golden/<name>.json: the sha256 of every output file the CLI can write
for it (rounds CSV, result JSON with and without round logs; leakage grid CSV
and JSON; sweep CSV and JSON) and, for simulator runs, the round in which each
client was eliminated (null if never). Bit-reproducibility per seed is the
contract, so a refactor that changes any number or any output byte fails here
even when every behavioural test still passes.

A golden may be refreshed only by a change whose CHANGES.md entry names the
golden and says why its bytes moved. To rewrite all goldens from the current
code: `PYTHONPATH=src python tests/test_golden.py --write`.
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fedaudit.model import ModelConfig
from fedaudit.reporting import (dlg_csv_text, dlg_json_text, json_text,
                                result_json_text, rounds_csv_text, sweep_csv_text)
from fedaudit.scenarios import INPUT_DIM, NUM_CLASSES, standard_config
from fedaudit.simulator import (DLGExperimentConfig, run_dlg_experiment,
                                run_experiment, sweep_experiment)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _small(**kwargs):
    kwargs.setdefault("rounds", 15)
    kwargs.setdefault("local_epochs", 50)
    kwargs.setdefault("alpha", 0.9)
    return standard_config(**kwargs)


def _minibatch():
    cfg = _small(fair=3, plain=1, selfish=1, seed=4, local_epochs=10)
    return replace(cfg, local_batch_size=25)


def _hidden():
    cfg = _small(fair=3, plain=1, anonymous=1, seed=5)
    return replace(cfg, model=ModelConfig(INPUT_DIM, (5,), NUM_CLASSES))


SIM_CASES = {
    "pass": lambda: _small(fair=4, plain=2, selfish=1, seed=1),
    "rffl": lambda: _small(fair=4, disguised=1, anonymous=1, seed=2,
                           defense="rffl"),
    "none": lambda: _small(fair=3, plain=1, seed=3, defense="none", rounds=5),
    "median": lambda: _small(fair=4, plain=1, disguised=1, seed=6,
                             aggregator="median"),
    "signsgd": lambda: _small(fair=4, plain=1, seed=7, aggregator="signsgd"),
    "minibatch": _minibatch,
    "hidden": _hidden,
    "single_fair": lambda: _small(fair=1, plain=2, seed=8),
    "zero_epochs": lambda: _small(fair=3, plain=1, selfish=1, seed=9,
                                  local_epochs=0, rounds=6),
}

DLG_CASES = {
    "dlg_grid": lambda: DLGExperimentConfig(
        noise_variances=(0.0, 1e-2), prune_rates=(0.0, 0.9), instances=2,
        iterations=25, batch_samples=2, input_dim=4, hidden_dims=(3,),
        num_classes=3, seed=11),
}


SWEEP_CASES = {
    "sweep": lambda: (_small(fair=3, plain=1, rounds=5), {"beta": [1.25, 2.5]}),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(name: str) -> dict:
    if name in DLG_CASES:
        cells = run_dlg_experiment(DLG_CASES[name]())
        return {"dlg_csv_sha256": _sha256(dlg_csv_text(cells)),
                "dlg_json_sha256": _sha256(dlg_json_text(cells))}
    if name in SWEEP_CASES:
        rows = sweep_experiment(*SWEEP_CASES[name]())
        return {"sweep_csv_sha256": _sha256(sweep_csv_text(rows)),
                "sweep_json_sha256": _sha256(json_text(rows))}
    result = run_experiment(SIM_CASES[name]())
    # a round that eliminates the last active clients halts before its log
    eliminated_in = {cid: len(result.rounds) for cid in result.eliminated}
    eliminated_in.update((cid, log.round) for log in result.rounds
                         for cid in log.newly_eliminated)
    client_ids = sorted(result.fair_ids + result.fr_ids)
    return {
        "rounds_csv_sha256": _sha256(rounds_csv_text(result)),
        "result_json_sha256": _sha256(result_json_text(result)),
        "summary_json_sha256": _sha256(result_json_text(result, include_rounds=False)),
        "elimination_round": {str(cid): eliminated_in.get(cid) for cid in client_ids},
    }


@pytest.mark.parametrize("name", [*SIM_CASES, *DLG_CASES, *SWEEP_CASES])
def test_matches_golden(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert fingerprint(name) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in [*SIM_CASES, *DLG_CASES, *SWEEP_CASES]:
        (GOLDEN_DIR / f"{case}.json").write_text(
            json.dumps(fingerprint(case), indent=2, sort_keys=True) + "\n")
        print(f"wrote {case}")
