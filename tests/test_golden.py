"""Golden behaviour fingerprints.

Each small configuration below is run and compared with its recorded golden in
tests/golden/<name>.json: the sha256 of every output file the CLI can write
for it (rounds CSV, result JSON with and without round logs; leakage grid CSV
and JSON; sweep CSV and JSON) and, for simulator runs, the round in which each
client was eliminated (null if never). Bit-reproducibility per seed is the
contract, so a refactor that changes any number or any output byte fails here
even when every behavioural test still passes.

A golden may be refreshed only by a change whose CHANGES.md entry names the
golden and says why its bytes moved. `PYTHONPATH=src python tests/test_golden.py
--write` writes the golden of every case that has no golden file yet and
leaves the others alone; to refresh a golden, delete its file first.
"""

import hashlib
import json
import struct
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedaudit.model import ModelConfig
from fedaudit.reporting import (dlg_csv_text, dlg_json_text, json_text,
                                result_json_text, rounds_csv_text, sweep_csv_text)
from fedaudit.scenarios import (INPUT_DIM, NUM_CLASSES, neutrality_config,
                                standard_config)
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


def _initial_contribution():
    """The pass case with initial_contribution set: every elimination moves
    later, client 1 survives and the selfish rider 6 is eliminated."""
    cfg = SIM_CASES["pass"]()
    return replace(cfg, defense=replace(cfg.defense, initial_contribution=0.2))


def _idx(directory: Path):
    """An IDX run from files written here from a seeded uint8 array: 1,100
    2x5 images (INPUT_DIM pixels) whose brightness follows one of 8 labels."""
    rng = np.random.default_rng(13)
    labels = rng.integers(0, NUM_CLASSES, 1100)
    images = (labels[:, None, None] * 28 + rng.integers(0, 40, (1100, 2, 5))).astype(np.uint8)
    images_path, labels_path = directory / "images.idx", directory / "labels.idx"
    images_path.write_bytes(struct.pack(">IIII", 0x00000803, *images.shape)
                            + images.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x00000801, len(labels))
                            + labels.astype(np.uint8).tobytes())
    cfg = _small(fair=4, plain=1, seed=13)
    return replace(cfg, data=replace(cfg.data, source="idx", images_path=str(images_path),
                                     labels_path=str(labels_path)))


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
    # ten uploads: the trim drops one per side; the default cosine cutoff
    # eliminates three fair clients
    "trimmed_cosine": lambda: _small(fair=8, plain=2, seed=12, defense="rffl",
                                     aggregator="trimmed_mean", privacy_on=False,
                                     rounds=30),
    # both plain riders fall below the cosine cutoff and the run halts
    "halt": lambda: _small(fair=0, plain=2, seed=10, defense="rffl",
                           privacy_on=False, rounds=30),
    "initial_contribution": _initial_contribution,
    # criterion 4's scenario: ten fair clients on the easy IID task
    "neutrality": lambda: neutrality_config(seed=1, rounds=6),
}

# cases built from files the test writes into a temporary directory
FILE_CASES = {"idx": _idx}

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
    if name in FILE_CASES:
        with tempfile.TemporaryDirectory() as directory:
            result = run_experiment(FILE_CASES[name](Path(directory)))
    else:
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


ALL_CASES = [*SIM_CASES, *FILE_CASES, *DLG_CASES, *SWEEP_CASES]


@pytest.mark.parametrize("name", ALL_CASES)
def test_matches_golden(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert fingerprint(name) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in ALL_CASES:
        path = GOLDEN_DIR / f"{case}.json"
        if path.exists():
            continue
        path.write_text(json.dumps(fingerprint(case), indent=2, sort_keys=True) + "\n")
        print(f"wrote {case}")
