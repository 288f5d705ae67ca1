"""Deterministic CSV/JSON emission for experiment, sweep, and leakage results.

Every CSV goes through `csv_text` and every JSON file through `json_text`, so
output bytes are a pure function of the result objects (floats via repr, keys
sorted, no timestamps) and identical runs produce identical files. JSON is
strict: a non-finite float is written as null.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable

from .privacy import (DEFENDED_MSE_THRESHOLD, PUBLISHED_MSE, PUBLISHED_NOISE_LEVELS,
                      PUBLISHED_PRUNE_RATES, PUBLISHED_SOTERIA_MSE)
from .simulator import DLGCell, ExperimentResult

ROUNDS_CSV_COLUMNS = ("round", "accuracy", "client_id", "contribution",
                      "eliminated", "comm_scalars")


def rounds_csv_text(result: ExperimentResult) -> str:
    """One row per (round, client): the documented fixed-column long format."""
    rows = []
    eliminated_so_far: set[int] = set()
    for log in result.rounds:
        eliminated_so_far |= set(log.newly_eliminated)
        rows += [(log.round, log.global_accuracy, cid, log.contributions[cid],
                  cid in eliminated_so_far, log.comm_scalars)
                 for cid in sorted(log.contributions)]
    return csv_text(ROUNDS_CSV_COLUMNS, rows)


def summary_dict(result: ExperimentResult) -> dict:
    return {
        "rounds_completed": len(result.rounds),
        "dsr": result.dsr,
        "fpr": result.fpr,
        "final_accuracy": result.final_accuracy,
        "accuracy_curve": result.accuracy_curve,
        "total_comm_scalars": result.total_comm_scalars,
        "eliminated": list(result.eliminated),
        "fair_ids": list(result.fair_ids),
        "fr_ids": list(result.fr_ids),
        "fr_ratio_percent": result.fr_ratio_percent,
        "halted_early": result.halted_early,
        "seed": result.config.seed,
    }


def result_json_text(result: ExperimentResult, include_rounds: bool = True) -> str:
    payload = summary_dict(result)
    if include_rounds:
        payload["round_logs"] = [
            {
                "round": log.round,
                "accuracy": log.global_accuracy,
                "contributions": {str(k): v for k, v in sorted(log.contributions.items())},
                "newly_eliminated": list(log.newly_eliminated),
                "n_active": log.n_active,
                "comm_scalars": log.comm_scalars,
            }
            for log in result.rounds
        ]
    return json_text(payload)


def sweep_csv_text(rows: list[dict]) -> str:
    columns = list(rows[0]) if rows else []
    return csv_text(columns, ([row[c] for c in columns] for row in rows))


DLG_CSV_COLUMNS = ("source", "noise_variance", "prune_rate", "median_mse",
                   "defended", "instances", "diverged")


def dlg_reference_cells() -> list[DLGCell]:
    """The original CNN-scale evaluation grid, reported for comparison only."""
    cells = [
        DLGCell(nv, pr, mse, mse > DEFENDED_MSE_THRESHOLD, 0, 0,
                source="published_reference")
        for pr, nv, mse in zip(PUBLISHED_PRUNE_RATES, PUBLISHED_NOISE_LEVELS,
                               PUBLISHED_MSE)
    ]
    cells += [
        DLGCell(float("nan"), pr, mse, mse > DEFENDED_MSE_THRESHOLD, 0, 0,
                source="published_soteria_reference")
        for pr, mse in zip(PUBLISHED_PRUNE_RATES, PUBLISHED_SOTERIA_MSE)
    ]
    return cells


def _dlg_rows(cells: list[DLGCell]) -> list[dict]:
    """The leakage grid followed by the published reference rows, which are
    labeled by source and are not reproduced at this scale."""
    return [{column: getattr(cell, column) for column in DLG_CSV_COLUMNS}
            for cell in [*cells, *dlg_reference_cells()]]


def dlg_csv_text(cells: list[DLGCell]) -> str:
    return csv_text(DLG_CSV_COLUMNS, (row.values() for row in _dlg_rows(cells)))


def dlg_json_text(cells: list[DLGCell]) -> str:
    return json_text(_dlg_rows(cells))


def csv_text(columns: Iterable[str], rows: Iterable[Iterable]) -> str:
    """Header plus one line per row of values, each cell rendered by `_cell`."""
    lines = [",".join(columns)]
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(payload: dict | list) -> str:
    return json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _finite_or_null(value):
    """`value` with every NaN or infinite float, however deeply nested, None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)
