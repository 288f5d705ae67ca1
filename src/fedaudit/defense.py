"""Contribution evaluation and elimination.

Two defenses: the peer parameter audit (accuracy-divergence reports smoothed
through tanh, elimination below 1/(beta * N)), and the cosine-reputation
baseline. Plus the defense quality metrics (defense success rate, false
positive rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Peer audits need at least two peers to mean anything; below this many active
# clients elimination is suspended.
MIN_ACTIVE_FOR_ELIMINATION = 3


@dataclass(frozen=True, eq=False)
class AuditMatrix:
    """One round's accuracy-divergence reports: reports[i, j] is auditor
    auditor_ids[i]'s report on the upload of target_ids[j].

    Only non-eliminated, data-holding auditors have rows. An auditor that is
    also a target has a report on its own upload in the array, which is not
    a peer report.
    """

    round: int
    auditor_ids: tuple[int, ...] = ()
    target_ids: tuple[int, ...] = ()
    reports: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    @property
    def entries(self) -> dict[int, dict[int, float]]:
        """The peer reports as entries[auditor][target], rows and items in
        array order: no self-audit, and no row for an auditor whose only
        target is itself."""
        entries = {}
        for auditor, row in zip(self.auditor_ids, self.reports.tolist()):
            peers = {t: r for t, r in zip(self.target_ids, row) if t != auditor}
            if peers:
                entries[auditor] = peers
        return entries


@dataclass
class ContributionLedger:
    """Per-client contribution scores and the eliminated set: the one record
    of which clients are out."""

    contributions: dict[int, float]
    eliminated: set[int] = field(default_factory=set)

    @classmethod
    def fresh(cls, client_ids: list[int], initial: float) -> "ContributionLedger":
        return cls({cid: initial for cid in client_ids})

    def active_ids(self) -> list[int]:
        return [cid for cid in self.contributions if cid not in self.eliminated]

    def eliminate_below(self, cutoff: float) -> set[int]:
        """Eliminate every active client whose contribution is below cutoff,
        permanently; returns the newly eliminated ids."""
        newly = {cid for cid in self.active_ids() if self.contributions[cid] < cutoff}
        self.eliminated |= newly
        return newly


def contribution_step(c_prev: float, accdiv_reports: list[float], alpha: float) -> float:
    """alpha * c_prev + (1 - alpha) * tanh(mean reports); no reports carries
    the value forward. The reports are summed left to right in plain float
    addition, not with builtin sum(), which compensates from Python 3.12 on
    and would make the bits depend on the interpreter version."""
    if not accdiv_reports:
        return c_prev
    total = 0.0
    for report in accdiv_reports:
        total += report
    return alpha * c_prev + (1 - alpha) * math.tanh(total / len(accdiv_reports))


def eliminate_low_contributors(ledger: ContributionLedger, beta: float,
                               n_threshold: int) -> set[int]:
    """Mark every active client with contribution < 1/(beta * n_threshold).

    Suspended (returns the empty set) when fewer than
    MIN_ACTIVE_FOR_ELIMINATION clients remain active. Elimination is
    permanent.
    """
    if len(ledger.active_ids()) < MIN_ACTIVE_FOR_ELIMINATION:
        return set()
    return ledger.eliminate_below(1.0 / (beta * n_threshold))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors; 0 when either has zero norm."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def cosine_contribution_step(c_prev: float, global_update: np.ndarray,
                             local_update: np.ndarray, alpha: float) -> float:
    """alpha * c_prev + (1 - alpha) * cos(global_update, local_update)."""
    return alpha * c_prev + (1 - alpha) * cosine_similarity(global_update, local_update)


def defense_success_rate(eliminated: set[int], fr_ids: set[int]) -> float | None:
    """Percentage of free-rider clients eliminated; None without any FR."""
    if not fr_ids:
        return None
    return 100.0 * len(eliminated & fr_ids) / len(fr_ids)


def false_positive_rate(eliminated: set[int], fair_ids: set[int]) -> float | None:
    """Percentage of fair clients wrongly eliminated; None without fair clients."""
    if not fair_ids:
        return None
    return 100.0 * len(eliminated & fair_ids) / len(fair_ids)
