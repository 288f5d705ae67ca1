"""Spans recorded from outside the program, for the benchmark's traced run.

`instrument(tracer)` wraps fedaudit's layer functions at the names the
callers look them up by (the simulator imports most of them directly, so
patching e.g. `fedaudit.model.accuracy` would miss every call) and restores
them on exit. Each wrapped call opens a span; the hottest leaf calls
(`accuracy`, `backward_soft`) are folded into the innermost open span as a
count and a time instead of one span each. Nothing under `src/` changes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import fedaudit.aggregation
import fedaudit.privacy
import fedaudit.reporting
import fedaudit.simulator
from fedaudit.clients import (AnonymousFreeRider, DisguisedFreeRider, FairClient,
                              PlainFreeRider, SelfishFreeRider)
from fedaudit.privacy import ReconstructionDivergedError
from fedaudit.simulator import Simulation


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    folded: dict[str, list] = field(default_factory=dict)  # name -> [calls, seconds]


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans and its
    folded leaf calls cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        busy = covered(children.get(i, []), s.start, s.end)
        busy += sum(seconds for _, seconds in s.folded.values())
        out.append(s.end - s.start - busy)
    return out


class Tracer:
    """Spans and counters for one traced body, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.unparented: dict[str, list] = {}  # folded calls made outside any span
        self._open: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def fold(self, name: str, seconds: float) -> None:
        target = self.spans[self._open[-1]].folded if self._open else self.unparented
        entry = target.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def summary(self) -> dict[str, float]:
        """Per name: `.calls` and `.s` (busy seconds) for spans and folded
        calls, `.self_s` for spans; plus the counters."""
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for s, self_s in zip(self.spans, self_times(self.spans)):
            add(f"{s.name}.calls", 1)
            add(f"{s.name}.s", s.end - s.start)
            add(f"{s.name}.self_s", self_s)
        for folded in [s.folded for s in self.spans] + [self.unparented]:
            for name, (calls, seconds) in folded.items():
                add(f"{name}.calls", calls)
                add(f"{name}.s", seconds)
        out.update(self.counters)
        return out


def _replace(patches, owner, attr, make):
    original = getattr(owner, attr)
    patches.append((owner, attr, original))
    setattr(owner, attr, make(original))


def _spanned(tracer, name):
    def make(fn):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper
    return make


@contextmanager
def instrument(tracer: Tracer):
    """Wrap fedaudit's layer entry points so that calls land in `tracer`."""
    sim_mod = fedaudit.simulator
    clock = tracer.clock
    holdout = {"dataset": None}
    patches: list = []

    def train_clients(fn):
        def wrapper(params, config, features, labels, eta, epochs, perms=None,
                    batch_size=None):
            n = features.shape[1]
            per_epoch = 1 if batch_size is None else n // batch_size
            tracer.count("model.train_clients.steps", epochs * per_epoch)
            with tracer.span("model.train_clients"):
                return fn(params, config, features, labels, eta, epochs, perms,
                          batch_size)
        return wrapper

    def accuracy(fn):
        def wrapper(params, config, dataset):
            t0 = clock()
            out = fn(params, config, dataset)
            role = "eval" if dataset is holdout["dataset"] else "audit"
            tracer.fold(f"model.accuracy.{role}", clock() - t0)
            return out
        return wrapper

    def backward_soft(fn):
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            tracer.fold("model.backward_soft", clock() - t0)
            return out
        return wrapper

    def minimize(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count("privacy.lbfgs.iterations", int(result.nit))
            tracer.count("privacy.lbfgs.objective_evals", int(result.nfev))
            return result
        return wrapper

    def dlg_reconstruct(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("privacy.dlg_reconstruct"):
                try:
                    return fn(*args, **kwargs)
                except ReconstructionDivergedError:
                    tracer.count("privacy.dlg_reconstruct.diverged")
                    raise
        return wrapper

    def run_round(fn):
        def wrapper(self):
            holdout["dataset"] = self.holdout
            with tracer.span("simulator.run_round"):
                log = fn(self)
            tracer.count("simulator.rounds")
            tracer.count("simulator.active_client_rounds", log.n_active)
            tracer.count("defense.eliminated", len(log.newly_eliminated))
            return log
        return wrapper

    try:
        _replace(patches, sim_mod, "train_clients", train_clients)
        _replace(patches, sim_mod, "accuracy", accuracy)
        _replace(patches, sim_mod, "dlg_reconstruct", dlg_reconstruct)
        for attr, name in (("apply_privacy", "privacy.apply_privacy"),
                           ("contribution_step", "defense.contribution_step"),
                           ("eliminate_low_contributors",
                            "defense.eliminate_low_contributors"),
                           ("cosine_contribution_step",
                            "defense.cosine_contribution_step"),
                           ("generate_synthetic", "data.generate_synthetic"),
                           ("partition", "data.partition")):
            _replace(patches, sim_mod, attr, _spanned(tracer, name))
        for attr in ("fedavg", "coordinate_median", "trimmed_mean",
                     "signsgd_aggregate"):
            _replace(patches, fedaudit.aggregation, attr,
                     _spanned(tracer, f"aggregation.{attr}"))
        _replace(patches, fedaudit.privacy, "backward_soft", backward_soft)
        _replace(patches, fedaudit.privacy, "minimize", minimize)
        for attr in ("rounds_csv_text", "dlg_csv_text"):
            _replace(patches, fedaudit.reporting, attr,
                     _spanned(tracer, f"reporting.{attr}"))
        for cls in (FairClient, PlainFreeRider, DisguisedFreeRider,
                    AnonymousFreeRider, SelfishFreeRider):
            _replace(patches, cls, "compute_update",
                     _spanned(tracer, f"clients.compute_update.{cls.kind}"))
        _replace(patches, Simulation, "run_round", run_round)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
