"""Round-by-round orchestration: allocation, client updates, privacy
transforms, peer audits, contribution scoring, elimination, aggregation,
metric logging, and communication accounting.

Round pipeline (two-phase): uploads computed in round t are audited at the
start of round t+1, against the global parameters that were current when the
uploads were computed. An upload that merely echoes the transition allocated
with it therefore scores an accuracy divergence of exactly zero. Round-0
uploads are never audited (no allocated transition existed yet), so the first
contribution update lands in round 2.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import traceback
from dataclasses import dataclass, replace

import numpy as np

from . import aggregation
from .clients import (AnonymousFreeRider, Client, DisguisedFreeRider, FairClient,
                      PlainFreeRider, SelfishFreeRider)
from .config import (CLIENT_KINDS, ConfigError, DLGExperimentConfig, ExperimentConfig,
                     field_problems, value_problem)
from .data import (Dataset, IdxFormatError, PartitionSpec, generate_synthetic, load_idx,
                   partition)
from .defense import (AuditMatrix, ContributionLedger, contribution_step,
                      cosine_contribution_step, defense_success_rate,
                      eliminate_low_contributors, false_positive_rate)
from .model import (accuracy, backward, epoch_permutations, init_params, param_count,
                    train_clients)
from .privacy import (apply_privacy, reconstruct_batch, reconstruction_mse,
                      DEFENDED_MSE_THRESHOLD)
# dlg_reconstruct is not called here; perfbench's op_timer and spans.py patch
# this name, so it stays importable
from .privacy import dlg_reconstruct  # noqa: F401


@dataclass(frozen=True)
class RoundLog:
    round: int
    global_accuracy: float
    contributions: dict[int, float]
    newly_eliminated: tuple[int, ...]
    n_active: int
    comm_scalars: int
    audit_reports: int  # peer reports this round's audit made; 0 without an audit


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rounds: tuple[RoundLog, ...]
    fair_ids: tuple[int, ...]
    fr_ids: tuple[int, ...]
    eliminated: tuple[int, ...]
    dsr: float | None
    fpr: float | None
    total_comm_scalars: int
    halted_early: bool

    @property
    def accuracy_curve(self) -> list[float]:
        return [log.global_accuracy for log in self.rounds]

    @property
    def final_accuracy(self) -> float:
        return self.rounds[-1].global_accuracy if self.rounds else float("nan")

    @property
    def fr_ratio_percent(self) -> int:
        total = len(self.fair_ids) + len(self.fr_ids)
        return int(round(100.0 * len(self.fr_ids) / total)) if total else 0


class AllClientsEliminated(RuntimeError):
    """Every client has been eliminated; the experiment halts."""


def comm_cost(n_active: int, gamma: float, d: int) -> int:
    """Scalars the server sends per audit-defense round: one global payload of
    d per active client plus (n-1) pruned peer updates each, zeros elided."""
    if n_active < 1:
        raise ValueError("n_active must be >= 1")
    pruned_away = int(round(gamma * d))
    return n_active * d + n_active * (n_active - 1) * (d - pruned_away)


def _seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


class Simulation:
    """One experiment instance; build once, then run_round() until done."""

    def __init__(self, config: ExperimentConfig):
        config.validate()
        self.config = config
        root = np.random.SeedSequence(config.seed)
        (data_seq, init_seq, part_seq, split_seq,
         client_seq, privacy_seq) = root.spawn(6)

        roster = config.roster
        shards, public_shards, holdout = self._build_data(data_seq, part_seq, split_seq)
        self.holdout = holdout

        self.clients: list[Client] = [FairClient(cid, shard)
                                      for cid, shard in enumerate(shards)]
        forged = config.data.samples_per_client
        for cls in (PlainFreeRider, DisguisedFreeRider, AnonymousFreeRider):
            for _ in range(getattr(roster, cls.kind)):
                self.clients.append(cls(len(self.clients), forged))
        for shard in public_shards:
            self.clients.append(SelfishFreeRider(len(self.clients), shard))

        self.fair_ids = tuple(c.id for c in self.clients if c.kind == "fair")
        self.fr_ids = tuple(c.id for c in self.clients if c.kind != "fair")

        n = len(self.clients)
        # indexed by client id, which is the client's index in self.clients
        self.client_rngs = [np.random.default_rng(seq) for seq in client_seq.spawn(n)]
        self.privacy_rngs = [np.random.default_rng(seq) for seq in privacy_seq.spawn(n)]

        initial = config.defense.initial_contribution
        if initial is None:
            initial = 1.0 / n
        self.ledger = ContributionLedger.fresh([c.id for c in self.clients], initial)

        self.params = init_params(config.model, _seed_int(init_seq))
        self.prev_params: np.ndarray | None = None  # params before the last aggregation
        self.dim = param_count(config.model)
        self.alloc: np.ndarray | None = None  # delta allocated this round
        self._pending_audit = None  # (ids, uploads, theta_at_upload, theta_before_upload)
        self.last_audit_matrix: AuditMatrix | None = None
        self._worker: _ForkedWorker | None = None  # set only while run() runs
        self.logs: list[RoundLog] = []
        self.halted_early = False

    def _build_data(self, data_seq, part_seq, split_seq):
        cfg = self.config
        data_clients = cfg.roster.fair + cfg.roster.selfish
        pool_n = data_clients * cfg.data.samples_per_client
        if cfg.data.source == "synthetic":
            full = generate_synthetic(
                cfg.model.num_classes, cfg.model.input_dim,
                pool_n + cfg.data.holdout_samples, cfg.data.separation,
                _seed_int(data_seq))
        else:
            try:
                full = load_idx(cfg.data.images_path, cfg.data.labels_path)
            except (OSError, IdxFormatError) as exc:
                raise ConfigError(f"data.images_path/labels_path: {exc}") from exc
            if cfg.model.input_dim != full.input_dim:
                raise ConfigError(
                    f"model.input_dim: {cfg.model.input_dim} != IDX image dim {full.input_dim}")
            if cfg.model.num_classes < full.num_classes:
                raise ConfigError(f"model.num_classes: {cfg.model.num_classes} < IDX label "
                                  f"classes {full.num_classes}")
            if len(full) < pool_n + cfg.data.holdout_samples:
                raise ConfigError(
                    f"data: IDX dataset has {len(full)} samples, "
                    f"need {pool_n + cfg.data.holdout_samples}")
        split_rng = np.random.default_rng(split_seq)
        order = split_rng.permutation(len(full))
        pool = full.subset(order[:pool_n])
        holdout = full.subset(order[pool_n:pool_n + cfg.data.holdout_samples])
        shards: list[Dataset] = []
        if data_clients:
            spec = PartitionSpec(data_clients, cfg.data.samples_per_client,
                                 cfg.data.mode, cfg.data.non_iid_concentration,
                                 _seed_int(part_seq))
            shards = partition(pool, spec)
        return shards[:cfg.roster.fair], shards[cfg.roster.fair:], holdout

    # -- round phases ------------------------------------------------------

    def _active_clients(self) -> list[Client]:
        """The clients the ledger has not eliminated, in id order (a client's
        id is its index in self.clients)."""
        return [self.clients[cid] for cid in self.ledger.active_ids()]

    def _consume_audits(self) -> tuple[set[int], int]:
        """Score the previous round's uploads and eliminate low contributors;
        returns the eliminated ids and the number of peer reports made."""
        targets, uploads, theta_then, theta_before = self._pending_audit
        auditors = [c.id for c in self._active_clients() if c.audit_dataset is not None]
        # rows in the order a target-major fill creates them: an auditor's
        # row starts at the first target it audits, so the first target's
        # own row goes last. contribution_step sums each target's reports in
        # this row order
        auditors.sort(key=lambda a: a == targets[0])
        # row 0 is theta_then, row j is theta_before + the j-th upload
        stack = np.vstack([theta_then, theta_before + uploads])
        scores = self._in_halves("audit", stack, auditors)
        matrix = AuditMatrix(len(self.logs), tuple(auditors), tuple(targets),
                             scores[:, :1] - scores[:, 1:])
        alpha = self.config.defense.alpha
        row_of = {a: i for i, a in enumerate(auditors)}
        for target_id, column in zip(targets, matrix.reports.T.tolist()):
            if target_id in row_of:
                del column[row_of[target_id]]  # no self-audit
            self.ledger.contributions[target_id] = contribution_step(
                self.ledger.contributions[target_id], column, alpha)
        self.last_audit_matrix = matrix
        # every auditor scores every upload; its own is not a peer report
        peer_reports = matrix.reports.size - len(row_of.keys() & targets)
        # the cutoff 1/(beta * N) counts the initial roster, so it does not
        # rise as clients are eliminated
        return eliminate_low_contributors(self.ledger, self.config.defense.beta,
                                          len(self.clients)), peer_reports

    def _rffl_score(self, ids: list[int], uploads: np.ndarray, delta: np.ndarray):
        """Cosine-reputation scores of ids[i]'s upload, row i, against this
        round's aggregate; unlike the audit defense, elimination is never suspended."""
        alpha = self.config.defense.alpha
        for cid, upload in zip(ids, uploads):
            self.ledger.contributions[cid] = cosine_contribution_step(
                self.ledger.contributions[cid], delta, upload, alpha)
        return self.ledger.eliminate_below(1.0 / (3.0 * len(self.clients)))

    TRIM_FRACTION = 0.1  # of the uploads trimmed_mean drops per side

    def _aggregate(self, uploads: np.ndarray, active: list[Client]) -> np.ndarray:
        """The global delta from the (A, d) uploads, row i being active[i]'s."""
        vectors = list(uploads)
        kind = self.config.aggregator.kind
        if kind == "fedavg":
            weights = [float(c.declared_samples) for c in active]
            return aggregation.fedavg(vectors, weights)
        if kind == "median":
            return aggregation.coordinate_median(vectors)
        if kind == "trimmed_mean":
            return aggregation.trimmed_mean(vectors, self.TRIM_FRACTION)
        # signsgd consumes gradients; uploads are update vectors, whose implied
        # pseudo-gradients -delta/eta have the signs of -delta (eta > 0)
        return aggregation.signsgd_aggregate([-v for v in vectors], self.config.eta)

    def _train_fair(self, params: np.ndarray, ids: list[int]) -> np.ndarray:
        """Train the fair clients `ids` as one stack (model.train_clients)
        from params; returns their (len(ids), d) trained parameter vectors."""
        cfg = self.config
        shards = [self.clients[cid].shard for cid in ids]
        features = np.stack([s.features for s in shards])
        labels = np.stack([s.labels for s in shards])
        if cfg.local_batch_size is None:
            perms = None
        else:
            # shuffles drawn per client from its own stream, in id order
            perms = np.stack([
                epoch_permutations(len(s), cfg.local_epochs, self.client_rngs[cid])
                for cid, s in zip(ids, shards)])
        return train_clients(params, cfg.model, features, labels, cfg.eta,
                             cfg.local_epochs, perms, cfg.local_batch_size)

    def _audit_scores(self, stack: np.ndarray, ids: list[int]) -> np.ndarray:
        """The (len(ids), len(stack)) accuracies of every row of the stack on
        each auditor's audit data, one accuracy call per auditor."""
        model = self.config.model
        return np.reshape([accuracy(stack, model, self.clients[a].audit_dataset)
                           for a in ids], (len(ids), len(stack)))

    def _run_task(self, task: str, arg, ids: list[int]) -> np.ndarray:
        """One block of a phase's rows, by task name: "train" or "audit"."""
        fn = self._train_fair if task == "train" else self._audit_scores
        return fn(arg, ids)

    def _in_halves(self, task: str, arg, ids: list[int]) -> np.ndarray:
        """The rows _run_task(task, arg, ids) gives, in ids order. While run()
        holds the round worker and there are at least two ids, the worker
        computes the rows of the second half from the state it inherited at
        fork while this process computes the first. Both tasks work per id,
        so the joined blocks are bitwise the rows of one call."""
        if self._worker is None or len(ids) < 2:
            return self._run_task(task, arg, ids)
        half = len(ids) // 2
        self._worker.submit(task, arg, ids[half:])
        return np.concatenate([self._run_task(task, arg, ids[:half]),
                               self._worker.result()])

    def _compute_updates(self, active: list[Client]) -> np.ndarray:
        """The (A, d) raw updates, row i being active[i]'s; the active fair
        clients train as one stack (in halves with the round worker), every
        other client through its compute_update. Each client draws only from
        its own streams, so the order of the two does not matter."""
        cfg = self.config
        updates = np.empty((len(active), self.dim))
        fair = [i for i, c in enumerate(active) if c.kind == "fair"]
        if fair:
            fair_ids = [active[i].id for i in fair]
            updates[fair] = self._in_halves("train", self.params, fair_ids) - self.params
        for i, c in enumerate(active):
            if c.kind != "fair":
                updates[i] = c.compute_update(self.params, self.alloc, cfg.model,
                                              cfg.eta, self.client_rngs[c.id])
        return updates

    def run_round(self) -> RoundLog:
        """Run one full round and return its log."""
        cfg = self.config
        t = len(self.logs)
        newly: set[int] = set()
        audit_reports = 0
        if self._pending_audit is not None:  # only the audit defense leaves one
            newly, audit_reports = self._consume_audits()

        active = self._active_clients()
        if not active:
            raise AllClientsEliminated("no active clients remain")

        ids = [c.id for c in active]
        uploads = np.stack([apply_privacy(update, cfg.privacy, self.privacy_rngs[cid])
                            for cid, update in zip(ids, self._compute_updates(active))])

        if self.alloc is not None and cfg.defense.kind == "pass":
            # an echoed allocation applied to prev_params reproduces params
            # bitwise, so its audit reports are exactly zero
            self._pending_audit = (ids, uploads, self.params, self.prev_params)

        delta = self._aggregate(uploads, active)
        self.prev_params = self.params
        self.params = self.params + delta
        if not np.isfinite(self.params).all():
            raise ConfigError(f"round {t}: the global parameters are no longer "
                              f"finite (eta {cfg.eta})")
        self.alloc = delta

        if cfg.defense.kind == "rffl":
            newly |= self._rffl_score(ids, uploads, delta)

        if cfg.defense.kind == "pass" and t >= 1:
            comm = comm_cost(len(active), cfg.privacy.prune_rate, self.dim)
        else:
            comm = len(active) * self.dim

        log = RoundLog(
            round=t,
            global_accuracy=accuracy(self.params, cfg.model, self.holdout),
            contributions=dict(self.ledger.contributions),
            newly_eliminated=tuple(sorted(newly)),
            n_active=len(active),
            comm_scalars=comm,
            audit_reports=audit_reports,
        )
        self.logs.append(log)
        return log

    def run(self) -> ExperimentResult:
        """Run every round. Where _splits_training allows, one forked worker
        trains half of the fair stack and scores half of the auditors each
        round; it is joined, and this process's CPU mask restored, before
        run() returns or raises."""
        if _splits_training(self.config):
            self._worker = _ForkedWorker("round worker", self._run_task)
        try:
            for _ in range(self.config.rounds):
                try:
                    self.run_round()
                except AllClientsEliminated:
                    self.halted_early = True
                    break
        finally:
            if self._worker is not None:
                self._worker.close()
                self._worker = None
        return ExperimentResult(
            config=self.config,
            rounds=tuple(self.logs),
            fair_ids=self.fair_ids,
            fr_ids=self.fr_ids,
            eliminated=tuple(sorted(self.ledger.eliminated)),
            dsr=defense_success_rate(self.ledger.eliminated, set(self.fr_ids)),
            fpr=false_positive_rate(self.ledger.eliminated, set(self.fair_ids)),
            total_comm_scalars=sum(log.comm_scalars for log in self.logs),
            halted_early=self.halted_early,
        )


def _can_fork() -> bool:
    """Whether a run may fork a worker for half of its independent work: on
    Linux, with at least two CPUs usable by this process and no other Python
    thread (fork copies only the calling thread). `taskset -c 0` keeps every
    run serial."""
    return (sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _splits_training(config: ExperimentConfig) -> bool:
    """Whether Simulation.run() forks the round worker, which trains half of
    each round's fair stack and scores half of its auditors: where _can_fork
    allows, for full-batch training (minibatch shuffles draw from the
    parent's client streams) and at least two fair clients."""
    return _can_fork() and config.local_batch_size is None and config.roster.fair >= 2


# bound at import, so that pinning reads and restores the mask the kernel
# holds even where os.sched_getaffinity is replaced (tests replace it to
# force a split on or off)
_cpu_mask = getattr(os, "sched_getaffinity", None)


class _ForkedWorker:
    """A forked process that calls `fn` on request.

    It inherits the caller's state at fork, so a request carries only fn's
    arguments, and a reply only its result (or a traceback). Until close(),
    the worker runs on one CPU of this process's mask and this process on the
    rest, so the two halves of a split never share a CPU; close() joins the
    worker and restores the mask. Closing the parent's end of the pipe ends
    the worker: its next receive reads EOF, or its reply meets a broken pipe.
    """

    def __init__(self, name: str, fn):
        import multiprocessing  # on first use, so that importing and building stay cheap
        ctx = multiprocessing.get_context("fork")
        self.name = name
        self.mask = _cpu_mask(0)
        cpu = max(self.mask) if len(self.mask) >= 2 else None
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(target=self._serve, args=(fn, child_conn, cpu))
        self.process.start()
        child_conn.close()
        if cpu is not None:
            os.sched_setaffinity(0, self.mask - {cpu})

    def _serve(self, fn, conn, cpu: int | None) -> None:
        self.conn.close()  # the parent's end, inherited at fork
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        try:
            while True:
                args = conn.recv()
                try:
                    reply = (True, fn(*args))
                except Exception:  # reported to the parent, which raises it
                    reply = (False, traceback.format_exc())
                conn.send(reply)
        except (EOFError, BrokenPipeError):
            return

    def submit(self, *args) -> None:
        self.conn.send(args)

    def result(self):
        try:
            ok, value = self.conn.recv()
        except EOFError:
            self.process.join()
            raise RuntimeError(f"{self.name} exited with code "
                               f"{self.process.exitcode}") from None
        if not ok:
            raise RuntimeError(f"{self.name} failed:\n{value}")
        return value

    def close(self) -> None:
        try:
            self.conn.close()
            self.process.join()
        finally:
            os.sched_setaffinity(0, self.mask)


def _map_halves(name: str, fn, items: list) -> list:
    """fn(items), where fn maps a list to a list item by item. Where _can_fork
    allows and there are at least two items, one forked worker computes fn of
    the second half while this process computes the first; the halves are
    joined in item order. The worker is joined, and this process's CPU mask
    restored, before this returns or raises."""
    if len(items) < 2 or not _can_fork():
        return fn(items)
    half = len(items) // 2
    worker = _ForkedWorker(name, fn)
    try:
        worker.submit(items[half:])
        return fn(items[:half]) + worker.result()
    finally:
        worker.close()


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Validate, build, and run one experiment; deterministic per seed."""
    return Simulation(config).run()


def run_experiments(configs: list[ExperimentConfig]) -> list[ExperimentResult]:
    """run_experiment on each config, results in input order. The runs are
    independent, each seeded only from its config, so where _can_fork allows
    one forked worker runs the second half of them (_map_halves), bitwise as
    a serial loop."""
    return _map_halves("experiment worker",
                       lambda cfgs: [run_experiment(cfg) for cfg in cfgs], configs)


# -- parameter sweeps ------------------------------------------------------

# the config section and field each swept key sets; fr_count sets the
# roster's one free-rider kind
SWEEPABLE = {"beta": ("defense", "beta"),
             "gamma": ("privacy", "prune_rate"),
             "noise_variance": ("privacy", "noise_variance"),
             "fr_count": ("roster", None)}


def sweep_experiment(base: ExperimentConfig, sweep: dict) -> list[dict]:
    """Run the cartesian grid over any of beta / gamma / noise_variance /
    fr_count; one result row per combination, base seed reused throughout.
    Each swept list must meet its field's type and rule, element by element."""
    unknown = set(sweep) - set(SWEEPABLE)
    if unknown:
        raise ConfigError(f"sweep: unknown keys {sorted(unknown)}")
    if not sweep:
        raise ConfigError("sweep: at least one swept parameter required")
    keys = [k for k in SWEEPABLE if k in sweep]
    targets = {key: SWEEPABLE[key] for key in keys}
    if "fr_count" in targets:
        riders = [k for k in CLIENT_KINDS[1:] if getattr(base.roster, k) > 0]
        if len(riders) != 1:
            raise ConfigError(
                "sweep.fr_count: roster must have exactly one free-rider kind to sweep")
        targets["fr_count"] = ("roster", riders[0])
    for key, (section, name) in targets.items():
        values, cls = sweep[key], type(getattr(base, section))
        kind = cls.__dataclass_fields__[name].type
        problem = value_problem(f"sweep.{key}", f"tuple[{kind}, ...]", None, values)
        if problem or not values:
            raise ConfigError(problem or f"sweep.{key}: must be a list of at least one value")
        for value in values:
            for problem in field_problems(cls, {name: value}, f"{section}."):
                raise ConfigError(problem)
    plan = []  # every combination is built and validated before the first run
    for combo in itertools.product(*(sweep[k] for k in keys)):
        cfg = base
        named = dict(zip(keys, combo))
        for key, value in named.items():
            section, name = targets[key]
            cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})
        cfg.validate()
        plan.append((named, cfg))
    rows = []
    for (named, _), result in zip(plan, run_experiments([cfg for _, cfg in plan])):
        row = dict(named)
        row.update(
            dsr=result.dsr, fpr=result.fpr,
            final_accuracy=result.final_accuracy,
            total_comm_scalars=result.total_comm_scalars,
            eliminated_count=len(result.eliminated),
        )
        rows.append(row)
    return rows


# -- gradient-leakage evaluation -------------------------------------------

@dataclass(frozen=True)
class DLGCell:
    noise_variance: float
    prune_rate: float
    median_mse: float
    defended: bool
    instances: int
    diverged: int
    source: str = "simulated"


def _draw_instance(cfg: DLGExperimentConfig, seq: np.random.SeedSequence):
    """Draw one grid instance from its own seed sequence: its raw batch, its
    model parameters, the observed gradient of every cell in (noise
    variance, prune rate) order, and the seed of its dummy initialization;
    `seq` is left unchanged, so it always draws the same instance."""
    model = cfg.model
    d = param_count(model)
    rng = np.random.default_rng(seq)
    init_seq, _, dummy_seq = np.random.SeedSequence(
        seq.entropy, spawn_key=seq.spawn_key, pool_size=seq.pool_size).spawn(3)
    params = init_params(model, _seed_int(init_seq))
    features = rng.uniform(0.0, 1.0, (cfg.batch_samples, cfg.input_dim))
    labels = rng.integers(0, cfg.num_classes, cfg.batch_samples)
    raw = Dataset(features, labels, cfg.num_classes)
    gradient = backward(params, model, raw)
    noise_direction = rng.standard_normal(d)
    masks = {pr: rng.choice(d, size=int(round(pr * d)), replace=False)
             for pr in cfg.prune_rates}
    observed = []
    for nv in cfg.noise_variances:
        for pr in cfg.prune_rates:
            cell = gradient + np.sqrt(nv) * noise_direction
            cell[masks[pr]] = 0.0
            observed.append(cell)
    return raw, params, observed, _seed_int(dummy_seq)


def _solve_instances(cfg: DLGExperimentConfig,
                     seqs: list[np.random.SeedSequence]) -> list[list[float | None]]:
    """Attack every cell of each instance, all (instance, cell) problems in
    one lockstep batch (reconstruct_batch): per instance, the reconstruction
    MSE per cell, or None where the attack diverged."""
    instances = [_draw_instance(cfg, seq) for seq in seqs]
    cells = len(cfg.noise_variances) * len(cfg.prune_rates)
    recs = reconstruct_batch(
        cfg.model, np.repeat([params for _, params, _, _ in instances], cells, axis=0),
        np.array([cell for _, _, observed, _ in instances for cell in observed]),
        (cfg.batch_samples, cfg.input_dim), cfg.iterations,
        [seed for *_, seed in instances for _ in range(cells)])
    return [[None if rec.diverged else reconstruction_mse(raw, rec.batch)
             for rec in recs[i * cells:(i + 1) * cells]]
            for i, (raw, *_) in enumerate(instances)]


def run_dlg_experiment(cfg: DLGExperimentConfig) -> list[DLGCell]:
    """Reconstruction MSE per (noise variance, prune rate) cell.

    Each instance draws one model/batch/noise-direction/prune-mask set that
    is shared across all cells (common random numbers), so cells differ only
    by the transform strengths. A cell is defended when its median MSE
    exceeds DEFENDED_MSE_THRESHOLD.

    Instances are independent, each seeded only from its own SeedSequence,
    so where _can_fork allows one forked worker solves the second half of
    them (_map_halves): every cell's MSEs, median and diverged count are
    bitwise those of one process. Each process solves all the (instance,
    cell) problems of its half in lockstep on stacked `setulb` workspaces
    (_solve_instances), bitwise equal to one dlg_reconstruct per problem.
    """
    results = _map_halves("leakage grid worker", lambda seqs: _solve_instances(cfg, seqs),
                          np.random.SeedSequence(cfg.seed).spawn(cfg.instances))

    keys = [(nv, pr) for nv in cfg.noise_variances for pr in cfg.prune_rates]
    cells = []
    for (nv, pr), column in zip(keys, zip(*results)):
        vals = [mse for mse in column if mse is not None]
        median = float(np.median(vals)) if vals else float("nan")
        cells.append(DLGCell(
            noise_variance=nv, prune_rate=pr, median_mse=median,
            defended=bool(median > DEFENDED_MSE_THRESHOLD),
            instances=len(vals), diverged=len(column) - len(vals)))
    return cells
