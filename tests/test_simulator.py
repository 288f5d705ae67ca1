"""Round orchestration: allocation, audits, elimination, aggregation, logging."""

import copy
import json
import math
import multiprocessing
import os
import struct
from dataclasses import fields, is_dataclass, replace
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import pytest

from fedaudit.aggregation import fedavg
from fedaudit.clients import AnonymousFreeRider, DisguisedFreeRider, SelfishFreeRider
from fedaudit.config import (CLIENT_KINDS, AggregatorConfig, ConfigError, DataConfig,
                             DefenseSettings, ExperimentConfig, RosterConfig,
                             config_from_dict)
from fedaudit.data import generate_synthetic, partition, PartitionSpec
from fedaudit.defense import AuditMatrix, contribution_step
from fedaudit.model import (ModelConfig, epoch_permutations, init_params, param_count,
                            train_clients)
from fedaudit import simulator
from fedaudit.privacy import PrivacyConfig
from fedaudit.reporting import (dlg_csv_text, dlg_json_text, json_text, result_json_text,
                                rounds_csv_text, sweep_csv_text)
from fedaudit.scenarios import standard_config
from fedaudit.simulator import (DLGExperimentConfig, Simulation, _ForkedWorker,
                                comm_cost, run_dlg_experiment, run_experiment,
                                run_experiments, sweep_experiment)
from oracles import audit_peer_update


def single_client_update(params, cfg, shard, perms=None):
    """The oracle for one slice of the fair stack: the shard trained alone
    (C = 1), with the epoch shuffles in perms under minibatch SGD."""
    trained = train_clients(params, cfg.model, shard.features[None], shard.labels[None],
                            cfg.eta, cfg.local_epochs, perms, cfg.local_batch_size)
    return trained[0] - params


def tiny_config(**overrides):
    base = dict(
        seed=0, rounds=6, eta=0.1, local_epochs=3,
        model=ModelConfig(3, (), 3),
        data=DataConfig(source="synthetic", separation=2.0,
                        samples_per_client=20, holdout_samples=60),
        roster=RosterConfig(fair=4, plain=1),
        aggregator=AggregatorConfig("fedavg"),
        defense=DefenseSettings(kind="pass"),
        privacy=PrivacyConfig(0.0, 0.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def halting_simulation(**overrides):
    """A cosine-defense run whose scoring eliminates every active client:
    round 0 removes them all and round 1 halts."""
    sim = Simulation(tiny_config(defense=DefenseSettings(kind="rffl"), rounds=5,
                                 **overrides))
    sim._rffl_score = lambda uploads, delta: sim.ledger.eliminate_below(math.inf)
    return sim


class TestRoundMechanics:
    def test_round_zero_no_eliminations(self):
        sim = Simulation(tiny_config())
        log = sim.run_round()
        assert log.round == 0
        assert log.newly_eliminated == ()
        assert all(c == 1 / 5 for c in log.contributions.values())

    def test_first_contribution_update_in_round_two(self):
        # round-0 uploads have no allocated transition and are never audited
        sim = Simulation(tiny_config())
        logs = [sim.run_round() for _ in range(3)]
        c0 = 1 / 5
        assert all(v == c0 for v in logs[0].contributions.values())
        assert all(v == c0 for v in logs[1].contributions.values())
        assert any(v != c0 for v in logs[2].contributions.values())

    def test_all_fair_reduction_to_plain_fedavg(self):
        cfg = tiny_config(roster=RosterConfig(fair=5), defense=DefenseSettings(kind="none"))
        result = run_experiment(cfg)

        # independent plain-FedAvg oracle sharing only the seeded world build
        sim = Simulation(cfg)
        params = sim.params.copy()
        shards = [c.shard for c in sim.clients]
        weights = [float(len(s)) for s in shards]
        for _ in range(cfg.rounds):
            updates = [single_client_update(params, cfg, s) for s in shards]
            params = params + fedavg(updates, weights)
        oracle = Simulation(cfg)
        for _ in range(cfg.rounds):
            oracle.run_round()
        assert np.array_equal(oracle.params, params)

    def test_minibatch_fair_stack_equals_each_clients_compute_update(self):
        # under minibatch SGD each slice of the simulator's fair stack must
        # equal the client trained alone on shuffles from the same stream point
        cfg = replace(standard_config(fair=4, plain=1, seed=4, rounds=2, local_epochs=3),
                      local_batch_size=25)
        sim = Simulation(cfg)
        sim.run_round()
        active = sim._active_clients()
        fair = [c for c in active if c.kind == "fair"]
        rngs = {c.id: copy.deepcopy(sim.client_rngs[c.id]) for c in fair}
        updates = sim._compute_updates(active)
        assert len(fair) == 4
        for c in fair:
            perms = epoch_permutations(len(c.shard), cfg.local_epochs, rngs[c.id])
            own = single_client_update(sim.params, cfg, c.shard, perms[None])
            assert updates[c.id].tobytes() == own.tobytes()

    def test_plain_fr_eliminated_by_round_50(self):
        cfg = standard_config(fair=10, plain=5, seed=0, rounds=50)
        result = run_experiment(cfg)
        assert set(result.fr_ids) <= set(result.eliminated)
        assert result.dsr == 100.0

    def test_eliminated_client_stops_uploading(self):
        cfg = standard_config(fair=6, plain=2, seed=1, rounds=30)
        sim = Simulation(cfg)
        result = sim.run()
        elim_round = {cid: log.round for log in result.rounds
                      for cid in log.newly_eliminated}
        assert elim_round, "expected at least one elimination"
        # active counts shrink exactly when eliminations land
        for log in result.rounds:
            expected = len(sim.clients) - sum(1 for r in elim_round.values()
                                              if r <= log.round)
            assert log.n_active == expected

    @pytest.mark.parametrize("roster", [RosterConfig(fair=4, plain=1),
                                        RosterConfig(fair=2)],
                             ids=["five_clients", "two_clients"])
    def test_halts_when_everyone_eliminated(self, roster):
        # the cosine defense never suspends elimination: two clients are
        # both removed in round 0, below PASS's minimum of three active
        result = halting_simulation(roster=roster).run()
        assert result.halted_early
        assert len(result.rounds) < 5
        assert result.rounds[0].newly_eliminated == tuple(range(roster.total))
        assert set(result.eliminated) == set(range(roster.total))

    def test_metric_consistency(self):
        cfg = standard_config(fair=6, plain=3, seed=2, rounds=40)
        result = run_experiment(cfg)
        union = set()
        for log in result.rounds:
            union |= set(log.newly_eliminated)
        assert union == set(result.eliminated)
        fr, fair = set(result.fr_ids), set(result.fair_ids)
        if result.dsr is not None:
            assert result.dsr == 100.0 * len(union & fr) / len(fr)
        assert result.fpr == 100.0 * len(union & fair) / len(fair)

    def test_fr_ratio_percent(self):
        assert run_experiment(tiny_config(
            roster=RosterConfig(fair=10, plain=5), rounds=1)).fr_ratio_percent == 33
        assert run_experiment(tiny_config(
            roster=RosterConfig(fair=10, plain=1), rounds=1)).fr_ratio_percent == 9
        assert run_experiment(tiny_config(
            roster=RosterConfig(fair=10, plain=15), rounds=1)).fr_ratio_percent == 60


class TestCommAccounting:
    def test_per_round_formula(self):
        assert comm_cost(3, 0.0, 10) == 3 * 10 + 3 * 2 * 10 == 90

    def test_prune_limit_recovers_plain_fl_order(self):
        assert comm_cost(4, 0.999999, 10) == 4 * 10  # peer cost vanishes

    def test_pruned_peer_payload(self):
        per_peer = (comm_cost(2, 0.9, 100) - 2 * 100) // 2
        assert per_peer == 10

    def test_logged_totals_match_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            fair = int(rng.integers(3, 7))
            plain = int(rng.integers(0, 3))
            rounds = int(rng.integers(3, 9))
            gamma = float(rng.choice([0.0, 0.5, 0.9]))
            cfg = tiny_config(roster=RosterConfig(fair=fair, plain=plain),
                              rounds=rounds, privacy=PrivacyConfig(0.0, gamma))
            result = run_experiment(cfg)
            d = param_count(cfg.model)
            expected = 0
            for log in result.rounds:
                if log.round == 0:
                    expected += log.n_active * d
                else:
                    expected += comm_cost(log.n_active, gamma, d)
            assert result.total_comm_scalars == expected

    def test_non_audit_defenses_pay_global_payload_only(self):
        cfg = tiny_config(defense=DefenseSettings(kind="none"), rounds=3,
                          privacy=PrivacyConfig(0.0, 0.9))
        result = run_experiment(cfg)
        d = param_count(cfg.model)
        assert all(log.comm_scalars == log.n_active * d for log in result.rounds)


class TestDeterminism:
    def test_byte_identical_csv(self):
        cfg = standard_config(fair=5, plain=2, seed=3, rounds=12)
        a = rounds_csv_text(run_experiment(cfg))
        b = rounds_csv_text(run_experiment(cfg))
        assert a == b

    def test_seed_changes_output(self):
        a = run_experiment(standard_config(fair=4, plain=1, seed=0, rounds=4))
        b = run_experiment(standard_config(fair=4, plain=1, seed=1, rounds=4))
        assert a.accuracy_curve != b.accuracy_curve


class TestConfigValidation:
    def test_beta_below_one_rejected_before_running(self):
        with pytest.raises(ConfigError, match="defense.beta"):
            run_experiment(tiny_config(defense=DefenseSettings(kind="pass", beta=0.5)))

    def test_unknown_aggregator(self):
        with pytest.raises(ConfigError, match="aggregator.kind"):
            run_experiment(tiny_config(aggregator=AggregatorConfig("krum")))

    def test_field_paths_enumerated(self):
        cfg = tiny_config(rounds=0, eta=-1.0,
                          defense=DefenseSettings(kind="pass", beta=0.2))
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        message = str(err.value)
        assert "rounds:" in message and "eta:" in message and "defense.beta:" in message

    @pytest.mark.parametrize("section, name", [
        ("data", "separation"), ("data", "non_iid_concentration"),
        ("defense", "beta"), ("defense", "initial_contribution"),
        ("privacy", "noise_variance")])
    def test_nan_field_rejected_from_library_code(self, section, name):
        # PrivacyConfig checks its fields when it is built, so its problem
        # carries no section path; validate names the others'
        path = name if section == "privacy" else f"{section}.{name}"
        base = tiny_config()
        with pytest.raises(ConfigError, match=f"{path}: must be a finite number"):
            replace(base, **{section: replace(getattr(base, section),
                                              **{name: float("nan")})}).validate()

    def test_unknown_keys_in_dict(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"rounds": 3, "bogus": 1})
        with pytest.raises(ConfigError, match="defense"):
            config_from_dict({"defense": {"kind": "pass", "gamma": 0.9}})

    def test_settable_config_values_are_pinned(self):
        # each top-level scalar and each section field is one settable value;
        # adding or removing a knob is a declared edit of this count
        hints = get_type_hints(ExperimentConfig)
        assert sum(len(fields(hint)) if is_dataclass(hint) else 1
                   for hint in hints.values()) == 28

    def test_absent_sections_keep_the_documented_defaults(self):
        assert config_from_dict({}) == ExperimentConfig()
        assert config_from_dict({"seed": 3}).privacy == PrivacyConfig(1e-2, 0.9)

    def test_synthetic_data_takes_the_models_shape(self):
        sim = Simulation(tiny_config(model=ModelConfig(5, (), 4)))
        for dataset in [sim.holdout] + [c.shard for c in sim.clients if c.kind == "fair"]:
            assert (dataset.input_dim, dataset.num_classes) == (5, 4)


class TestAggregatorPaths:
    @pytest.mark.parametrize("kind", ["median", "trimmed_mean", "signsgd"])
    def test_robust_aggregators_run(self, kind):
        cfg = tiny_config(aggregator=AggregatorConfig(kind), rounds=3)
        result = run_experiment(cfg)
        assert len(result.rounds) == 3
        assert np.isfinite(result.final_accuracy)


class TestIdxSource:
    def test_idx_data_through_simulator(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 255, (260, 2, 3), dtype=np.uint8)
        labels = rng.integers(0, 3, 260)
        img_path, lab_path = tmp_path / "img", tmp_path / "lab"
        with open(img_path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 260, 2, 3))
            fh.write(images.tobytes())
        with open(lab_path, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 260))
            fh.write(bytes(int(v) for v in labels))
        cfg = tiny_config(
            model=ModelConfig(6, (), 3),
            data=DataConfig(source="idx", images_path=str(img_path),
                            labels_path=str(lab_path), samples_per_client=50,
                            holdout_samples=60),
            rounds=2)
        result = run_experiment(cfg)
        assert len(result.rounds) == 2


class TestSweep:
    def test_beta_sweep_rows(self):
        base = tiny_config(rounds=3)
        rows = sweep_experiment(base, {"beta": [1.0, 1.75, 3.0]})
        assert len(rows) == 3
        assert [row["beta"] for row in rows] == [1.0, 1.75, 3.0]
        assert all("dsr" in row and "fpr" in row for row in rows)

    def test_grid_is_cartesian(self):
        base = tiny_config(rounds=2)
        rows = sweep_experiment(base, {"beta": [1.0, 2.0], "gamma": [0.0, 0.5]})
        assert len(rows) == 4

    def test_fr_count_sweep(self):
        base = tiny_config(rounds=2, roster=RosterConfig(fair=4, plain=1))
        rows = sweep_experiment(base, {"fr_count": [1, 3]})
        assert [row["fr_count"] for row in rows] == [1, 3]

    def test_each_sweep_key_sets_its_own_field(self, cpus, monkeypatch):
        cpus({0})  # a forked worker's runs would not reach the patch
        ran = []

        def fake_run(cfg):
            ran.append(cfg)
            return SimpleNamespace(dsr=None, fpr=None, final_accuracy=0.0,
                                   total_comm_scalars=0, eliminated=())

        monkeypatch.setattr("fedaudit.simulator.run_experiment", fake_run)
        base = tiny_config(roster=RosterConfig(fair=4, anonymous=1))
        sweep_experiment(base, {"beta": [1.5, 2.5], "gamma": [0.25],
                                "noise_variance": [0.125], "fr_count": [3]})
        privacy = replace(base.privacy, prune_rate=0.25, noise_variance=0.125)
        assert ran == [replace(base, defense=replace(base.defense, beta=beta),
                               privacy=privacy, roster=replace(base.roster, anonymous=3))
                       for beta in (1.5, 2.5)]

    def test_unknown_sweep_key_rejected(self):
        with pytest.raises(ConfigError, match="sweep"):
            sweep_experiment(tiny_config(), {"epsilon": [1]})


class TestDlgGrid:
    def test_grid_shape_and_flags(self):
        cfg = DLGExperimentConfig(noise_variances=(0.0, 1e-1), prune_rates=(0.0,),
                                  instances=3, iterations=60, input_dim=4,
                                  num_classes=2, seed=0)
        cells = run_dlg_experiment(cfg)
        assert len(cells) == 2
        for cell in cells:
            assert cell.defended == (cell.median_mse > 1.49)
            assert cell.instances + cell.diverged == 3

    @pytest.mark.parametrize("nv", [float("nan"), float("inf"), -1.0])
    def test_noise_variances_must_be_finite_and_non_negative(self, nv):
        with pytest.raises(ValueError, match="noise_variances: must be a list of finite "
                                             "numbers >= 0"):
            DLGExperimentConfig(noise_variances=(0.0, nv))

    @pytest.mark.parametrize("seed", [-1, 1.0, True])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed: must be an integer >= 0"):
            DLGExperimentConfig(seed=seed)

    def test_grid_deterministic(self):
        cfg = DLGExperimentConfig(noise_variances=(1e-2,), prune_rates=(0.5,),
                                  instances=2, iterations=40, input_dim=4,
                                  num_classes=2, seed=5)
        a = run_dlg_experiment(cfg)
        b = run_dlg_experiment(cfg)
        assert a == b

    def test_drawing_an_instance_leaves_its_sequence(self):
        cfg = tiny_grid(1)
        seqs = np.random.SeedSequence(cfg.seed).spawn(2)
        first, again = (simulator._draw_instance(cfg, seqs[0]) for _ in range(2))
        raw, params, observed, seed = first
        assert seqs[0].n_children_spawned == 0
        assert raw.features.tobytes() == again[0].features.tobytes()
        assert np.array_equal(raw.labels, again[0].labels)
        assert params.tobytes() == again[1].tobytes()
        assert np.array(observed).tobytes() == np.array(again[2]).tobytes()
        assert seed == again[3]
        # so solving the same sequences twice gives the same MSEs
        assert simulator._solve_instances(cfg, seqs) == simulator._solve_instances(cfg, seqs)

    def test_json_is_strict_with_null_for_non_finite(self, monkeypatch):
        # the Soteria reference rows have no noise variance and a cell whose
        # every instance diverged has no median: both NaN, both written null
        reconstruct = simulator.reconstruct_batch

        def diverge_when_pruned(model, params, observed, shape, iterations, seeds):
            recs = reconstruct(model, params, observed, shape, iterations, seeds)
            return [rec._replace(diverged=True) if (row == 0).any() else rec
                    for row, rec in zip(observed, recs)]
        monkeypatch.setattr(simulator, "reconstruct_batch", diverge_when_pruned)
        cells = run_dlg_experiment(tiny_grid(2))

        def reject(constant):
            raise ValueError(f"bare {constant} in the JSON")
        rows = json.loads(dlg_json_text(cells), parse_constant=reject)
        soteria = [r for r in rows if r["source"] == "published_soteria_reference"]
        assert [r["noise_variance"] for r in soteria] == [None] * 10
        simulated = [r for r in rows if r["source"] == "simulated"]
        assert [(r["prune_rate"], r["diverged"]) for r in simulated] == [
            (0.0, 0), (0.5, 2)] * 2
        for row in simulated:
            assert (row["median_mse"] is None) == (row["prune_rate"] == 0.5)


class TestAuditMatrix:
    def test_audit_causality_and_shape(self):
        # audits consumed at round t cover uploads from round t-1; no
        # self-reports; only data-holding auditors contribute rows
        cfg = standard_config(fair=4, plain=2, seed=0, rounds=4, local_epochs=3)
        sim = Simulation(cfg)
        sim.run_round()
        sim.run_round()
        assert sim.last_audit_matrix is None  # round-0 uploads are unaudited
        sim.run_round()
        matrix = sim.last_audit_matrix
        assert matrix.round == 2
        fair_ids = set(sim.fair_ids)
        assert set(matrix.entries) == fair_ids  # free riders hold no data
        for auditor, row in matrix.entries.items():
            assert auditor not in row
            assert set(row) == {c.id for c in sim.clients} - {auditor}

    def test_reports_summed_in_entries_order_first_auditor_last(self, monkeypatch):
        # the matrix is filled target-major, so target 0's auditors enter
        # `entries` first and auditor 0 last: every target's reports reach
        # contribution_step in the order [1, 2, 3, 6, 0], not in auditor
        # order. Summing in auditor order moves the minibatch golden.
        cfg = standard_config(fair=4, plain=2, selfish=1, seed=1, rounds=3,
                              local_epochs=5)
        sim = Simulation(cfg)
        sim.run_round()
        sim.run_round()
        uploads, theta_then, theta_before = sim._pending_audit
        shards = {c.id: c.audit_dataset for c in sim.clients
                  if c.audit_dataset is not None}
        assert list(shards) == [0, 1, 2, 3, 6]
        received = []
        monkeypatch.setattr(
            "fedaudit.simulator.contribution_step",
            lambda c, reports, alpha: received.append(list(reports))
            or contribution_step(c, reports, alpha))
        sim.run_round()
        assert list(sim.last_audit_matrix.entries) == [1, 2, 3, 6, 0]

        def reports(order):
            return [[audit_peer_update(shards[a], cfg.model, theta_then,
                                       theta_before, uploads[target])
                     for a in order if a != target] for target in uploads]

        assert received == reports([1, 2, 3, 6, 0])
        assert received != reports([0, 1, 2, 3, 6])  # the two orders differ here

    @pytest.mark.parametrize("roster, out_after_round_1, targets_seen", [
        # selfish riders hold public data, so they audit too
        (dict(fair=4, plain=1, selfish=2), set(), [(0, 7)] * 3),
        # with the fair clients out, the selfish riders audit the plain
        # rider first; the round before, their first target is out
        (dict(fair=4, plain=1, selfish=2), {0, 1, 2, 3}, [(0, 7), (4, 3), (4, 3)]),
        # one fair client left: its only audited upload is its own
        (dict(fair=3, plain=1), {1, 2, 3}, [(0, 4), (0, 1), (0, 1)]),
    ], ids=["all_active", "first_target_out", "own_upload_only"])
    def test_stacked_audit_equals_per_pair_reports(self, roster, out_after_round_1,
                                                   targets_seen):
        # every report must equal the one-pair reference, with rows and items
        # in the reference's insertion order, empty rows absent
        cfg = standard_config(**roster, seed=3, rounds=5, local_epochs=2)
        sim = Simulation(cfg)
        selfish = {c.id for c in sim.clients if c.kind == "selfish"}
        seen = []
        for t in range(cfg.rounds):
            if t == 2:
                sim.ledger.eliminated |= out_after_round_1
            pending = sim._pending_audit
            auditors = [c for c in sim._active_clients()
                        if c.audit_dataset is not None]
            log = sim.run_round()
            if pending is None:
                assert log.audit_reports == 0
                continue
            uploads, theta_then, theta_before = pending
            seen.append((next(iter(uploads)), len(uploads)))
            expected = {}
            for target_id, upload in uploads.items():
                for a in auditors:
                    if a.id != target_id:
                        row = expected.setdefault(a.id, {})
                        row[target_id] = audit_peer_update(
                            a.audit_dataset, cfg.model, theta_then, theta_before, upload)
            entries = sim.last_audit_matrix.entries
            assert log.audit_reports == sum(len(row) for row in entries.values())
            assert selfish <= set(entries)
            assert list(entries) == list(expected)
            for auditor, row in expected.items():
                assert list(entries[auditor].items()) == list(row.items())
        assert seen == targets_seen

    def test_entries_is_a_read_only_view_of_the_report_array(self):
        # rows and items in array order, the self-audit dropped, and no row
        # for an auditor whose only target is itself
        matrix = AuditMatrix(4, (1, 0), (0, 1), np.array([[0.25, 0.0], [0.5, -0.125]]))
        assert list(matrix.entries.items()) == [(1, {0: 0.25}), (0, {1: -0.125})]
        assert AuditMatrix(4, (0,), (0,), np.zeros((1, 1))).entries == {}
        assert AuditMatrix(round=4).entries == {}
        with pytest.raises(AttributeError):
            matrix.entries = {}

    def test_audit_wide_tiny_shape_report_count(self):
        # uploads of round t are audited in round t + 1; round-0 uploads never
        # are, and no client can be eliminated with contributions from 1.0
        cfg = standard_config(fair=6, plain=2, seed=0, rounds=4, local_epochs=5)
        cfg = replace(cfg, defense=replace(cfg.defense, initial_contribution=1.0))
        result = run_experiment(cfg)
        assert not result.eliminated
        assert (sum(log.audit_reports for log in result.rounds)
                == (cfg.rounds - 2) * cfg.roster.fair * (cfg.roster.total - 1))

    @pytest.mark.parametrize("defense", ["rffl", "none"])
    def test_no_reports_without_the_audit_defense(self, defense):
        result = run_experiment(standard_config(fair=3, plain=1, seed=0, rounds=3,
                                                defense=defense, local_epochs=2))
        assert [log.audit_reports for log in result.rounds] == [0, 0, 0]


class TestRoster:
    def test_simulator_builds_the_roster_in_kind_order_with_class_defaults(self):
        cfg = standard_config(fair=2, plain=1, disguised=2, anonymous=1, selfish=2)
        clients = Simulation(cfg).clients
        kinds = [c.kind for c in clients]
        assert kinds == [kind for kind in CLIENT_KINDS
                         for _ in range(getattr(cfg.roster, kind))]
        assert [c.id for c in clients] == list(range(len(clients)))
        # every client carries the fair FedAvg weight, forged or real
        assert {c.declared_samples for c in clients} == {cfg.data.samples_per_client}
        # every rider attacks with its class's reference strength
        adam = {"ADAM_LR": 0.015, "ADAM_DECAY": 0.997}
        strengths = {DisguisedFreeRider: {"NOISE_VARIANCE": 1e-2},
                     AnonymousFreeRider: {**adam, "INIT_NOISE_VARIANCE": 1e-2},
                     SelfishFreeRider: {**adam, "PRETRAIN_EPOCHS": 5}}
        for c in clients:
            for name, value in strengths.get(type(c), {}).items():
                assert getattr(c, name) == value


class TestOtherRiderVariants:
    def test_disguised_and_anonymous_riders_eliminated(self):
        # noisy echoes and Adam-evolved echoes carry no more audit signal
        # than plain ones; the defense removes all of them
        for seed in (0, 1):
            cfg = standard_config(fair=8, disguised=2, anonymous=2, seed=seed,
                                  rounds=45)
            result = run_experiment(cfg)
            assert result.dsr == 100.0
            kinds = {c.id: c.kind for c in Simulation(cfg).clients}
            assert {kinds[i] for i in result.fr_ids} == {"disguised", "anonymous"}


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs this process may use, as Simulation.run() sees them."""
    def use(ids):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(ids))
    return use


@pytest.fixture
def submits(monkeypatch):
    """The (task, ids) sent to the round worker, in order: the fair client
    ids it trains ("train") and the auditor ids it scores ("audit")."""
    sent = []
    submit = _ForkedWorker.submit

    def record(self, task, arg, ids):
        sent.append((task, list(ids)))
        return submit(self, task, arg, ids)
    monkeypatch.setattr(_ForkedWorker, "submit", record)
    return sent


def trained(submits):
    """The fair client ids of each training request, in order."""
    return [ids for task, ids in submits if task == "train"]


class TestTrainingWorker:
    @pytest.mark.parametrize("cfg", [
        # 4 fair clients, then 3 after round 15, then 1 from round 19 on:
        # the worker takes 2, then 2 of 3, then nothing
        standard_config(fair=4, plain=1, seed=0, rounds=22),
        standard_config(fair=4, plain=1, seed=2, rounds=12, defense="rffl"),
    ], ids=["pass_shrinking", "rffl"])
    def test_split_run_equals_serial(self, cpus, submits, cfg):
        cpus({0})
        serial = run_experiment(cfg)
        assert submits == []
        cpus({0, 1})
        split = run_experiment(cfg)
        assert {len(ids) for ids in trained(submits)} == {2}
        assert result_json_text(split) == result_json_text(serial)
        if cfg.defense.kind == "pass":
            # the audit defense eliminates before a round trains
            out, stacks = set(), []
            for log in serial.rounds:
                out |= set(log.newly_eliminated)
                stacks.append(len(set(serial.fair_ids) - out))
            assert {4, 3, 1} <= set(stacks)
            assert len(trained(submits)) == stacks.count(4) + stacks.count(3)

    def test_two_ids_split_one_each(self, cpus, submits):
        # the smallest split: of two fair clients and of two auditors, the
        # worker takes the second
        cfg = standard_config(fair=2, plain=1, seed=0, rounds=4)
        cpus({0})
        serial = run_experiment(cfg)
        cpus({0, 1})
        split = run_experiment(cfg)
        assert result_json_text(split) == result_json_text(serial)
        assert submits == [("train", [1])] * 2 + [("audit", [0]), ("train", [1])] * 2

    def test_building_and_single_rounds_start_no_process(self, cpus, monkeypatch):
        cpus({0, 1})

        def no_fork():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "fork", no_fork)
        sim = Simulation(standard_config(fair=4, plain=1, seed=0, rounds=3))
        for _ in range(3):  # round 2 audits
            sim.run_round()
        assert sim.last_audit_matrix is not None
        assert multiprocessing.active_children() == []

    def test_no_worker_for_minibatch_one_cpu_or_one_fair_client(self, cpus, submits):
        base = standard_config(fair=3, plain=1, seed=0, rounds=3)
        cpus({0, 1})
        run_experiment(replace(base, local_batch_size=10))
        run_experiment(replace(base, roster=replace(base.roster, fair=1)))
        cpus({0})
        run_experiment(base)
        assert submits == []

    def test_no_child_left_after_return_or_halt(self, cpus, submits):
        cpus({0, 1})
        run_experiment(standard_config(fair=4, plain=1, seed=0, rounds=3))
        assert multiprocessing.active_children() == []
        # every client is removed in round 0; round 1 halts
        halted = halting_simulation().run()
        assert halted.halted_early
        assert multiprocessing.active_children() == []
        assert len(trained(submits)) == 3 + 1

    def test_no_child_left_after_a_round_raises(self, cpus, submits):
        cpus({0, 1})
        sim = Simulation(standard_config(fair=4, plain=1, seed=0, rounds=5))

        def fail(uploads, active):
            if len(sim.logs) == 2:
                raise ValueError("aggregation failed")
            return aggregate(uploads, active)
        aggregate = sim._aggregate
        sim._aggregate = fail
        with pytest.raises(ValueError, match="aggregation failed"):
            sim.run()
        assert len(trained(submits)) == 3
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failure, message", [
        ("raise", "(?s)round worker failed:.*ValueError: worker half"),
        ("exit", "round worker exited with code 3"),
    ], ids=["raises", "exits"])
    def test_worker_failure_raises_in_run(self, cpus, monkeypatch, failure, message):
        cpus({0, 1})
        parent = os.getpid()
        train = train_clients

        def train_in_parent_only(*args):
            if os.getpid() != parent:
                if failure == "exit":
                    os._exit(3)
                raise ValueError("worker half")
            return train(*args)
        monkeypatch.setattr("fedaudit.simulator.train_clients", train_in_parent_only)
        with pytest.raises(RuntimeError, match=message):
            run_experiment(standard_config(fair=4, plain=1, seed=0, rounds=3))
        assert multiprocessing.active_children() == []


class TestAuditSplit:
    def test_split_audit_equals_serial(self, cpus, submits):
        # the selfish rider 5 audits until round 14; from round 16 on the
        # auditors are (1, 3, 0), which split 1 / 2
        cfg = standard_config(fair=4, plain=1, selfish=1, seed=1, rounds=18)
        runs = []
        for mask in ({0}, {0, 1}):
            cpus(mask)
            sim = Simulation(cfg)
            runs.append((result_json_text(sim.run()), sim.last_audit_matrix))
        (serial_text, serial), (split_text, split) = runs
        assert split_text == serial_text
        assert ((split.round, split.auditor_ids, split.target_ids)
                == (serial.round, serial.auditor_ids, serial.target_ids)
                == (17, (1, 3, 0), (0, 1, 3)))
        assert split.reports.shape == serial.reports.shape
        assert split.reports.tobytes() == serial.reports.tobytes()
        assert ([(a, list(row.items())) for a, row in split.entries.items()]
                == [(a, list(row.items())) for a, row in serial.entries.items()])
        audited = [ids for task, ids in submits if task == "audit"]
        assert [3, 5, 0] in audited
        assert audited[-1] == [3, 0]

    def test_worker_audit_failure_raises_in_run(self, cpus, monkeypatch):
        cpus({0, 1})
        parent = os.getpid()
        score = simulator.accuracy

        def score_in_parent_only(*args):
            if os.getpid() != parent:
                raise ValueError("audit half")
            return score(*args)
        monkeypatch.setattr("fedaudit.simulator.accuracy", score_in_parent_only)
        with pytest.raises(RuntimeError, match="(?s)round worker failed:.*ValueError: audit half"):
            run_experiment(standard_config(fair=4, plain=1, seed=0, rounds=3))
        assert multiprocessing.active_children() == []


@pytest.fixture
def pins(monkeypatch):
    """The CPU masks this process sets on itself, in order; each is still
    applied, so the kernel's mask can be checked afterwards."""
    masks = []
    parent = os.getpid()
    set_mask = os.sched_setaffinity

    def record(pid, mask):
        if pid == 0 and os.getpid() == parent:
            masks.append(set(mask))
        set_mask(pid, mask)
    monkeypatch.setattr(os, "sched_setaffinity", record)
    return masks


def expected_pins(kernel_mask):
    """The parent's masks over one split: the CPUs left by the worker's one,
    then the original mask restored (only the restore on a one-CPU mask)."""
    if len(kernel_mask) < 2:
        return [kernel_mask]
    return [kernel_mask - {max(kernel_mask)}, kernel_mask]


class TestCpuPinning:
    def test_worker_and_parent_run_on_disjoint_cpus(self):
        kernel_mask = os.sched_getaffinity(0)
        worker = _ForkedWorker("test worker", lambda: os.sched_getaffinity(0))
        try:
            worker.submit()
            in_worker = worker.result()
            in_parent = os.sched_getaffinity(0)
        finally:
            worker.close()
        assert os.sched_getaffinity(0) == kernel_mask
        if len(kernel_mask) >= 2:
            assert in_worker == {max(kernel_mask)}
            assert in_parent == kernel_mask - in_worker
        else:
            assert in_worker == in_parent == kernel_mask

    @pytest.mark.parametrize("ending", ["return", "halt", "raise"])
    def test_mask_restored_after_training_split(self, cpus, pins, ending):
        kernel_mask = os.sched_getaffinity(0)
        # CPU 4095 does not exist here: pinning must use the kernel's mask,
        # not the faked one
        cpus({0, 4095})
        if ending == "halt":
            # every client is removed in round 0; round 1 halts
            assert halting_simulation().run().halted_early
        else:
            sim = Simulation(standard_config(fair=4, plain=1, seed=0, rounds=3))
            if ending == "raise":
                sim._aggregate = lambda uploads, active: 1 / 0
                with pytest.raises(ZeroDivisionError):
                    sim.run()
            else:
                sim.run()
        assert pins == expected_pins(kernel_mask)
        assert simulator._cpu_mask(0) == kernel_mask
        assert multiprocessing.active_children() == []


def tiny_grid(instances):
    return DLGExperimentConfig(noise_variances=(0.0, 1e-2), prune_rates=(0.0, 0.5),
                               instances=instances, iterations=40, input_dim=4,
                               num_classes=2, seed=3)


class TestGridWorker:
    @pytest.mark.parametrize("instances", [1, 2, 3])
    def test_split_grid_equals_serial(self, cpus, monkeypatch, instances):
        cfg = tiny_grid(instances)
        forks = []
        fork = os.fork

        def count_fork():
            forks.append(1)
            return fork()
        monkeypatch.setattr(os, "fork", count_fork)
        cpus({0})
        serial = run_dlg_experiment(cfg)
        cpus({0, 1})
        split = run_dlg_experiment(cfg)
        assert len(forks) == (instances >= 2)
        assert dlg_csv_text(split) == dlg_csv_text(serial)
        assert dlg_json_text(split) == dlg_json_text(serial)

    def test_diverged_instances_in_both_halves(self, cpus, monkeypatch):
        # 3 instances: the parent solves the first, the worker the other two
        cfg = tiny_grid(3)
        reconstruct = simulator.reconstruct_batch
        seeds = []

        def record(*args):
            seeds.extend(args[-1])
            return reconstruct(*args)
        cpus({0})
        monkeypatch.setattr(simulator, "reconstruct_batch", record)
        run_dlg_experiment(cfg)
        first, last = seeds[0], seeds[-1]  # the first and the last instance's

        def diverge(model, params, observed, shape, iterations, batch_seeds):
            # the first instance diverges in its pruned cells, the last in all
            recs = reconstruct(model, params, observed, shape, iterations, batch_seeds)
            return [rec._replace(diverged=True)
                    if seed == last or (seed == first and (row == 0).any()) else rec
                    for seed, row, rec in zip(batch_seeds, observed, recs)]
        monkeypatch.setattr(simulator, "reconstruct_batch", diverge)
        serial = run_dlg_experiment(cfg)
        cpus({0, 1})
        split = run_dlg_experiment(cfg)
        assert [(c.prune_rate, c.diverged, c.instances) for c in split] == [
            (0.0, 1, 2), (0.5, 2, 1)] * 2
        assert dlg_csv_text(split) == dlg_csv_text(serial)

    def test_no_fork_for_one_instance_or_one_cpu(self, cpus, monkeypatch):
        def no_fork():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "fork", no_fork)
        cpus({0, 1})
        run_dlg_experiment(tiny_grid(1))
        cpus({0})
        run_dlg_experiment(tiny_grid(3))

    @pytest.mark.parametrize("ending", ["return", "raise"])
    def test_no_child_left_and_mask_restored(self, cpus, pins, monkeypatch, ending):
        kernel_mask = os.sched_getaffinity(0)
        cpus({0, 4095})
        if ending == "raise":
            parent = os.getpid()
            reconstruct = simulator.reconstruct_batch

            def fail_in_parent(*args):
                if os.getpid() == parent:
                    raise ValueError("parent half")
                return reconstruct(*args)
            monkeypatch.setattr(simulator, "reconstruct_batch", fail_in_parent)
            with pytest.raises(ValueError, match="parent half"):
                run_dlg_experiment(tiny_grid(2))
        else:
            run_dlg_experiment(tiny_grid(2))
        assert pins == expected_pins(kernel_mask)
        assert simulator._cpu_mask(0) == kernel_mask
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failure, message", [
        ("raise", "(?s)leakage grid worker failed:.*ValueError: worker half"),
        ("exit", "leakage grid worker exited with code 3"),
    ], ids=["raises", "exits"])
    def test_worker_failure_raises(self, cpus, monkeypatch, failure, message):
        cpus({0, 1})
        parent = os.getpid()
        reconstruct = simulator.reconstruct_batch

        def reconstruct_in_parent_only(*args):
            if os.getpid() != parent:
                if failure == "exit":
                    os._exit(3)
                raise ValueError("worker half")
            return reconstruct(*args)
        monkeypatch.setattr(simulator, "reconstruct_batch", reconstruct_in_parent_only)
        with pytest.raises(RuntimeError, match=message):
            run_dlg_experiment(tiny_grid(2))
        assert multiprocessing.active_children() == []


class TestExperimentWorker:
    def test_split_sweep_equals_serial(self, cpus, monkeypatch):
        # minibatch training forks no round worker, so the one fork is
        # the experiment worker's
        base = tiny_config(rounds=4, local_batch_size=10)
        sweep = {"beta": [1.25, 2.5], "gamma": [0.0, 0.5]}
        forks = []
        fork = os.fork

        def count_fork():
            forks.append(1)
            return fork()
        monkeypatch.setattr(os, "fork", count_fork)
        cpus({0})
        serial = sweep_experiment(base, sweep)
        cpus({0, 1})
        split = sweep_experiment(base, sweep)
        assert len(forks) == 1
        assert sweep_csv_text(split) == sweep_csv_text(serial)
        assert json_text(split) == json_text(serial)

    @pytest.mark.parametrize("failure, message", [
        ("raise", "(?s)experiment worker failed:.*ValueError: worker half"),
        ("exit", "experiment worker exited with code 3"),
    ], ids=["raises", "exits"])
    def test_worker_failure_raises(self, cpus, monkeypatch, failure, message):
        cpus({0, 1})
        parent = os.getpid()
        run = simulator.run_experiment

        def run_in_parent_only(cfg):
            if os.getpid() != parent:
                if failure == "exit":
                    os._exit(3)
                raise ValueError("worker half")
            return run(cfg)
        monkeypatch.setattr(simulator, "run_experiment", run_in_parent_only)
        with pytest.raises(RuntimeError, match=message):
            run_experiments([tiny_config(rounds=2, local_batch_size=10, seed=seed)
                             for seed in (0, 1)])
        assert multiprocessing.active_children() == []
