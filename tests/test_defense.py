"""Contribution evaluation, elimination, and the defense metrics."""

import math

import numpy as np
import pytest

from fedaudit.config import ConfigError, DefenseSettings, ExperimentConfig
from fedaudit.data import generate_synthetic
from fedaudit.defense import (ContributionLedger, contribution_step,
                              cosine_contribution_step, cosine_similarity,
                              defense_success_rate, eliminate_low_contributors,
                              false_positive_rate)
from fedaudit.model import ModelConfig, accuracy, init_params, param_count
from oracles import audit_peer_update


@pytest.fixture
def audit_world():
    cfg = ModelConfig(4, (), 3)
    shard = generate_synthetic(3, 4, 30, 3.0, 2)
    theta_prev = init_params(cfg, 0)
    theta_curr = theta_prev + 0.05 * init_params(cfg, 1)
    return cfg, shard, theta_curr, theta_prev


class TestAudit:
    """The one-pair report that the simulator's stacked audit is checked
    against."""

    def test_echoed_transition_scores_exactly_zero(self, audit_world):
        cfg, shard, theta_curr, theta_prev = audit_world
        assert audit_peer_update(shard, cfg, theta_curr, theta_prev,
                                 theta_curr - theta_prev) == 0.0

    def test_zero_update_reduces_to_accuracy_gap(self, audit_world):
        cfg, shard, theta_curr, theta_prev = audit_world
        expected = (accuracy(theta_curr, cfg, shard)
                    - accuracy(theta_prev, cfg, shard))
        zero = np.zeros(param_count(cfg))
        assert audit_peer_update(shard, cfg, theta_curr, theta_prev, zero) == expected

    def test_corrupted_update_scores_near_chance_gap(self):
        # saturated tanh units make every class logit equal, so argmax
        # degenerates to the first class: accuracy falls to that class share
        cfg = ModelConfig(4, (6,), 3)
        shard = generate_synthetic(3, 4, 60, 3.0, 2)
        theta_prev = init_params(cfg, 0)
        theta_curr = theta_prev + 0.05 * init_params(cfg, 1)
        corrupted = np.full(param_count(cfg), 10.0)
        got = audit_peer_update(shard, cfg, theta_curr, theta_prev, corrupted)
        chance_acc = accuracy(theta_prev + corrupted, cfg, shard)
        assert got == accuracy(theta_curr, cfg, shard) - chance_acc
        # the wrecked model predicts a fixed class per saturation pattern:
        # accuracy at or below the 1/3 chance level, so the report is large
        assert chance_acc <= 1 / 3 + 0.05
        assert got > 0.15

    def test_dim_mismatch_rejected(self, audit_world):
        cfg, shard, theta_curr, theta_prev = audit_world
        with pytest.raises(ValueError):
            audit_peer_update(shard, cfg, theta_curr, theta_prev, np.zeros(3))


class TestContributionStep:
    def test_scalar_arithmetic_oracle(self):
        got = contribution_step(0.1, [0.2], 0.95)
        expected = 0.95 * 0.1 + 0.05 * math.tanh(0.2)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.104869, abs=1e-6)

    def test_all_zero_reports_geometric_decay(self):
        c = 0.5
        for k in range(1, 15):
            c = contribution_step(c, [0.0, 0.0], 0.95)
            assert c == pytest.approx(0.5 * 0.95 ** k, abs=1e-12)

    def test_huge_reports_bounded(self):
        got = contribution_step(0.3, [1e9], 0.95)
        assert got <= 0.95 * 0.3 + 0.05 + 1e-12

    def test_empty_reports_carry_forward(self):
        assert contribution_step(0.42, [], 0.95) == 0.42

    def test_mean_is_left_to_right_float_sum(self):
        # 1.0 + 1e-16 rounds back to 1.0 at each step; a compensated sum
        # (builtin sum from Python 3.12, math.fsum) keeps the 2e-16
        reports = [1.0, 1e-16, 1e-16]
        assert math.tanh(math.fsum(reports) / 3) != math.tanh(1.0 / 3)
        assert contribution_step(0.0, reports, 0.0) == math.tanh(1.0 / 3)

    def test_boundedness_under_random_streams(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c0 = float(rng.uniform(-0.5, 1.0))
            c = c0
            for _ in range(200):
                reports = list(rng.uniform(-1, 1, 5))
                c = contribution_step(c, reports, 0.95)
                assert min(c0, -1.0) <= c <= max(c0, 1.0)


class TestElimination:
    def test_threshold_arithmetic(self):
        scores = {0: 0.05, 1: 0.06}
        scores.update({i: 0.5 for i in range(2, 10)})
        ledger = ContributionLedger(scores)
        newly = eliminate_low_contributors(ledger, 1.75, 10)
        assert newly == {0}  # cutoff 1/17.5 = 0.05714: 0.05 out, 0.06 kept
        assert ledger.eliminated == {0}

    def test_initial_share_never_eliminated_at_start(self):
        n = 12
        ledger = ContributionLedger({i: 1.0 / n for i in range(n)})
        for beta in (1.0, 1.75, 5.0):
            assert eliminate_low_contributors(ledger, beta, n) == set()

    def test_suspension_below_three_active(self):
        ledger = ContributionLedger({0: -1.0, 1: -1.0}, eliminated=set())
        assert eliminate_low_contributors(ledger, 1.75, 2) == set()
        assert ledger.eliminated == set()

    def test_elimination_permanent(self):
        ledger = ContributionLedger({0: 0.0, 1: 0.5, 2: 0.5, 3: 0.5})
        eliminate_low_contributors(ledger, 1.75, 4)
        assert ledger.eliminated == {0}
        ledger.contributions[0] = 1.0  # even if the score recovers
        eliminate_low_contributors(ledger, 1.75, 4)
        assert ledger.eliminated == {0}
        assert 0 not in ledger.active_ids()

    def test_threshold_monotone_in_beta(self):
        contributions = {i: 0.02 + 0.015 * i for i in range(8)}
        eliminated_by_beta = {}
        for beta in (1.0, 1.75, 3.0):
            ledger = ContributionLedger(dict(contributions))
            eliminate_low_contributors(ledger, beta, 8)
            eliminated_by_beta[beta] = set(ledger.eliminated)
        assert eliminated_by_beta[1.0] >= eliminated_by_beta[1.75] >= eliminated_by_beta[3.0]

    def test_beta_below_one_rejected(self):
        with pytest.raises(ConfigError, match="defense.beta"):
            ExperimentConfig(defense=DefenseSettings(beta=0.5)).validate()
        with pytest.raises(ValueError):
            eliminate_low_contributors(ContributionLedger({0: 1.0}), 0.9, 1)


class TestCosineReputation:
    def test_aligned_update(self):
        g = np.array([1.0, 2.0])
        got = cosine_contribution_step(0.4, g, g, 0.95)
        assert got == pytest.approx(0.95 * 0.4 + 0.05)

    def test_opposed_update(self):
        g = np.array([1.0, 2.0])
        got = cosine_contribution_step(0.4, g, -g, 0.95)
        assert got == pytest.approx(0.95 * 0.4 - 0.05)

    def test_zero_norm_counts_as_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0
        got = cosine_contribution_step(0.2, np.zeros(3), np.ones(3), 0.95)
        assert got == pytest.approx(0.95 * 0.2)

    def test_echo_keeps_high_reputation(self):
        # a plain echo of the previous global direction scores cosine ~ 1
        # round after round: the cosine defense cannot see this mimic
        rng = np.random.default_rng(3)
        global_update = rng.standard_normal(50)
        c, cosines = 1.0 / 10, []
        for _ in range(30):
            echo = global_update.copy()
            next_global = global_update + 0.05 * rng.standard_normal(50)
            cosines.append(cosine_similarity(next_global, echo))
            c = cosine_contribution_step(c, next_global, echo, 0.95)
            global_update = next_global
        assert np.mean(cosines) > 0.9
        assert c > 1.0 / (3 * 10)  # never crosses the default cutoff

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="defense.alpha"):
            ExperimentConfig(defense=DefenseSettings(kind="rffl", alpha=1.5)).validate()


class TestMetrics:
    def test_dsr_counting(self):
        fr = {10, 11, 12, 13, 14}
        assert defense_success_rate(fr, fr) == 100.0
        assert defense_success_rate(set(), fr) == 0.0
        assert defense_success_rate({10, 11, 12}, fr) == 60.0

    def test_dsr_undefined_without_free_riders(self):
        assert defense_success_rate({1, 2}, set()) is None

    def test_fpr_counting(self):
        fair = set(range(10))
        assert false_positive_rate({0, 1}, fair) == 20.0
        assert false_positive_rate(set(), fair) == 0.0
        assert false_positive_rate(fair, fair) == 100.0

    def test_fpr_undefined_without_fair_clients(self):
        assert false_positive_rate({1}, set()) is None
