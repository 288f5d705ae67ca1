"""Aggregation rules against brute-force per-coordinate oracles."""

import math

import numpy as np
import pytest

from fedaudit.aggregation import (AggregationError, coordinate_median, fedavg,
                                  signsgd_aggregate, trimmed_mean)


def sort_oracle_median(updates):
    stacked = np.stack(updates)
    out = np.empty(stacked.shape[1])
    for j in range(stacked.shape[1]):
        col = sorted(stacked[:, j])
        n = len(col)
        out[j] = col[n // 2] if n % 2 else 0.5 * (col[n // 2 - 1] + col[n // 2])
    return out


def trim_oracle(updates, delta):
    stacked = np.stack(updates)
    k = math.floor(delta * stacked.shape[0])
    out = np.empty(stacked.shape[1])
    for j in range(stacked.shape[1]):
        col = sorted(stacked[:, j])
        kept = col[k:len(col) - k] if k else col
        out[j] = sum(kept) / len(kept)
    return out


def majority_sign_oracle(gradients, eta):
    stacked = np.stack(gradients)
    out = np.empty(stacked.shape[1])
    for j in range(stacked.shape[1]):
        pos = int((stacked[:, j] > 0).sum())
        neg = int((stacked[:, j] < 0).sum())
        vote = 1.0 if pos > neg else -1.0 if neg > pos else 0.0
        out[j] = -eta * vote
    return out


class TestFedavg:
    def test_single_update_identity(self):
        u = np.array([1.0, 2.0])
        assert np.array_equal(fedavg([u]), u)

    def test_plain_mean(self):
        out = fedavg([np.array([1.0, 3.0]), np.array([3.0, 1.0])])
        assert np.array_equal(out, [2.0, 2.0])

    def test_weighted_matches_summation_oracle(self):
        rng = np.random.default_rng(0)
        updates = [rng.standard_normal(8) for _ in range(5)]
        weights = list(rng.uniform(0.1, 2.0, 5))
        expected = sum(w * u for w, u in zip(weights, updates)) / sum(weights)
        assert np.allclose(fedavg(updates, weights), expected, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            fedavg([])

    def test_zero_weight_accepted_and_its_update_drops_out(self):
        kept = [np.array([1.0, -2.0, 4.0]), np.array([3.0, 5.0, -1.0])]
        dropped = np.array([1e6, -1e6, 7.0])
        out = fedavg([kept[0], dropped, kept[1]], [1.0, 0.0, 3.0])
        assert np.array_equal(out, fedavg(kept, [1.0, 3.0]))
        assert np.array_equal(out, [2.5, 3.25, 0.25])

    def test_zero_weights_rejected(self):
        with pytest.raises(AggregationError):
            fedavg([np.ones(2), np.ones(2)], [0.0, 0.0])

    def test_ragged_rejected(self):
        with pytest.raises(AggregationError):
            fedavg([np.ones(2), np.ones(3)])


class TestMedian:
    def test_worked_example(self):
        out = coordinate_median([np.array([1.0, 2.0]), np.array([3.0, 0.0]),
                                 np.array([5.0, 4.0])])
        assert np.array_equal(out, [3.0, 2.0])

    def test_identical_updates(self):
        u = np.array([0.5, -1.0])
        assert np.array_equal(coordinate_median([u, u, u]), u)

    def test_outlier_robustness(self):
        honest = [np.array([1.0]), np.array([1.1]), np.array([0.9]),
                  np.array([1.05])]
        out = coordinate_median(honest + [np.array([1e6])])
        assert out[0] == sort_oracle_median(honest + [np.array([1e6])])[0]
        assert 0.9 <= out[0] <= 1.1

    def test_breakdown_with_five_adversaries_of_eleven(self):
        rng = np.random.default_rng(1)
        honest = [rng.uniform(-1, 1, 4) for _ in range(6)]
        adversarial = [np.full(4, 1e6) for _ in range(5)]
        out = coordinate_median(honest + adversarial)
        lo = np.min(np.stack(honest), axis=0)
        hi = np.max(np.stack(honest), axis=0)
        assert np.all(out >= lo) and np.all(out <= hi)


class TestTrimmedMean:
    def test_zero_trim_equals_fedavg(self):
        rng = np.random.default_rng(2)
        updates = [rng.standard_normal(5) for _ in range(4)]
        assert np.array_equal(trimmed_mean(updates, 0.0), fedavg(updates))

    def test_worked_example(self):
        updates = [np.array([1.0]), np.array([3.0]), np.array([5.0])]
        assert trimmed_mean(updates, 1 / 3)[0] == 3.0

    def test_one_per_side_at_fifth(self):
        updates = [np.array([float(v)]) for v in (10, 1, 2, 3, -10)]
        assert trimmed_mean(updates, 0.2)[0] == 2.0

    def test_over_trim_rejected(self):
        with pytest.raises(AggregationError):
            trimmed_mean([np.ones(2), np.ones(2)], 0.5)


class TestSignsgd:
    def test_sign_of_values(self):
        out = signsgd_aggregate([np.array([0.5, -0.2, 0.0])], 1.0)
        assert np.array_equal(out, [-1.0, 1.0, 0.0])

    def test_majority_vote(self):
        grads = [np.array([1.0]), np.array([2.0]), np.array([-5.0])]
        assert signsgd_aggregate(grads, 0.1)[0] == -0.1

    def test_single_client_reduction(self):
        g = np.array([0.3, -0.7, 0.0])
        assert np.array_equal(signsgd_aggregate([g], 0.2), -0.2 * np.sign(g))

    def test_tie_votes_zero(self):
        grads = [np.array([1.0]), np.array([-1.0])]
        assert signsgd_aggregate(grads, 0.1)[0] == 0.0


class TestProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            updates = [rng.standard_normal(6) for _ in range(n)]
            weights = list(rng.uniform(0.1, 1.0, n))
            perm = rng.permutation(n)
            p_updates = [updates[i] for i in perm]
            p_weights = [weights[i] for i in perm]
            assert np.allclose(fedavg(updates, weights),
                               fedavg(p_updates, p_weights), atol=1e-12)
            assert np.array_equal(coordinate_median(updates),
                                  coordinate_median(p_updates))
            assert np.allclose(trimmed_mean(updates, 0.2),
                               trimmed_mean(p_updates, 0.2), atol=1e-12)
            assert np.array_equal(signsgd_aggregate(updates, 0.1),
                                  signsgd_aggregate(p_updates, 0.1))

    def test_oracle_equivalence_100_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            d = int(rng.integers(1, 17))
            updates = [rng.standard_normal(d) for _ in range(n)]
            assert np.array_equal(coordinate_median(updates),
                                  sort_oracle_median(updates))
            delta = float(rng.uniform(0, 0.5)) if n > 2 else 0.0
            if math.floor(delta * n) * 2 < n:
                assert np.allclose(trimmed_mean(updates, delta),
                                   trim_oracle(updates, delta), atol=1e-12)
            assert np.array_equal(signsgd_aggregate(updates, 0.3),
                                  majority_sign_oracle(updates, 0.3))
