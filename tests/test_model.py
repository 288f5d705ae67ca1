"""Core model: parameter layout, forward/backward, SGD and Adam."""

import math

import numpy as np
import pytest

from fedaudit.data import Dataset, generate_synthetic
from fedaudit.model import (AdamState, ModelConfig, _augmented, _backprop, _class_sum,
                            _forward, _grads, _softmax, _with_ones, accuracy, adam_step,
                            backward, backward_soft, epoch_permutations, forward_loss,
                            init_params, param_count, sgd_step, train_clients,
                            unflatten)


def fd_gradient(params, config, batch, step=1e-5):
    """Central finite differences, the independent gradient oracle."""
    grad = np.zeros_like(params)
    for i in range(params.shape[0]):
        probe = np.zeros_like(params)
        probe[i] = step
        up, _ = forward_loss(params + probe, config, batch)
        down, _ = forward_loss(params - probe, config, batch)
        grad[i] = (up - down) / (2 * step)
    return grad


def gradient_close(analytic, numeric, tol=1e-4):
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return np.all(np.abs(analytic - numeric) / denom < tol)


def small_batch(config, n, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, config.input_dim)),
                   rng.integers(0, config.num_classes, n), config.num_classes)


class TestInit:
    def test_deterministic(self):
        cfg = ModelConfig(6, (5,), 3)
        assert np.array_equal(init_params(cfg, 42), init_params(cfg, 42))

    def test_param_count_linear(self):
        assert param_count(ModelConfig(4, (), 3)) == 4 * 3 + 3 == 15

    def test_different_seeds_differ(self):
        cfg = ModelConfig(4, (), 3)
        assert not np.array_equal(init_params(cfg, 0), init_params(cfg, 1))

    def test_param_count_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dims = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(0, 3)))]
            cfg = ModelConfig(int(rng.integers(1, 12)), tuple(dims),
                              int(rng.integers(2, 7)))
            layer_dims = cfg.layer_dims
            expected = sum(layer_dims[i] * layer_dims[i + 1] + layer_dims[i + 1]
                           for i in range(len(layer_dims) - 1))
            assert param_count(cfg) == expected
            assert init_params(cfg, 0).shape == (expected,)

    def test_biases_zero(self):
        cfg = ModelConfig(4, (3,), 2)
        layers = unflatten(init_params(cfg, 5), cfg)
        for _, b in layers:
            assert np.all(b == 0.0)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(0, (), 2)
        with pytest.raises(ValueError):
            ModelConfig(4, (), 1)
        with pytest.raises(ValueError):
            ModelConfig(4, (0,), 2)


class TestForward:
    def test_zero_params_uniform_loss(self):
        for k in (2, 3, 5):
            cfg = ModelConfig(4, (), k)
            batch = small_batch(cfg, 12)
            loss, _ = forward_loss(np.zeros(param_count(cfg)), cfg, batch)
            assert loss == pytest.approx(math.log(k), abs=1e-12)

    def test_zero_params_uniform_loss_with_hidden(self):
        # tanh(0) = 0, so hidden layers keep the logits at zero too
        cfg = ModelConfig(4, (7,), 3)
        batch = small_batch(cfg, 9)
        loss, _ = forward_loss(np.zeros(param_count(cfg)), cfg, batch)
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_saturated_single_sample(self):
        cfg = ModelConfig(2, (), 2)
        params = np.zeros(param_count(cfg))
        params[-2] = 100.0  # bias of the true class dominates
        batch = Dataset(np.array([[0.3, -0.2]]), np.array([0]), 2)
        _, acc = forward_loss(params, cfg, batch)
        assert acc == 1.0

    def test_accuracy_matches_per_sample_oracle(self):
        cfg = ModelConfig(5, (4,), 3)
        params = init_params(cfg, 8)
        batch = small_batch(cfg, 10, seed=4)
        # independent per-sample forward pass using explicit layer math
        layers = unflatten(params, cfg)
        hits = 0
        for i in range(10):
            h = batch.features[i]
            for w, b in layers[:-1]:
                h = np.tanh(h @ w + b)
            logits = h @ layers[-1][0] + layers[-1][1]
            hits += int(np.argmax(logits) == batch.labels[i])
        assert accuracy(params, cfg, batch) == hits / 10

    def test_accuracy_consistent_with_forward_loss(self):
        cfg = ModelConfig(4, (), 3)
        params = init_params(cfg, 2)
        batch = small_batch(cfg, 8, seed=1)
        _, acc = forward_loss(params, cfg, batch)
        assert accuracy(params, cfg, batch) == acc

    def test_single_sample_accuracy_binary(self):
        cfg = ModelConfig(3, (), 2)
        batch = small_batch(cfg, 1, seed=9)
        assert accuracy(init_params(cfg, 0), cfg, batch) in (0.0, 1.0)

    def test_all_wrong_by_construction(self):
        cfg = ModelConfig(2, (), 2)
        params = np.zeros(param_count(cfg))
        params[-1] = 50.0  # class-1 bias dominates; label everything class 0
        batch = Dataset(np.zeros((5, 2)), np.zeros(5, dtype=int), 2)
        assert accuracy(params, cfg, batch) == 0.0

    @pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
    @pytest.mark.parametrize("rows", [1, 6])
    def test_stacked_accuracy_bitwise_equals_rows(self, hidden, rows):
        cfg = ModelConfig(4, hidden, 3)
        batch = small_batch(cfg, 30, seed=2)
        rng = np.random.default_rng(rows)
        stack = init_params(cfg, 1) + rng.standard_normal((rows, param_count(cfg)))
        stack[0] = 0.0  # all-zero parameters: every logit ties, argmax takes class 0
        got = accuracy(stack, cfg, batch)
        assert got.shape == (rows,)
        assert got.tolist() == [accuracy(row, cfg, batch) for row in stack]
        assert got[0] == np.mean(batch.labels == 0)

    def test_unflatten_stack_slices_equal_rows(self):
        cfg = ModelConfig(4, (5,), 3)
        stack = np.arange(3 * param_count(cfg), dtype=float).reshape(3, -1)
        stacked = unflatten(stack, cfg)
        for i, row in enumerate(stack):
            for (w, b), (w_row, b_row) in zip(stacked, unflatten(row, cfg)):
                assert np.array_equal(w[i], w_row) and np.array_equal(b[i], b_row)
        with pytest.raises(ValueError):
            unflatten(stack[None], cfg)
        with pytest.raises(ValueError):
            unflatten(stack[:, 1:], cfg)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_unflatten_views_share_memory_with_params(self, lead):
        cfg = ModelConfig(4, (5,), 3)
        params = np.zeros((*lead, param_count(cfg)))
        for w, b in unflatten(params, cfg):
            assert np.shares_memory(w, params) and np.shares_memory(b, params)
            w[...] = 1.0
            b[...] = 2.0
        # W row-major then b, layer by layer: [W; b] in the flat vector
        expected = np.concatenate([np.full(4 * 5, 1.0), np.full(5, 2.0),
                                   np.full(5 * 3, 1.0), np.full(3, 2.0)])
        assert np.array_equal(params, np.broadcast_to(expected, params.shape))

    def test_dim_mismatch_rejected(self):
        cfg = ModelConfig(4, (), 3)
        batch = small_batch(ModelConfig(5, (), 3), 4)
        with pytest.raises(ValueError):
            forward_loss(init_params(cfg, 0), cfg, batch)


def argmax_reference_accuracy(params, config, dataset):
    """Fraction of samples whose row-major logits argmax to the label."""
    layers = _augmented(params, config)
    logits = _forward(layers, _with_ones(dataset.features))[-1] @ layers[-1]
    return float((np.argmax(logits, axis=-1) == dataset.labels).mean())


@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
@pytest.mark.parametrize("k", [2, 3, 8, 13])
def test_accuracy_bitwise_equals_argmax_reference(k, hidden):
    # argmax picks the first maximum and treats NaN as the maximum; ties
    # come from all-zero parameters and from integer-rounded parameters and
    # features (exact products), NaN and +-inf logits from a NaN sample,
    # infinite weights and biases and a NaN bias
    cfg = ModelConfig(4, hidden, k)
    d = param_count(cfg)
    rng = np.random.default_rng(k * 10 + len(hidden))
    n = 3 * k + 5
    labels = np.arange(n) % k  # every class, the last one included
    labels[-3:] = k - 1
    features = rng.standard_normal((n, 4))
    rounded = np.round(2.0 * features)
    rounded[0] = 0.0
    nan_sample = rounded.copy()
    nan_sample[1] = np.nan
    stack = init_params(cfg, k) + rng.standard_normal((8, d))
    stack[1] = 0.0  # every logit ties for every sample
    stack[2] = np.round(stack[2])
    stack[3] = np.round(3.0 * stack[3]) % 2  # 0/1 parameters, many partial ties
    stack[4, -k:] = 0.0
    stack[4, -1] = np.inf  # the last class wins everywhere
    stack[5, -k] = -np.inf
    stack[5, -k + 1] = np.inf
    stack[6, 0] = np.inf  # inf * 0 = NaN on the zero feature row
    stack[7, -1] = np.nan  # a NaN in the last class only: argmax picks it
    for x in (features, rounded, nan_sample):
        dataset = Dataset(x, labels, k)
        with np.errstate(invalid="ignore"):
            expected = [argmax_reference_accuracy(row, cfg, dataset) for row in stack]
            assert accuracy(stack, cfg, dataset).tolist() == expected
            for row, value in zip(stack, expected):
                got = accuracy(row, cfg, dataset)
                assert isinstance(got, float) and got == value
            for rows in (stack[:1], stack[1:2], stack[4:6], stack[7:]):
                assert accuracy(rows, cfg, dataset).tolist() == [
                    argmax_reference_accuracy(row, cfg, dataset) for row in rows]


class TestBackward:
    def test_finite_difference_small_model(self):
        cfg = ModelConfig(3, (2,), 3)  # 3*2+2 + 2*3+3 = 17 params
        params = init_params(cfg, 11)
        batch = small_batch(cfg, 6, seed=5)
        assert gradient_close(backward(params, cfg, batch),
                              fd_gradient(params, cfg, batch))

    def test_duplicated_batch_same_gradient(self):
        cfg = ModelConfig(4, (), 3)
        params = init_params(cfg, 3)
        batch = small_batch(cfg, 5, seed=6)
        doubled = Dataset(np.concatenate([batch.features, batch.features]),
                          np.concatenate([batch.labels, batch.labels]), 3)
        assert np.allclose(backward(params, cfg, batch),
                           backward(params, cfg, doubled), atol=1e-15)

    def test_zero_weight_bias_gradient_closed_form(self):
        # uniform softmax: bias gradient is mean of (1/k - onehot)
        k, n = 4, 8
        cfg = ModelConfig(3, (), k)
        params = np.zeros(param_count(cfg))
        batch = small_batch(cfg, n, seed=7)
        grad = backward(params, cfg, batch)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), batch.labels] = 1.0
        expected_bias = (1.0 / k - onehot).mean(axis=0)
        assert np.allclose(grad[-k:], expected_bias, atol=1e-15)

    def test_backward_soft_matches_hard_on_onehot(self):
        cfg = ModelConfig(4, (3,), 3)
        params = init_params(cfg, 1)
        batch = small_batch(cfg, 6, seed=2)
        onehot = np.zeros((6, 3))
        onehot[np.arange(6), batch.labels] = 1.0
        assert np.array_equal(backward(params, cfg, batch),
                              backward_soft(params, cfg, batch.features, onehot))


def reference_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def class_first_reference_softmax(logits):
    # a row-major copy, so that the reference sums over a contiguous class axis
    row_major = np.ascontiguousarray(np.moveaxis(logits, 0, -1))
    return np.moveaxis(reference_softmax(row_major), -1, 0)


def awkward_logits(shape, seed):
    """Random logits whose first rows have tied maxima or large magnitudes."""
    logits = np.random.default_rng(seed).standard_normal(shape)
    rows = logits.reshape(-1, shape[-1])
    special = [np.full(shape[-1], 2.5),  # every class tied
               np.where(np.arange(shape[-1]) % 2 == 0, 1.0, -1.0),  # several tied
               rows[0] * 1e4,
               rows[0] * 1e300]
    for i, row in enumerate(special[:len(rows)]):
        rows[i] = row
    return logits


class TestKernelReductions:
    """The kernel's row max, softmax sum and bias-gradient sum are bitwise
    equal to the plain numpy reductions over the class and sample axes."""

    @pytest.mark.parametrize("k", [2, 5, 8, 13])
    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_softmax_bitwise_equals_reference(self, k, n):
        # the kernel's softmax runs over the leading axis of class-first logits
        for shape in ((n, k), (3, n, k)):
            logits = np.moveaxis(awkward_logits(shape, seed=k * n), -1, 0).copy()
            assert np.array_equal(_softmax(logits), class_first_reference_softmax(logits))

    @pytest.mark.parametrize("k", [*range(1, 18), 64, 127, 128, 129, 300])
    @pytest.mark.parametrize("lead", [(), (1,), (10, 100), (3, 7)])
    def test_class_sum_bitwise_equals_pairwise_reduce(self, k, lead):
        # np.add.reduce over a contiguous last axis is numpy's pairwise sum;
        # terms spread over 20 orders of magnitude, so another order shows
        rng = np.random.default_rng(k)
        x = rng.standard_normal((*lead, k)) * 10.0 ** rng.integers(-10, 10, (*lead, k))
        expected = np.add.reduce(x, axis=-1)
        assert np.array_equal(_class_sum(np.moveaxis(x, -1, 0).copy()), expected)
        assert np.array_equal(_class_sum(x.T), expected.T)

    @pytest.mark.parametrize("hidden", [(), (5,)])
    @pytest.mark.parametrize("k", [3, 8])
    def test_stacked_grads_on_shared_features_equal_rows(self, hidden, k):
        # (T, ...)-stacked layers on one (n, d + 1) feature matrix: T parameter
        # vectors' gradients in one call, each bitwise that of its own call
        cfg = ModelConfig(4, hidden, k)
        rng = np.random.default_rng(k)
        T, n = 6, 9
        stack = init_params(cfg, 1) + rng.standard_normal((T, param_count(cfg)))
        features = _with_ones(rng.standard_normal((n, 4)))
        targets = np.moveaxis(rng.dirichlet(np.ones(k), n), -1, 0)
        stacked = _grads(_augmented(stack, cfg), features, targets[:, None])
        for t in range(T):
            for g, row in zip(stacked, _grads(_augmented(stack[t], cfg), features, targets)):
                assert np.array_equal(g[t], row)

    @pytest.mark.parametrize("hidden", [(), (5,)])
    @pytest.mark.parametrize("k", [2, 5, 8, 13])
    def test_bias_gradients_bitwise_equal_delta_sums(self, hidden, k):
        # each layer's gradient is [dW; db]: its last row is the bias gradient
        cfg = ModelConfig(4, hidden, k)
        rng = np.random.default_rng(k)
        for n in (1, 7, 10, 100):
            for lead in ((), (3,)):
                params = init_params(cfg, n) + rng.standard_normal(
                    (*lead, param_count(cfg)))
                layers = _augmented(params, cfg)
                features = _with_ones(rng.standard_normal((*lead, n, 4)))
                targets = np.moveaxis(rng.dirichlet(np.ones(k), (*lead, n)), -1, 0)
                _, probs, deltas, _ = _backprop(layers, features, targets)
                logits = _forward(layers, features)[-1] @ layers[-1]
                assert np.array_equal(probs, np.moveaxis(reference_softmax(logits), -1, 0))
                for g, delta in zip(_grads(layers, features, targets), deltas):
                    assert g.shape[-1] == delta.shape[-1] and g.shape[:-2] == lead
                    # a row-major copy: numpy sums a column-major view pairwise
                    assert np.array_equal(g[..., -1, :],
                                          np.ascontiguousarray(delta).sum(axis=-2))


class TestSgd:
    def test_zero_eta_identity(self):
        params = np.array([1.0, -2.0])
        assert np.array_equal(sgd_step(params, np.array([5.0, 5.0]), 0.0), params)

    def test_arithmetic(self):
        out = sgd_step(np.array([1.0, 1.0]), np.array([2.0, -2.0]), 0.1)
        assert np.allclose(out, [0.8, 1.2])

    def test_loss_decreases_on_separable_data(self):
        cfg = ModelConfig(2, (), 2)
        data = generate_synthetic(2, 2, 40, 10.0, 0)
        params = init_params(cfg, 0)
        loss0, _ = forward_loss(params, cfg, data)
        params = train_clients(params, cfg, data.features[None], data.labels[None],
                               0.1, 50)[0]
        loss50, _ = forward_loss(params, cfg, data)
        assert loss50 < loss0

    def test_training_deterministic(self):
        cfg = ModelConfig(3, (4,), 2)
        data = generate_synthetic(2, 3, 30, 2.0, 1)
        a = train_clients(init_params(cfg, 5), cfg, data.features[None],
                          data.labels[None], 0.1, 20)
        b = train_clients(init_params(cfg, 5), cfg, data.features[None],
                          data.labels[None], 0.1, 20)
        assert np.array_equal(a, b)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        state = AdamState.fresh(3, 0.1)
        params = np.array([1.0, 2.0, 3.0])
        new_params, new_state = adam_step(state, params, np.zeros(3))
        assert np.array_equal(new_params, params)
        assert np.all(new_state.first_moment == 0)
        assert np.all(new_state.second_moment == 0)
        assert new_state.step_count == 1

    def test_constant_gradient_sign_direction(self):
        g = np.array([0.02, -0.4, 1.3])
        lr, decay = 0.01, 1.0
        state = AdamState.fresh(3, lr, decay)
        params = np.zeros(3)
        for _ in range(200):
            prev = params
            params, state = adam_step(state, params, g)
        step = params - prev
        assert np.allclose(step, -lr * np.sign(g), rtol=1e-3)

    def test_learning_rate_decay(self):
        state = AdamState.fresh(2, 0.015, 0.997)
        params = np.zeros(2)
        g = np.ones(2)
        for _ in range(2):
            params, state = adam_step(state, params, g)
        assert state.learning_rate == pytest.approx(0.015 * 0.997 ** 2, rel=1e-12)


class TestBatchedTraining:
    def test_full_batch_bitwise_equals_single(self):
        # a stack of C clients trains exactly as each client alone (C = 1)
        for hidden in ((), (5,)):
            cfg = ModelConfig(3, hidden, 6)
            p0 = init_params(cfg, 1)
            rng = np.random.default_rng(2)
            feats = rng.standard_normal((7, 15, 3))
            labels = rng.integers(0, 6, (7, 15))
            batched = train_clients(p0, cfg, feats, labels, 0.1, 25)
            singles = np.concatenate([
                train_clients(p0, cfg, feats[i:i + 1], labels[i:i + 1], 0.1, 25)
                for i in range(7)])
            assert np.array_equal(batched, singles)

    @pytest.mark.parametrize("hidden", [(), (5,)], ids=["linear", "hidden"])
    @pytest.mark.parametrize("C", [2, 3, 10])
    def test_halves_bitwise_equal_the_whole_stack(self, hidden, C):
        # the simulator's training worker trains the second half of the fair
        # stack on its own; the two blocks must be the whole stack's rows
        cfg = ModelConfig(3, hidden, 6)
        p0 = init_params(cfg, 3)
        rng = np.random.default_rng(C)
        feats = rng.standard_normal((C, 15, 3))
        labels = rng.integers(0, 6, (C, 15))
        whole = train_clients(p0, cfg, feats, labels, 0.1, 25)
        half = C // 2
        halves = np.concatenate([train_clients(p0, cfg, feats[:half], labels[:half], 0.1, 25),
                                 train_clients(p0, cfg, feats[half:], labels[half:], 0.1, 25)])
        assert halves.tobytes() == whole.tobytes()

    def test_one_step_bitwise_equals_sgd_step(self):
        for hidden in ((), (4,), (5, 3)):
            cfg = ModelConfig(4, hidden, 3)
            p0 = init_params(cfg, 6)
            batch = small_batch(cfg, 11, seed=7)
            stepped = train_clients(p0, cfg, batch.features[None],
                                    batch.labels[None], 0.1, 1)
            assert np.array_equal(stepped[0],
                                  sgd_step(p0, backward(p0, cfg, batch), 0.1))

    def test_caller_params_unchanged(self):
        cfg = ModelConfig(4, (5,), 3)
        p0 = init_params(cfg, 2)
        kept = p0.copy()
        rng = np.random.default_rng(5)
        C, n, epochs = 3, 8, 4
        feats = rng.standard_normal((C, n, 4))
        labels = rng.integers(0, 3, (C, n))
        perms = np.stack([epoch_permutations(n, epochs, np.random.default_rng(i))
                          for i in range(C)])
        for trained in (train_clients(p0, cfg, feats, labels, 0.1, epochs),
                        train_clients(p0, cfg, feats, labels, 0.1, epochs, perms, 3)):
            assert not np.array_equal(trained[0], kept)
            assert np.array_equal(p0, kept)

    @pytest.mark.parametrize("n, batch_size, epochs, hidden, C, k", [
        pytest.param(12, 12, 3, (3,), 3, 6, id="12-12-3"),
        pytest.param(23, 5, 3, (3,), 3, 6, id="23-5-3"),
        pytest.param(10, 4, 0, (3,), 3, 6, id="10-4-0"),
        pytest.param(12, None, 3, (3,), 3, 6, id="12-None-3"),
        pytest.param(12, None, 0, (3,), 3, 6, id="12-None-0"),
        pytest.param(20, 6, 4, (), 5, 5, id="linear-20-6-4"),
    ])
    def test_bitwise_equals_backward_sgd_oracle(self, n, batch_size, epochs, hidden, C, k):
        # one gather per epoch, sliced per step, against backward + sgd_step
        # on each client's own minibatches; each epoch's remainder is dropped
        cfg = ModelConfig(4, hidden, k)
        p0 = init_params(cfg, 2)
        rng = np.random.default_rng(n)
        feats = rng.standard_normal((C, n, 4))
        labels = rng.integers(0, k, (C, n))
        perms = None
        if batch_size is not None:
            perms = np.stack([epoch_permutations(n, epochs, np.random.default_rng(i))
                              for i in range(C)])
        batched = train_clients(p0, cfg, feats, labels, 0.1, epochs, perms, batch_size)
        b = n if batch_size is None else batch_size
        for i in range(C):
            params = p0
            for e in range(epochs):
                perm = np.arange(n) if perms is None else perms[i, e]
                for start in range(0, n - b + 1, b):
                    idx = perm[start:start + b]
                    mini = Dataset(feats[i][idx], labels[i][idx], k)
                    params = sgd_step(params, backward(params, cfg, mini), 0.1)
            assert np.array_equal(batched[i], params)

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_out_of_range_perms_rejected(self, bad):
        # one flat index space spans every client's samples, so an entry
        # outside [0, n) must raise, not read another client's sample
        cfg = ModelConfig(4, (), 3)
        C, n, epochs = 3, 8, 2
        perms = np.stack([epoch_permutations(n, epochs, np.random.default_rng(i))
                          for i in range(C)])
        perms[1, 1, 0] = bad
        with pytest.raises(ValueError, match="perms entries"):
            train_clients(init_params(cfg, 0), cfg, np.zeros((C, n, 4)),
                          np.zeros((C, n), dtype=int), 0.1, epochs, perms, 4)

    @pytest.mark.parametrize("seed", [0, 1, 7, 1234])
    @pytest.mark.parametrize("n", [1, 2, 100, 257])
    @pytest.mark.parametrize("epochs", [0, 1, 30])
    def test_epoch_permutations_equal_per_epoch_draws(self, seed, n, epochs):
        # the shuffle stream is part of every minibatch run's bits: the
        # schedule must be the per-epoch rng.permutation draws, and leave the
        # generator where they leave it
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        perms = epoch_permutations(n, epochs, rng)
        ref = np.stack([ref_rng.permutation(n) for _ in range(epochs)]) if epochs else \
            np.empty((0, n), dtype=np.int64)
        assert perms.dtype == ref.dtype == np.int64
        assert perms.shape == ref.shape == (epochs, n)
        assert np.array_equal(perms, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
