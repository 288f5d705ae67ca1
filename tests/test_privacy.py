"""Privacy transforms and the gradient-matching reconstruction attack."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedaudit.privacy
from fedaudit.data import Dataset
from fedaudit.model import (ModelConfig, backward, backward_soft, init_params,
                            matching_loss, param_count)
from fedaudit.privacy import (DEFENDED_MSE_THRESHOLD, PrivacyConfig,
                              PUBLISHED_MSE, PUBLISHED_NOISE_LEVELS,
                              PUBLISHED_PRUNE_RATES, ReconstructionDivergedError,
                              apply_privacy, dlg_reconstruct, reconstruct_batch,
                              reconstruction_mse)


def single_sample_instance(input_dim=8, num_classes=2, seed=0):
    """A linear single-sample leakage instance: params, raw batch, gradient."""
    cfg = ModelConfig(input_dim, (), num_classes)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed + 100)
    raw = Dataset(rng.uniform(0, 1, (1, input_dim)),
                  rng.integers(0, num_classes, 1), num_classes)
    return cfg, params, raw, backward(params, cfg, raw)


def noise(variance):
    return PrivacyConfig(noise_variance=variance)


def prune(rate):
    return PrivacyConfig(prune_rate=rate)


class TestGaussianNoise:
    def test_zero_variance_identity(self):
        u = np.array([1.0, -2.0, 0.5])
        out = apply_privacy(u, noise(0.0), np.random.default_rng(0))
        assert np.array_equal(out, u)
        assert out is not u

    def test_sample_variance(self):
        u = np.zeros(10_000)
        out = apply_privacy(u, noise(1e-2), np.random.default_rng(1))
        assert np.var(out) == pytest.approx(1e-2, rel=0.1)

    def test_deterministic_per_seed(self):
        u = np.ones(50)
        a = apply_privacy(u, noise(0.5), np.random.default_rng(7))
        b = apply_privacy(u, noise(0.5), np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            noise(-1.0)


class TestPrune:
    def test_zero_rate_identity(self):
        u = np.arange(5.0)
        out = apply_privacy(u, prune(0.0), np.random.default_rng(0))
        assert np.array_equal(out, u)
        assert out is not u

    def test_exact_zero_count(self):
        u = np.ones(100)
        out = apply_privacy(u, prune(0.9), np.random.default_rng(3))
        assert int((out == 0.0).sum()) == 90
        assert np.all(out[out != 0] == 1.0)

    def test_half_of_ones_sums_to_half(self):
        out = apply_privacy(np.ones(10), prune(0.5), np.random.default_rng(4))
        assert out.sum() == 5.0

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            prune(1.0)


class TestComposition:
    def test_noise_then_prune_order(self):
        # pruned coordinates are zero even though noise was added first
        cfg = PrivacyConfig(noise_variance=1.0, prune_rate=0.5)
        rng = np.random.default_rng(5)
        out = apply_privacy(np.ones(100), cfg, rng)
        assert int((out == 0.0).sum()) == 50

    def test_draws_noise_then_prune_mask_from_one_stream(self):
        # the upload's bits: one normal draw of d values, then one
        # without-replacement choice of the pruned coordinates
        u = np.linspace(-1.0, 1.0, 40)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        out = apply_privacy(u, PrivacyConfig(noise_variance=0.3, prune_rate=0.25), rng)
        ref = u + ref_rng.normal(0.0, np.sqrt(0.3), u.shape)
        ref[ref_rng.choice(40, size=10, replace=False)] = 0.0
        assert out.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PrivacyConfig(noise_variance=-1.0)
        with pytest.raises(ValueError):
            PrivacyConfig(prune_rate=1.0)


class TestReconstructionMse:
    def test_identical_zero(self):
        a = Dataset(np.random.default_rng(0).uniform(0, 1, (3, 4)),
                    np.zeros(3, dtype=int), 2)
        assert reconstruction_mse(a, a) == 0.0

    def test_zeros_vs_ones(self):
        raw = Dataset(np.zeros((2, 3)), np.zeros(2, dtype=int), 2)
        rec = Dataset(np.ones((2, 3)), np.zeros(2, dtype=int), 2)
        assert reconstruction_mse(raw, rec) == 1.0

    def test_shape_mismatch_rejected(self):
        raw = Dataset(np.zeros((2, 3)), np.zeros(2, dtype=int), 2)
        rec = Dataset(np.zeros((2, 4)), np.zeros(2, dtype=int), 2)
        with pytest.raises(ValueError):
            reconstruction_mse(raw, rec)

    def test_published_reference_constants(self):
        # the original evaluation's grid, carried for reporting only
        idx = PUBLISHED_PRUNE_RATES.index(0.6)
        assert PUBLISHED_MSE[idx] == 2.4632
        assert PUBLISHED_NOISE_LEVELS[idx] == 1e-2
        assert PUBLISHED_MSE[-1] == 2.9257
        assert DEFENDED_MSE_THRESHOLD == 1.49


class TestDlgReconstruct:
    def test_exact_gradient_recovers_sample(self):
        cfg, params, raw, grad = single_sample_instance(seed=3)
        rec = dlg_reconstruct(cfg, params, grad, (1, 8), iterations=300, seed=1)
        assert reconstruction_mse(raw, rec) < 1e-2

    def test_fixed_point_returns_init_unchanged(self):
        cfg, params, _, _ = single_sample_instance(seed=4)
        # compute the gradient the dummy initialization itself induces
        rng = np.random.default_rng(9)
        x0 = rng.uniform(0, 1, (1, 8))
        z0 = rng.standard_normal((1, 2))
        soft = np.exp(z0 - z0.max()) / np.exp(z0 - z0.max()).sum()
        observed = backward_soft(params, cfg, x0, soft)
        rec = dlg_reconstruct(cfg, params, observed, (1, 8), iterations=50, seed=9)
        assert np.array_equal(rec.features, x0)

    @pytest.mark.parametrize("hidden", [(), (3,)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_loss_start_returns_init_bitwise(self, hidden, n, monkeypatch):
        # the observed gradient is the dummy initialization's own, so the
        # matching loss is exactly 0 at the start, and one evaluation ends it
        calls = []
        monkeypatch.setattr(fedaudit.privacy, "matching_loss",
                            lambda *args: calls.append(args) or matching_loss(*args))
        cfg = ModelConfig(5, hidden, 3)
        params = init_params(cfg, 21)
        rng = np.random.default_rng(4)
        x0 = rng.uniform(0, 1, (n, 5))
        z0 = rng.standard_normal((n, 3))
        expd = np.exp(z0 - z0.max(axis=1, keepdims=True))
        observed = backward_soft(params, cfg, x0, expd / expd.sum(axis=1, keepdims=True))
        rec = dlg_reconstruct(cfg, params, observed, (n, 5), iterations=50, seed=4)
        assert np.array_equal(rec.features, x0)
        assert np.array_equal(rec.labels, z0.argmax(axis=1))
        assert len(calls) == 1

    def test_noise_degrades_reconstruction_10x(self):
        cfg, params, raw, grad = single_sample_instance(seed=5)
        clean = dlg_reconstruct(cfg, params, grad, (1, 8), iterations=300, seed=2)
        rng = np.random.default_rng(8)
        noised_grad = grad + rng.normal(0, np.sqrt(1e-1), grad.shape)
        noised = dlg_reconstruct(cfg, params, noised_grad, (1, 8),
                                 iterations=300, seed=2)
        assert (reconstruction_mse(raw, noised)
                >= 10 * reconstruction_mse(raw, clean))

    def test_non_finite_gradient_diverges_with_last_iterate(self, monkeypatch):
        # the loss turns NaN at its sixth evaluation, so the last finite
        # iterate is the fifth point evaluated
        points = []

        def nan_at_sixth(params, config, x, z, observed):
            points.append(np.array(x))
            value, x_grad, z_grad = matching_loss(params, config, x, z, observed)
            return (value * np.nan if len(points) == 6 else value), x_grad, z_grad
        monkeypatch.setattr(fedaudit.privacy, "matching_loss", nan_at_sixth)
        cfg, params, _, grad = single_sample_instance(seed=6)
        with pytest.raises(ReconstructionDivergedError) as err:
            dlg_reconstruct(cfg, params, grad, (1, 8), iterations=50, seed=0)
        assert len(points) == 6
        assert err.value.last_batch.features.shape == (1, 8)
        assert err.value.last_batch.features.tobytes() == points[4].tobytes()

    def test_non_finite_start_diverges_with_the_start(self):
        cfg, params, _, grad = single_sample_instance(seed=6)
        bad = grad.copy()
        bad[0] = np.nan
        with pytest.raises(ReconstructionDivergedError) as err:
            dlg_reconstruct(cfg, params, bad, (1, 8), iterations=50, seed=0)
        start = np.random.default_rng(0).uniform(0.0, 1.0, (1, 8))
        assert err.value.last_batch.features.tobytes() == start.tobytes()

    def test_noise_monotonicity_without_prune(self):
        # median over dlg-init seeds on one fixed instance, non-decreasing in variance
        cfg, params, raw, grad = single_sample_instance(seed=7)
        rng = np.random.default_rng(11)
        direction = rng.standard_normal(grad.shape)
        medians = []
        for nv in (0.0, 1e-3, 1e-1):
            mses = []
            for dlg_seed in range(5):
                rec = dlg_reconstruct(cfg, params, grad + np.sqrt(nv) * direction,
                                      (1, 8), iterations=200, seed=dlg_seed)
                mses.append(reconstruction_mse(raw, rec))
            medians.append(float(np.median(mses)))
        assert medians[0] <= medians[1] <= medians[2]

    def test_no_finite_difference_evaluations(self, monkeypatch):
        # with the exact gradient L-BFGS-B needs about one evaluation per
        # iteration; a finite-difference estimate would add n*(dim + k) more
        calls = []
        monkeypatch.setattr(fedaudit.privacy, "matching_loss",
                            lambda *args: calls.append(args) or matching_loss(*args))
        cfg, params, _, grad = single_sample_instance(seed=3)
        (rec,) = reconstruct_batch(cfg, params[None], grad[None], (1, 8), 300, [1])
        assert len(calls) == rec.nfev
        assert rec.nit > 10
        assert rec.nfev <= 3 * rec.nit + 5
        calls.clear()
        dlg_reconstruct(cfg, params, grad, (1, 8), iterations=300, seed=1)
        assert len(calls) == rec.nfev

    def test_zero_iterations_rejected(self):
        cfg, params, _, grad = single_sample_instance()
        with pytest.raises(ValueError, match="iterations"):
            dlg_reconstruct(cfg, params, grad, (1, 8), iterations=0)

    def test_gradient_dim_checked(self):
        cfg, params, _, grad = single_sample_instance()
        with pytest.raises(ValueError):
            dlg_reconstruct(cfg, params, grad[:-1], (1, 8), iterations=10)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_batch_without_samples_rejected(self, samples):
        cfg, params, _, grad = single_sample_instance()
        with pytest.raises(ValueError, match="batch_shape"):
            dlg_reconstruct(cfg, params, grad, (samples, 8), iterations=5)


def run_fresh(code: str) -> list[str]:
    """Run `code` in a new interpreter that imports this checkout's fedaudit
    and this directory's test modules; returns the words it printed."""
    paths = [str(Path(fedaudit.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
    return out.stdout.split()


def test_import_leaves_scipy_optimize_unloaded():
    # neither the package nor a whole leakage grid, its forked worker allowed,
    # imports scipy.optimize: the grid loads only the compiled L-BFGS-B core
    code = """if True:
        import os, sys
        import fedaudit
        print('scipy.optimize' in sys.modules)
        from fedaudit.simulator import DLGExperimentConfig, _can_fork, run_dlg_experiment
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(1) or fork()
        can_fork = _can_fork()
        run_dlg_experiment(DLGExperimentConfig(
            noise_variances=(0.0, 1e-2), prune_rates=(0.0, 0.5), instances=2,
            iterations=40, input_dim=4, num_classes=2, seed=3))
        print(len(forks) == can_fork, 'scipy.optimize' in sys.modules,
              'scipy.optimize._lbfgsb' in sys.modules)
    """
    assert run_fresh(code) == ["False", "True", "False", "True"]


class TestCoreLoader:
    """privacy.minimize loads scipy's compiled L-BFGS-B core by itself, and
    shares one copy of it with scipy.optimize whichever is imported first."""

    def test_reuses_the_core_scipy_optimize_loaded(self):
        code = """if True:
            import sys
            import scipy.optimize
            core = sys.modules["scipy.optimize._lbfgsb"]
            calls, setulb = [], core.setulb
            core.setulb = lambda *args: calls.append(1) or setulb(*args)
            from fedaudit import privacy
            from test_privacy import single_sample_instance
            cfg, params, _, grad = single_sample_instance(seed=3)
            privacy.dlg_reconstruct(cfg, params, grad, (1, 8), iterations=20, seed=1)
            print(core is scipy.optimize._lbfgsb, privacy._lbfgsb_core() is core,
                  len(calls) > 0)
        """
        assert run_fresh(code) == ["True", "True", "True"]

    def test_scipy_optimize_imported_later_uses_the_loaded_core(self):
        code = """if True:
            import sys
            import numpy as np
            from fedaudit import privacy
            from test_privacy import matching_problem
            fun, u0, lower, upper, _ = matching_problem((3,), 1)
            ours = privacy.minimize(fun, u0, lower, upper, 300)
            core = sys.modules["scipy.optimize._lbfgsb"]
            print('scipy.optimize' in sys.modules)
            import scipy.optimize
            bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
                      for lo, hi in zip(lower, upper)]
            theirs = scipy.optimize.minimize(fun, u0, jac=True, method="L-BFGS-B",
                                             bounds=bounds, options={"maxiter": 300})
            print(sys.modules["scipy.optimize._lbfgsb"] is core,
                  np.array_equal(ours.x, theirs.x), ours.fun == theirs.fun,
                  (ours.nit, ours.nfev) == (theirs.nit, theirs.nfev), ours.nit > 5)
        """
        assert run_fresh(code) == ["False"] + ["True"] * 5

    def test_missing_extension_names_the_directory(self, tmp_path):
        code = f"""if True:
            import sys
            from fedaudit import privacy
            try:
                privacy._load_extension("scipy.optimize._lbfgsb", {str(tmp_path)!r})
            except ImportError as exc:
                print({str(tmp_path)!r} in str(exc))
            print('scipy.optimize._lbfgsb' in sys.modules)
        """
        assert run_fresh(code) == ["True", "False"]


def matching_problem(hidden, seed):
    """A seeded leakage problem in dlg_reconstruct's form: the matching loss
    of a batch of 1-2 samples against its own gradient (noised on seeds not
    divisible by 3), with the features in [0, 1] and free label logits."""
    rng = np.random.default_rng(seed)
    n, dim, k = 1 + seed % 2, 4 + seed % 5, 2 + seed % 2
    cfg = ModelConfig(dim, hidden, k)
    params = init_params(cfg, seed)
    raw = Dataset(rng.uniform(0, 1, (n, dim)), rng.integers(0, k, n), k)
    observed = (backward(params, cfg, raw)
                + (seed % 3) * 0.01 * rng.standard_normal(param_count(cfg)))
    u0 = np.concatenate([rng.uniform(0, 1, n * dim), rng.standard_normal(n * k)])
    return (matching_objective(cfg, params, observed, n), u0,
            *attack_bounds(n, dim, k), n * dim)


def matching_objective(cfg, params, observed, n):
    """The matching loss and its gradient as a function of one flat dummy
    point u = [features, label logits]."""
    split = n * cfg.input_dim

    def fun(u):
        val, x_grad, z_grad = matching_loss(params, cfg, u[:split].reshape(n, -1),
                                            u[split:].reshape(n, -1), observed)
        return val, np.concatenate([x_grad.ravel(), z_grad.ravel()])
    return fun


def attack_bounds(n, dim, k):
    """The attack's box: features in [0, 1], free label logits."""
    lower = np.concatenate([np.zeros(n * dim), np.full(n * k, -np.inf)])
    upper = np.concatenate([np.ones(n * dim), np.full(n * k, np.inf)])
    return lower, upper


def scipy_bounds(lower, upper):
    return [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
            for lo, hi in zip(lower, upper)]


class TestMinimizeOracle:
    """privacy.minimize drives scipy's L-BFGS-B core itself; scipy's public
    minimize is the oracle it must match bitwise."""

    @staticmethod
    def solve_both(hidden, seed, maxiter, one_sided=False):
        from scipy.optimize import minimize as scipy_minimize
        fun, u0, lower, upper, features = matching_problem(hidden, seed)
        if one_sided:  # the first feature keeps only >= 0, the second <= 1
            lower[1], upper[0] = -np.inf, np.inf
        ours = fedaudit.privacy.minimize(fun, u0, lower, upper, maxiter)
        theirs = scipy_minimize(fun, u0, jac=True, method="L-BFGS-B",
                                bounds=scipy_bounds(lower, upper), options={"maxiter": maxiter})
        assert np.array_equal(ours.x, theirs.x)
        assert ours.fun == theirs.fun
        assert (ours.nit, ours.nfev) == (theirs.nit, theirs.nfev)
        return ours, features

    @pytest.mark.parametrize("hidden", [(), (3,)])
    @pytest.mark.parametrize("seed", range(4))
    def test_converged_runs_equal_scipy(self, hidden, seed):
        ours, _ = self.solve_both(hidden, seed, 300)
        assert 5 < ours.nit < 300

    @pytest.mark.parametrize("hidden", [(), (3,)])
    @pytest.mark.parametrize("seed", range(4))
    def test_runs_stopped_by_maxiter_equal_scipy(self, hidden, seed):
        ours, _ = self.solve_both(hidden, seed, 5)
        assert ours.nit == 5

    def test_run_ending_on_a_feature_bound_equals_scipy(self):
        ours, features = self.solve_both((), 1, 300)
        assert np.isin(ours.x[:features], (0.0, 1.0)).any()

    @pytest.mark.parametrize("seed", range(4))
    def test_one_sided_bounds_equal_scipy(self, seed):
        self.solve_both((), seed, 300, one_sided=True)


def test_minimize_returns_none_once_the_value_is_non_finite():
    fun, u0, lower, upper, _ = matching_problem((), 0)
    assert fedaudit.privacy.minimize(lambda u: (np.nan, fun(u)[1]), u0, lower, upper, 300) is None


class TestMatchingLoss:
    """matching_loss against central differences, in the style of criterion 7."""

    @pytest.mark.parametrize("hidden", [(), (3,), (4, 2)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gradient_matches_central_differences(self, hidden, n):
        rng = np.random.default_rng(len(hidden) * 10 + n)
        cfg = ModelConfig(4, hidden, 3)
        params = init_params(cfg, n) + 0.3 * rng.standard_normal(param_count(cfg))
        observed = 0.1 * rng.standard_normal(param_count(cfg))
        x = rng.uniform(0, 1, (n, 4))
        z = rng.standard_normal((n, 3))
        _, x_grad, z_grad = matching_loss(params, cfg, x, z, observed)

        step = 1e-5
        for point, analytic in ((x, x_grad), (z, z_grad)):
            assert analytic.shape == point.shape
            numeric = np.empty_like(point)
            for idx in np.ndindex(point.shape):
                saved = point[idx]
                point[idx] = saved + step
                up = matching_loss(params, cfg, x, z, observed)[0]
                point[idx] = saved - step
                down = matching_loss(params, cfg, x, z, observed)[0]
                point[idx] = saved
                numeric[idx] = (up - down) / (2 * step)
            scale = np.abs(numeric).max()
            assert scale > 1e-3
            assert np.abs(analytic - numeric).max() <= 1e-6 * scale

    @pytest.mark.parametrize("hidden", [(), (3,), (4, 2)])
    def test_value_is_squared_gradient_mismatch(self, hidden):
        rng = np.random.default_rng(5)
        cfg = ModelConfig(4, hidden, 3)
        params = init_params(cfg, 2)
        observed = rng.standard_normal(param_count(cfg))
        x = rng.uniform(0, 1, (2, 4))
        z = rng.standard_normal((2, 3))
        soft = np.exp(z - z.max(axis=1, keepdims=True))
        soft /= soft.sum(axis=1, keepdims=True)
        expected = np.sum((backward_soft(params, cfg, x, soft) - observed) ** 2)
        value, _, _ = matching_loss(params, cfg, x, z, observed)
        assert abs(value - expected) <= 1e-12 * max(1.0, expected)

    @pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
    @pytest.mark.parametrize("stack", [1, 3, 150])
    @pytest.mark.parametrize("n", [1, 2])
    def test_stacked_rows_equal_single_calls_bitwise(self, hidden, stack, n):
        cfg, params, x, z, observed = stacked_loss_inputs(hidden, stack, n)
        values, x_grads, z_grads = matching_loss(params, cfg, x, z, observed)
        assert values.shape == (stack,)
        assert x_grads.shape == x.shape and z_grads.shape == z.shape
        for row in range(stack):
            value, x_grad, z_grad = matching_loss(params[row], cfg, x[row], z[row],
                                                  observed[row])
            assert np.float64(value).tobytes() == values[row].tobytes()
            assert x_grad.tobytes() == x_grads[row].tobytes()
            assert z_grad.tobytes() == z_grads[row].tobytes()

    def test_nan_observed_row_leaves_the_other_rows(self):
        cfg, params, x, z, observed = stacked_loss_inputs((5,), 3, 2)
        clean = matching_loss(params, cfg, x, z, observed)
        observed[1, 4] = np.nan
        poisoned = matching_loss(params, cfg, x, z, observed)
        assert np.isnan(poisoned[0][1])
        for clean_part, poisoned_part in zip(clean, poisoned):
            assert clean_part[[0, 2]].tobytes() == poisoned_part[[0, 2]].tobytes()


def stacked_loss_inputs(hidden, stack, n):
    """Matching-loss inputs for `stack` independent rows on one model."""
    rng = np.random.default_rng(len(hidden) * 1000 + stack * 10 + n)
    cfg = ModelConfig(4, hidden, 3)
    d = param_count(cfg)
    params = (np.array([init_params(cfg, row) for row in range(stack)])
              + 0.3 * rng.standard_normal((stack, d)))
    x = rng.uniform(0, 1, (stack, n, 4))
    z = rng.standard_normal((stack, n, 3))
    observed = 0.1 * rng.standard_normal((stack, d))
    return cfg, params, x, z, observed


def lockstep_problems(hidden, n, count):
    """`count` seeded leakage problems on one model, in reconstruct_batch's
    form: the (count, d) parameter and observed-gradient stacks (the
    gradient of a random batch, noised on problems not divisible by 3), the
    batch shape and the dummy seeds."""
    cfg = ModelConfig(5, hidden, 3)
    d = param_count(cfg)
    params, observed = [], []
    for problem in range(count):
        rng = np.random.default_rng(100 + problem)
        params.append(init_params(cfg, problem))
        raw = Dataset(rng.uniform(0, 1, (n, 5)), rng.integers(0, 3, n), 3)
        observed.append(backward(params[-1], cfg, raw)
                        + (problem % 3) * 0.01 * rng.standard_normal(d))
    return cfg, np.array(params), np.array(observed), (n, 5), list(range(count))


class TestReconstructBatch:
    """reconstruct_batch solves its problems in lockstep; each row must equal
    its own one-problem batch bitwise, in the batch, L-BFGS-B's counts and
    the divergence flag."""

    @staticmethod
    def solve_both(cfg, params, observed, shape, seeds, iterations):
        singles = [reconstruct_batch(cfg, params[row:row + 1], observed[row:row + 1], shape,
                                     iterations, [seed])[0]
                   for row, seed in enumerate(seeds)]
        batch = reconstruct_batch(cfg, params, observed, shape, iterations, seeds)
        assert len(batch) == len(seeds)
        for single, rec in zip(singles, batch):
            assert rec.batch.features.tobytes() == single.batch.features.tobytes()
            assert np.array_equal(rec.batch.labels, single.batch.labels)
            assert (rec.nit, rec.nfev, rec.diverged) == (single.nit, single.nfev,
                                                         single.diverged)
        return batch

    @pytest.mark.parametrize("hidden", [(), (3,)])
    def test_converged_runs_and_bound_endings_equal_single_runs(self, hidden):
        batch = self.solve_both(*lockstep_problems(hidden, 2, 6), 300)
        assert all(5 < rec.nit < 300 for rec in batch)
        assert any(np.isin(rec.batch.features, (0.0, 1.0)).any() for rec in batch)

    def test_runs_stopped_by_maxiter_equal_single_runs(self):
        batch = self.solve_both(*lockstep_problems((3,), 1, 4), 5)
        assert [rec.nit for rec in batch] == [5] * 4

    @pytest.mark.parametrize("hidden, n, maxiter", [((), 2, 300), ((3,), 1, 300),
                                                    ((3,), 2, 5)])
    def test_each_row_equals_scipy_on_its_own_problem(self, hidden, n, maxiter):
        from scipy.optimize import minimize as scipy_minimize
        cfg, params, observed, shape, seeds = lockstep_problems(hidden, n, 4)
        batch = reconstruct_batch(cfg, params, observed, shape, maxiter, seeds)
        bounds = scipy_bounds(*attack_bounds(n, 5, 3))
        for row, (seed, rec) in enumerate(zip(seeds, batch)):
            theirs = scipy_minimize(matching_objective(cfg, params[row], observed[row], n),
                                    fedaudit.privacy._dummy_start(cfg, shape, seed),
                                    jac=True, method="L-BFGS-B", bounds=bounds,
                                    options={"maxiter": maxiter})
            assert rec.batch.features.tobytes() == theirs.x[:n * 5].tobytes()
            assert np.array_equal(rec.batch.labels, theirs.x[n * 5:].reshape(n, 3).argmax(1))
            assert (rec.nit, rec.nfev, rec.diverged) == (theirs.nit, theirs.nfev, False)

    def test_problems_sharing_a_seed_share_one_draw_not_one_array(self, monkeypatch):
        # rows 0 and 1 are the same problem from the same seed; one start is
        # drawn for both, and each row still runs on its own copy of it
        cfg, params, observed, shape, _ = lockstep_problems((3,), 2, 3)
        params[1], observed[1] = params[0], observed[0]
        draws = []
        dummy_start = fedaudit.privacy._dummy_start
        monkeypatch.setattr(fedaudit.privacy, "_dummy_start",
                            lambda *args: draws.append(args[-1]) or dummy_start(*args))
        batch = self.solve_both(cfg, params, observed, shape, [7, 7, 8], 300)
        assert sorted(draws) == [7, 7, 7, 8, 8]  # three single runs, then two for the batch
        assert batch[0].batch.features.tobytes() == batch[1].batch.features.tobytes()
        assert (batch[0].nit, batch[0].nfev) == (batch[1].nit, batch[1].nfev)
        assert batch[0].nit > 5

    def test_zero_loss_start_is_one_evaluation(self):
        cfg, params, observed, shape, seeds = lockstep_problems((), 2, 3)
        # problem 1 observes its dummy initialization's own gradient
        rng = np.random.default_rng(seeds[1])
        x0 = rng.uniform(0, 1, shape)
        z0 = rng.standard_normal((shape[0], 3))
        expd = np.exp(z0 - z0.max(axis=1, keepdims=True))
        observed[1] = backward_soft(params[1], cfg, x0, expd / expd.sum(axis=1, keepdims=True))
        batch = self.solve_both(cfg, params, observed, shape, seeds, 300)
        assert (batch[1].nit, batch[1].nfev) == (0, 1)
        assert batch[1].batch.features.tobytes() == x0.tobytes()
        assert batch[0].nfev > 1 and batch[2].nfev > 1

    def test_problems_diverging_leave_the_rest_unchanged(self, monkeypatch):
        cfg, params, observed, shape, seeds = lockstep_problems((3,), 1, 4)
        clean = reconstruct_batch(cfg, params, observed, shape, 300, seeds)
        # problem 3's loss is NaN from its first evaluation; problem 1's
        # turns NaN at its sixth, after five finite ones
        observed[3, 0] = np.nan
        target, points = observed[1].copy(), []

        def nan_from_sixth(params, config, x, z, observed):
            value, x_grad, z_grad = matching_loss(params, config, x, z, observed)
            hit = np.all(observed == target, axis=-1)
            if hit.any():
                points.append(x[hit][0].copy())
                if len(points) % 6 == 0:
                    value = np.where(hit, np.nan, value)
            return value, x_grad, z_grad

        monkeypatch.setattr(fedaudit.privacy, "matching_loss", nan_from_sixth)
        batch = self.solve_both(cfg, params, observed, shape, seeds, 300)
        assert clean[1].nfev > 6
        assert len(points) == 12  # six in the single run, six in the batch
        assert [rec.diverged for rec in batch] == [False, True, False, True]
        # a diverged row's batch is its last finite iterate: problem 1's
        # fifth point, problem 3's start
        assert batch[1].batch.features.tobytes() == points[10].tobytes()
        start = fedaudit.privacy._dummy_start(cfg, shape, seeds[3])[:5]
        assert batch[3].batch.features.tobytes() == start.tobytes()
        for row in (0, 2):
            assert batch[row].batch.features.tobytes() == clean[row].batch.features.tobytes()
            assert (batch[row].nit, batch[row].nfev) == (clean[row].nit, clean[row].nfev)

    def test_stacks_must_match_the_seeds(self):
        cfg, params, observed, shape, seeds = lockstep_problems((), 1, 2)
        for bad_params, bad_observed, bad_seeds in ((params, observed[:1], seeds),
                                                    (params[:1], observed, seeds),
                                                    (params, observed, seeds + [2])):
            with pytest.raises(ValueError, match="stacks"):
                reconstruct_batch(cfg, bad_params, bad_observed, shape, 10, bad_seeds)
        with pytest.raises(ValueError, match="iterations"):
            reconstruct_batch(cfg, params, observed, shape, 0, seeds)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_batch_without_samples_rejected(self, samples):
        cfg, params, observed, _, seeds = lockstep_problems((), 1, 2)
        with pytest.raises(ValueError, match="batch_shape"):
            reconstruct_batch(cfg, params, observed, (samples, 5), 10, seeds)
