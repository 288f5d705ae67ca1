"""Client-side privacy transforms and the gradient-leakage reconstruction attack.

The upload pipeline is noise first, then prune: coordinates zeroed by the
prune stay zero even though noise was added before them.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import NamedTuple

import numpy as np

from .config import PrivacyConfig
from .data import Dataset
# backward_soft is not called here; perfbench/spans.py times it under this name
from .model import ModelConfig, backward_soft, matching_loss, param_count  # noqa: F401

# Reconstruction MSE above this counts as a defended leakage attempt.
DEFENDED_MSE_THRESHOLD = 1.49

# Reference grid from the defense's original CNN-scale evaluation. Reported
# for comparison in leakage reports; not reproduced at this scale.
PUBLISHED_PRUNE_RATES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
PUBLISHED_NOISE_LEVELS = (1e-5, 1e-5, 1e-4, 1e-4, 1e-3, 1e-3, 1e-2, 1e-2, 1e-1, 1e-1)
PUBLISHED_MSE = (0.0325, 0.0572, 0.1866, 0.2100, 1.3378,
                 1.3856, 2.4632, 2.7602, 2.9990, 2.9257)
PUBLISHED_SOTERIA_MSE = (0.0504, 0.0636, 0.0283, 0.0471, 0.0319,
                         0.6379, 1.0758, 1.4590, 1.6525, 1.2799)


class LBFGSResult(NamedTuple):
    x: np.ndarray
    fun: float
    nit: int
    nfev: int


def minimize(fun, x0: np.ndarray, lower: np.ndarray, upper: np.ndarray,
             maxiter: int) -> LBFGSResult | None:
    """L-BFGS-B (Byrd, Lu, Nocedal & Zhu, 1995) on `fun(x) -> (f, gradient)`
    over the box [lower, upper], ±inf marking a free side: _lbfgsb's
    one-problem case. The same x, fun, nit and nfev, bitwise, as scipy 1.17's
    `minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=...,
    options={"maxiter": maxiter})` (tests/test_privacy.py's oracle test),
    with `fun` called once per distinct point, on a fresh copy of it; None
    once `fun` returns a non-finite value."""
    def evaluate(rows, points, grads):
        value, grads[0] = fun(points[0])
        return [value]

    (result,), _ = _lbfgsb(evaluate, x0[None], lower, upper, maxiter)
    return result


def _lbfgsb(evaluate, x0: np.ndarray, lower: np.ndarray, upper: np.ndarray,
            maxiter: int) -> tuple[list[LBFGSResult | None], np.ndarray]:
    """L-BFGS-B from each row of x0 (P, n) in lockstep, on scipy's compiled
    core (_lbfgsb_core) step for step, each problem's workspace a row of
    arrays allocated once. Each step, `evaluate(rows, points, grads)` returns
    the values at the pending rows' points (a fresh array) and writes their
    gradients into grads[rows]; then each pending row calls `setulb` until
    it asks for a new point or ends. A non-finite value ends its row as None
    (diverged). Returns the results and each row's last point with a finite
    value (its start, if it has none)."""
    setulb = _lbfgsb_core().setulb
    m, pgtol, maxls, maxfun = 10, 1e-5, 20, 15000
    factr = 2.2204460492503131e-09 / np.finfo(float).eps  # scipy's default ftol
    problems, n = x0.shape
    has_lower, has_upper = np.isfinite(lower), np.isfinite(upper)
    # L-BFGS-B's bound codes: 0 free, 1 lower only, 2 both, 3 upper only
    nbd = np.select([has_lower & has_upper, has_lower, has_upper], [2, 1, 3]).astype(np.int32)
    low, up = np.where(has_lower, lower, 0.0), np.where(has_upper, upper, 0.0)
    x = np.clip(x0, lower, upper)
    x_eval, g = x.copy(), np.zeros((problems, n))
    # wa row by row: freeing one (P, ...) block would raise glibc's mmap threshold
    wa = [np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m) for _ in range(problems)]
    iwa, task, ln_task, lsave, isave = (np.zeros((problems, size), np.int32)
                                        for size in (3 * n, 2, 2, 4, 44))
    dsave = np.zeros((problems, 29))
    rows = list(zip(x, x_eval, g, wa, iwa, task, lsave, isave, dsave, ln_task))
    # != on memoryviews compares doubles as floats (-0.0 equals 0.0, NaN equals
    # nothing: np.array_equal's test) and indexing gives ints, without numpy calls
    seen = [tuple(map(memoryview, views)) for views in zip(x, x_eval, task)]
    nit, nfev = [0] * problems, [1] * problems
    out: list[LBFGSResult | None] = [None] * problems
    pending = list(range(problems))
    while pending:
        moved = []
        for p, fp in zip(pending, evaluate(pending, x[pending], g)):
            if not math.isfinite(fp):
                continue  # diverged: out[p] stays None
            xp, xp_eval, gp, wa, iwa, task, lsave, isave, dsave, ln_task = rows[p]
            xp_eval[:] = xp
            x_now, x_then, code = seen[p]
            while True:
                setulb(m, xp, low, up, nbd, fp, gp, factr, pgtol, wa, iwa, task, lsave,
                       isave, dsave, maxls, ln_task)
                if code[0] == 3:  # FG: f and g at x, evaluated only where x moved
                    if x_now != x_then:
                        nfev[p] += 1
                        moved.append(p)
                        break
                elif code[0] == 1:  # NEW_X: an iteration ended
                    nit[p] += 1
                    if nit[p] >= maxiter:
                        task[:] = 5, 504  # STOP: iteration limit
                    elif nfev[p] > maxfun:
                        task[:] = 5, 502  # STOP: evaluation limit
                else:
                    out[p] = LBFGSResult(xp, fp, nit[p], nfev[p])
                    break
        pending = moved
    return out, x_eval


def _lbfgsb_core():
    """scipy's compiled L-BFGS-B extension, `scipy.optimize._lbfgsb`, without
    running scipy.optimize's package __init__ (about 550 modules and 46 MB).

    A copy already in sys.modules is reused. Otherwise the extension is loaded
    from scipy's optimize directory, found without importing scipy, and
    registered under its own name, so a later `import scipy.optimize` uses
    this copy. That import does not set the package's `_lbfgsb` attribute,
    so attribute access `scipy.optimize._lbfgsb` then raises AttributeError;
    `import scipy.optimize._lbfgsb` or `from scipy.optimize import _lbfgsb`
    finds the loaded copy.
    """
    name = "scipy.optimize._lbfgsb"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError(f"{name}: scipy is not installed", name=name)
    return _load_extension(name, os.path.join(scipy.submodule_search_locations[0],
                                              "optimize"))


def _load_extension(name: str, directory: str):
    """Load and register the compiled module `name` from `directory`."""
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"{name}: no compiled extension in {directory}",
                          name=name, path=directory)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


class ReconstructionDivergedError(RuntimeError):
    """The matching loss went non-finite; carries the last finite iterate."""

    def __init__(self, message: str, last_batch: Dataset):
        super().__init__(message)
        self.last_batch = last_batch


def apply_privacy(update: np.ndarray, config: PrivacyConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """The full upload transform, as a new array: i.i.d. N(0, noise_variance)
    noise per coordinate, then round(prune_rate * d) uniformly chosen
    coordinates set to zero."""
    if config.noise_variance:
        out = update + rng.normal(0.0, np.sqrt(config.noise_variance), update.shape)
    else:
        out = update.copy()
    k = int(round(config.prune_rate * update.shape[0]))
    if k:
        out[rng.choice(update.shape[0], size=k, replace=False)] = 0.0
    return out


def reconstruction_mse(raw: Dataset, reconstructed: Dataset) -> float:
    """Mean squared difference over all feature entries."""
    if raw.features.shape != reconstructed.features.shape:
        raise ValueError(
            f"shape mismatch: {raw.features.shape} vs {reconstructed.features.shape}")
    return float(np.mean((raw.features - reconstructed.features) ** 2))


def _attack_box(config: ModelConfig, batch_shape: tuple[int, int],
                iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """Check a reconstruction's shape and iterations; the box its dummy point
    u = [features, label logits] lives in: the features stay in [0, 1] like
    the raw inputs, the label logits are free."""
    if iterations < 1:
        raise ValueError("iterations: must be >= 1")
    n, dim = batch_shape
    if n < 1:
        raise ValueError("batch_shape: must have at least one sample")
    if dim != config.input_dim:
        raise ValueError("batch_shape feature dim must equal the model input_dim")
    k = config.num_classes
    lower = np.concatenate([np.zeros(n * dim), np.full(n * k, -np.inf)])
    upper = np.concatenate([np.ones(n * dim), np.full(n * k, np.inf)])
    return lower, upper


def _dummy_start(config: ModelConfig, batch_shape: tuple[int, int], seed: int) -> np.ndarray:
    """The initial dummy point drawn from `seed`: uniform features, standard
    normal label logits."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.0, 1.0, batch_shape)
    z0 = rng.standard_normal((batch_shape[0], config.num_classes))
    return np.concatenate([x0.ravel(), z0.ravel()])


def _unpack(u: np.ndarray, config: ModelConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, input_dim) features and (n, num_classes) label logits of a dummy
    point, as views; a (P, ...) stack of points gives (P, n, ...) stacks."""
    split = n * config.input_dim
    return (u[..., :split].reshape(*u.shape[:-1], n, config.input_dim),
            u[..., split:].reshape(*u.shape[:-1], n, config.num_classes))


def _dummy_batch(u: np.ndarray, config: ModelConfig, n: int) -> Dataset:
    """The dummy batch of point u, with argmax labels."""
    x, z = _unpack(u, config, n)
    return Dataset(x, z.argmax(axis=-1), config.num_classes)


def dlg_reconstruct(config: ModelConfig, params: np.ndarray,
                    observed_gradient: np.ndarray, batch_shape: tuple[int, int],
                    iterations: int = 300, seed: int = 0) -> Dataset:
    """Reconstruct a batch whose gradient at `params` matches `observed_gradient`.

    Dummy features (kept inside the normalized [0,1] box, like the raw
    inputs) and soft labels, drawn from `seed`, are optimized jointly with
    L-BFGS for at most `iterations` iterations, on the matching loss and its
    exact gradient (model.matching_loss): reconstruct_batch's one-problem
    case. Returns the final dummy batch with argmax labels. Raises
    ReconstructionDivergedError, carrying the last finite iterate's batch,
    if the matching loss goes non-finite.
    """
    if observed_gradient.shape != (param_count(config),):
        raise ValueError("observed_gradient does not match the model's parameter count")
    (rec,) = reconstruct_batch(config, params[None], observed_gradient[None], batch_shape,
                               iterations, [seed])
    if rec.diverged:
        raise ReconstructionDivergedError(
            "matching loss went non-finite during reconstruction", rec.batch)
    return rec.batch


class Reconstruction(NamedTuple):
    batch: Dataset
    nit: int
    nfev: int
    diverged: bool


def reconstruct_batch(config: ModelConfig, params: np.ndarray, observed: np.ndarray,
                      batch_shape: tuple[int, int], iterations: int,
                      seeds: list[int]) -> list[Reconstruction]:
    """P independent reconstructions in lockstep (_lbfgsb): problem p matches
    observed[p] at params[p] from seeds[p], both (P, d) stacks, and problems
    sharing a seed share one draw of their start. Each step is one stacked
    matching_loss call, each row bitwise its own call, whose gradients go
    straight into the rows `setulb` reads. So each result, with its iteration
    and evaluation counts, is bitwise that problem's own one-problem batch. A
    problem whose matching loss goes non-finite is diverged: its batch is its
    last finite iterate's, and its counts are 0."""
    lower, upper = _attack_box(config, batch_shape, iterations)
    if params.shape != observed.shape or observed.shape != (len(seeds), param_count(config)):
        raise ValueError("params and observed must be (len(seeds), parameter count) stacks")
    n = batch_shape[0]
    starts = {seed: _dummy_start(config, batch_shape, seed) for seed in set(seeds)}

    def evaluate(rows, points, grads):
        x_grads, z_grads = _unpack(grads, config, n)
        values, x_grads[rows], z_grads[rows] = matching_loss(
            params[rows], config, *_unpack(points, config, n), observed[rows])
        return values

    results, finite = _lbfgsb(evaluate, np.array([starts[seed] for seed in seeds]),
                              lower, upper, iterations)
    return [Reconstruction(_dummy_batch(u, config, n), 0, 0, True) if result is None else
            Reconstruction(_dummy_batch(result.x if np.all(np.isfinite(result.x)) else u,
                                        config, n), result.nit, result.nfev, False)
            for result, u in zip(results, finite)]
