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
             maxiter: int) -> LBFGSResult:
    """L-BFGS-B (Byrd, Lu, Nocedal & Zhu, 1995) on `fun(x) -> (f, gradient)`
    over the box [lower, upper], ±inf marking a free side.

    Drives scipy's compiled core, `setulb`, step for step as scipy 1.17's
    `minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=...,
    options={"maxiter": maxiter})` does, without that wrapper's bookkeeping
    around each evaluation: the same x, fun, nit and nfev, bitwise (the oracle
    test in tests/test_privacy.py holds it to that). `fun` is called once per
    distinct point, with a fresh copy of it. The core is loaded on first use
    without scipy.optimize's package (`_lbfgsb_core`), which would be most of
    the time and memory a reconstructing process spends on imports; scipy
    stays a dependency for this one extension.
    """
    setulb = _lbfgsb_core().setulb
    m, pgtol, maxls, maxfun = 10, 1e-5, 20, 15000
    factr = 2.2204460492503131e-09 / np.finfo(float).eps  # scipy's default ftol
    n = x0.size
    has_lower, has_upper = np.isfinite(lower), np.isfinite(upper)
    # L-BFGS-B's bound codes: 0 free, 1 lower only, 2 both, 3 upper only
    nbd = np.where(has_lower, np.where(has_upper, 2, 1),
                   np.where(has_upper, 3, 0)).astype(np.int32)
    low, up = np.where(has_lower, lower, 0.0), np.where(has_upper, upper, 0.0)
    x = np.clip(x0, lower, upper)
    x_eval = x.copy()
    f_eval, g_eval = fun(x_eval.copy())
    nfev, nit = 1, 0
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    while True:
        g = g.astype(np.float64)
        setulb(m, x, low, up, nbd, f, g, factr, pgtol, wa, iwa, task, lsave, isave, dsave,
               maxls, ln_task)
        if task[0] == 3:  # FG: f and g at x, evaluated only where x moved
            if not np.array_equal(x, x_eval):
                x_eval = x.copy()
                f_eval, g_eval = fun(x_eval.copy())
                nfev += 1
            f, g = f_eval, g_eval
        elif task[0] == 1:  # NEW_X: an iteration ended
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504  # STOP: iteration limit
            elif nfev > maxfun:
                task[:] = 5, 502  # STOP: evaluation limit
        else:
            return LBFGSResult(x, f, nit, nfev)


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


def dlg_reconstruct(config: ModelConfig, params: np.ndarray,
                    observed_gradient: np.ndarray, batch_shape: tuple[int, int],
                    iterations: int = 300, seed: int = 0) -> Dataset:
    """Reconstruct a batch whose gradient at `params` matches `observed_gradient`.

    Dummy features (kept inside the normalized [0,1] box, like the raw
    inputs) and soft labels, drawn from `seed`, are optimized jointly with
    L-BFGS for at most `iterations` iterations, on the matching loss and its
    exact gradient (model.matching_loss). Returns the final dummy batch with
    argmax labels. Raises ReconstructionDivergedError if the matching loss
    goes non-finite.
    """
    if iterations < 1:
        raise ValueError("iterations: must be >= 1")
    n, dim = batch_shape
    if dim != config.input_dim:
        raise ValueError("batch_shape feature dim must equal the model input_dim")
    if observed_gradient.shape != (param_count(config),):
        raise ValueError("observed_gradient does not match the model's parameter count")
    k = config.num_classes
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.0, 1.0, (n, dim))
    z0 = rng.standard_normal((n, k))
    u0 = np.concatenate([x0.ravel(), z0.ravel()])

    def unpack(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = u[:n * dim].reshape(n, dim)
        z = u[n * dim:].reshape(n, k)
        return x, z

    def to_batch(u: np.ndarray) -> Dataset:
        x, z = unpack(u)
        return Dataset(x, z.argmax(axis=1), k)

    last_finite = {"u": u0.copy()}

    def objective(u: np.ndarray) -> tuple[float, np.ndarray]:
        val, x_grad, z_grad = matching_loss(params, config, *unpack(u), observed_gradient)
        if not math.isfinite(val):
            # minimize's loop has no handler, so this ends the reconstruction
            raise ReconstructionDivergedError(
                "matching loss went non-finite during reconstruction",
                to_batch(last_finite["u"]))
        last_finite["u"] = u  # minimize passes each point as a fresh copy
        return val, np.concatenate([x_grad.ravel(), z_grad.ravel()])

    # the features stay in [0, 1]; the label logits are free
    lower = np.concatenate([np.zeros(n * dim), np.full(n * k, -np.inf)])
    upper = np.concatenate([np.ones(n * dim), np.full(n * k, np.inf)])
    result = minimize(objective, u0, lower, upper, iterations)
    u_final = result.x if np.all(np.isfinite(result.x)) else last_finite["u"]
    return to_batch(u_final)
