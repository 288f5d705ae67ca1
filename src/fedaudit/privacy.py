"""Client-side privacy transforms and the gradient-leakage reconstruction attack.

The upload pipeline is noise first, then prune: coordinates zeroed by the
prune stay zero even though noise was added before them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class PrivacyConfig:
    """Gaussian noise variance and prune rate applied to every upload."""

    noise_variance: float = 0.0
    prune_rate: float = 0.0

    def __post_init__(self):
        if self.noise_variance < 0:
            raise ValueError("noise_variance: must be >= 0")
        if not 0 <= self.prune_rate < 1:
            raise ValueError("prune_rate: must lie in [0, 1)")


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use: it is most of the time
    `import fedaudit` would take, and only dlg_reconstruct needs it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


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
            # scipy's minimize lets the exception through to the caller
            raise ReconstructionDivergedError(
                "matching loss went non-finite during reconstruction",
                to_batch(last_finite["u"]))
        last_finite["u"] = u.copy()
        return val, np.concatenate([x_grad.ravel(), z_grad.ravel()])

    bounds = [(0.0, 1.0)] * (n * dim) + [(None, None)] * (n * k)
    result = minimize(objective, u0, jac=True, method="L-BFGS-B", bounds=bounds,
                      options={"maxiter": iterations})
    u_final = result.x if np.all(np.isfinite(result.x)) else last_finite["u"]
    return to_batch(u_final)
