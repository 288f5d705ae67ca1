"""Test references that no run calls: the row-major loss the
finite-difference checks differentiate, the one-pair form of the peer
audit report that the simulator computes in one stacked accuracy pass per
auditor, the textbook Adam step the Adam-echo riders take, and the
per-step SGD form of the stacked trainer."""

import numpy as np

from fedaudit.data import Dataset
from fedaudit.model import (ModelConfig, _augmented, _check_batch, _flatten, _grads,
                            _onehot, _with_ones, accuracy)


def row_major_logits(layers, features: np.ndarray) -> np.ndarray:
    """(*lead, n, k) logits of [W; b] layers on [x, 1] features, every layer
    a fresh row-major product: independent of the kernel's buffers and of
    its class-first output product."""
    h = features
    for wb in layers[:-1]:
        h = _with_ones(np.tanh(h @ wb))
    return h @ layers[-1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward_loss(params: np.ndarray, config: ModelConfig,
                 batch: Dataset) -> tuple[float, float]:
    """Mean softmax cross-entropy and argmax accuracy on the batch. Its
    logits are row-major on purpose: the finite-difference gradient checks
    differentiate this loss, so it stays independent of the class-first
    kernel that backward and accuracy use."""
    _check_batch(config, batch)
    logits = row_major_logits(_augmented(params, config), _with_ones(batch.features))
    logp = _log_softmax(logits)
    n = len(batch)
    loss = -float(logp[np.arange(n), batch.labels].mean())
    acc = float((logits.argmax(axis=1) == batch.labels).mean())
    return loss, acc


def audit_peer_update(auditor_shard: Dataset, config: ModelConfig,
                      theta_curr: np.ndarray, theta_prev: np.ndarray,
                      peer_update: np.ndarray) -> float:
    """One accuracy-divergence report on the auditor's own data.

    Acc(theta_curr) - Acc(theta_prev + peer_update): an upload that merely
    echoes the allocated transition scores exactly zero.
    """
    if theta_curr.shape != theta_prev.shape or theta_curr.shape != peer_update.shape:
        raise ValueError("audit parameter vectors must have matching dims")
    return (accuracy(theta_curr, config, auditor_shard)
            - accuracy(theta_prev + peer_update, config, auditor_shard))


def adam_step(params: np.ndarray, gradient: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, learning_rate: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bias-corrected Adam step t (counted from 1) with beta1 0.9, beta2 0.999
    and eps 1e-8 (Kingma and Ba, 2015): the new params and moments."""
    m = 0.9 * m + (1 - 0.9) * gradient
    v = 0.999 * v + (1 - 0.999) * gradient ** 2
    m_hat = m / (1 - 0.9 ** t)
    v_hat = v / (1 - 0.999 ** t)
    return params - learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8), m, v


def train_per_step(params: np.ndarray, config: ModelConfig, features: np.ndarray,
                   labels: np.ndarray, eta: float, epochs: int,
                   perms: np.ndarray | None = None,
                   batch_size: int | None = None) -> np.ndarray:
    """train_clients one step at a time: each step gathers its minibatch by
    fancy indexing, takes fresh gradients from _grads and forms new layers
    as wb - eta * g, so no buffer outlives a step."""
    C, n, _ = features.shape
    layers = [np.repeat(wb[None], C, axis=0) for wb in _augmented(params, config)]
    b = n if batch_size is None else batch_size
    clients = np.arange(C)[:, None]
    for e in range(epochs):
        for start in range(0, n - b + 1, b):
            idx = np.tile(np.arange(start, start + b), (C, 1)) if perms is None \
                else perms[:, e, start:start + b]
            grads = _grads(layers, _with_ones(features[clients, idx]),
                           _onehot(labels[clients, idx], config.num_classes))
            layers = [wb - eta * g for wb, g in zip(layers, grads)]
    return _flatten(layers)
