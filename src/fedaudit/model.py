"""Flat-vector classifier core: MLP with softmax cross-entropy and SGD.

Every routine works on a single flat parameter vector so that uploads,
aggregation, noise, pruning, and audits all handle plain numpy arrays.
Hidden layers use tanh (smooth, so finite-difference gradient checks hold
coordinate-wise).
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .data import Dataset


def param_count(config: ModelConfig) -> int:
    """Total number of parameters (weights plus biases across layers)."""
    return config.layout[-1][1]


def init_params(config: ModelConfig, seed: int) -> np.ndarray:
    """Uniform weights in +-1/sqrt(fan_in), zero biases. Deterministic per seed."""
    rng = np.random.default_rng(seed)
    params = np.zeros(param_count(config))
    for start, _, fan_in, fan_out in config.layout:
        bound = 1.0 / np.sqrt(fan_in)
        params[start:start + fan_in * fan_out] = rng.uniform(-bound, bound, fan_in * fan_out)
    return params


def _augmented(params: np.ndarray, config: ModelConfig) -> list[np.ndarray]:
    """Per-layer [W; b] views, (fan_in + 1, fan_out), of a flat parameter
    vector; a (T, d) stack gives (T, ...)-stacked views. A layer's slice
    holds W row-major then b, which is that matrix's own row-major layout,
    so nothing is copied."""
    lead = params.shape[:-1]
    if len(lead) > 1 or params.shape[-1:] != (param_count(config),):
        raise ValueError(
            f"parameter vector has shape {params.shape}, model needs {param_count(config)}")
    return [params[..., start:end].reshape(*lead, fan_in + 1, fan_out)
            for start, end, fan_in, fan_out in config.layout]


def _check_batch(config: ModelConfig, batch: Dataset):
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    if batch.features.shape[1] != config.input_dim:
        raise ValueError(
            f"batch feature dim {batch.features.shape[1]} != model input_dim {config.input_dim}")


def _with_ones(x: np.ndarray) -> np.ndarray:
    """[x, 1]: x with a trailing ones column, the input a [W; b] layer takes."""
    out = np.empty((*x.shape[:-1], x.shape[-1] + 1))
    out[..., -1] = 1.0
    out[..., :-1] = x
    return out


def _lead(h: np.ndarray, wb: np.ndarray) -> tuple[int, ...]:
    """Stack shape of the product h @ wb. Each operand's stack is () or the
    shared one, so the first non-empty one is it; np.broadcast_shapes costs
    microseconds a call, which shows on the smallest training steps."""
    return h.shape[:-2] or wb.shape[:-2]


def _forward(layers, features: np.ndarray) -> list[np.ndarray]:
    """Layer inputs [x, h1, ...] for [W; b] layers and (n, d + 1) features
    [x, 1], or for a (C, n, d + 1) stack under (C, ...)-stacked layers.
    (n, d + 1) features under (T, ...)-stacked layers give (T, n, ...): T
    parameter vectors scored on one dataset. The output layer's product is
    the caller's: accuracy and _backprop form class-first logits with
    _class_first_logits, and the tests' row-major reference loss forms
    hidden[-1] @ layers[-1], independent of them. Every layer input carries
    the ones column, so a layer is one matmul. A hidden layer's product is
    written into the first columns of an array whose last column is 1, and
    tanh runs there in place, because a second temporary of the output's
    size costs more than the arithmetic."""
    hidden = [features]
    for wb in layers[:-1]:
        h = hidden[-1]
        aug = np.empty((*_lead(h, wb), h.shape[-2], wb.shape[-1] + 1))
        aug[..., -1] = 1.0
        out = np.matmul(h, wb, out=aug[..., :-1])
        np.tanh(out, out=out)
        hidden.append(aug)
    return hidden


def _class_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the leading (class) axis, bitwise equal to np.add.reduce over
    a row-major class axis: numpy's pairwise order, replayed on whole class
    rows. Under 8 terms numpy adds in sequence; up to 128 it keeps eight
    strided accumulators, adds them as a tree and then the remainder in
    sequence; above 128 it splits in halves cut at a multiple of 8. The tree
    adds one pair of rows at a time, which on 8 classes beats adding
    strided stacks of rows."""
    k = x.shape[0]
    if k < 8:
        return np.add.reduce(x, axis=0)
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _class_sum(x[:half]) + _class_sum(x[half:])
    tail = k - k % 8
    acc = x
    if tail > 8:
        acc = x[:8] + x[8:16]
        for i in range(16, tail, 8):
            acc += x[i:i + 8]
    out = acc[0] + acc[1]
    out += acc[2] + acc[3]
    right = acc[4] + acc[5]
    right += acc[6] + acc[7]
    out += right
    for i in range(tail, k):
        out += x[i]
    return out


def _class_first_logits(h: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Output-layer logits of [h, 1] layer input h, written as wb^T h^T into
    a class-first (k, *lead, n) array. Each stacked (k, n) product goes into
    the class rows of a (k, C, n) buffer; one unstacked product is that
    buffer already, and skipping the allocation shows on the leakage
    attack's single-sample steps."""
    lead = _lead(h, wb)
    if not lead:
        return wb.mT @ h.mT
    logits = np.empty((wb.shape[-1], *lead, h.shape[-2]))
    np.matmul(wb.mT, h.mT, out=logits.swapaxes(0, -2))
    return logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the leading (class) axis of class-first (k, ...) logits.
    Every max, exp, sum and divide runs over whole class rows rather than
    many short class vectors. max is exact and _class_sum keeps numpy's
    order, so the result is bitwise that of a row-major softmax over the
    last axis."""
    probs = logits - np.maximum.reduce(logits, axis=0)
    np.exp(probs, out=probs)
    probs /= _class_sum(probs)
    return probs


def _backprop(layers, features: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy against class-first (k, *lead, n) target
    distributions, backpropagated: layer inputs [[x, 1], [h1, 1], ...],
    class-first softmax probabilities, per-layer output deltas [d0, d1, ...]
    and per-layer gradients [h_i, 1]^T d_i, which is [dW; db] in one product.
    Same rank rules as _forward; lead is the stack shape, at most one axis,
    and (k, 1, n) targets serve every row of a (T, ...) stack on one dataset.

    The output layer is class-first: its logits (_class_first_logits) are a
    (k, *lead, n) buffer, where the softmax and the output delta
    (probs - targets) / n are formed. That delta reaches the gradient
    product as a column-major (*lead, n, k) view; hidden deltas are
    row-major."""
    hidden = _forward(layers, features)
    logits = _class_first_logits(hidden[-1], layers[-1])
    n = logits.shape[-1]
    probs = _softmax(logits)
    np.subtract(probs, targets, out=logits)
    logits /= n
    delta = logits.swapaxes(0, -2).mT
    deltas = [None] * len(layers)
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        deltas[i] = delta
        grads[i] = hidden[i].mT @ delta
        if i > 0:
            delta = (delta @ layers[i][..., :-1, :].mT) * (1.0 - hidden[i][..., :-1] ** 2)
    return hidden, probs, deltas, grads


def _grads(layers, features: np.ndarray, targets: np.ndarray) -> list[np.ndarray]:
    """Per-layer [dW; db] of mean cross-entropy against class-first
    (k, *lead, n) target distributions; same rank rules as _forward."""
    return _backprop(layers, features, targets)[3]


def _flatten(layers) -> np.ndarray:
    """Inverse of _augmented; a (C, ...)-stacked layer list gives (C, d)."""
    return np.concatenate([wb.reshape(*wb.shape[:-2], -1) for wb in layers], axis=-1)


def _onehot(labels: np.ndarray, k: int) -> np.ndarray:
    """Class-first one-hot targets, (k, *labels.shape)."""
    return np.equal.outer(np.arange(k), labels).astype(np.float64)


def _first_max_hits(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Whether argmax over the class axis of class-first (k, *lead, n)
    logits equals labels, (*lead, n), without forming the index: a scan
    over the class rows keeps the running maximum and whether the class
    holding it is the label. Only a strictly greater logit takes over, so
    the first maximum wins ties, as in argmax. A NaN logit leaves a NaN
    running maximum, and then argmax decides, which ranks NaN highest. The
    scan uses boolean operations only: a masked copy or np.where costs
    several times more per class row."""
    is_label = labels == np.arange(len(logits))[:, None]
    best = logits[0].copy()
    hit = np.broadcast_to(is_label[0], best.shape).copy()
    gt = np.empty_like(hit)
    flip = np.empty_like(hit)
    for c in range(1, len(logits)):
        np.greater(logits[c], best, out=gt)
        np.maximum(best, logits[c], out=best)
        # hit becomes is_label[c] where gt holds, and stays elsewhere
        np.not_equal(hit, is_label[c], out=flip)
        flip &= gt
        hit ^= flip
    if np.isnan(best).any():
        return logits.argmax(axis=0) == labels
    return hit


def accuracy(params: np.ndarray, config: ModelConfig,
             dataset: Dataset) -> float | np.ndarray:
    """Fraction of argmax-correct predictions on the dataset. A (T, d) stack
    of parameter vectors gives the (T,) array of each row's accuracy, equal
    bitwise to scoring the rows one at a time. A single vector and a stack
    are both scored on class-first logits by _first_max_hits."""
    _check_batch(config, dataset)
    layers = _augmented(params, config)
    h = _forward(layers, _with_ones(dataset.features))[-1]
    hit = _first_max_hits(_class_first_logits(h, layers[-1]), dataset.labels)
    hits = np.add.reduce(hit, axis=-1) / len(dataset)
    return hits if params.ndim == 2 else float(hits)


def backward(params: np.ndarray, config: ModelConfig, batch: Dataset) -> np.ndarray:
    """Gradient of the mean cross-entropy with respect to every parameter."""
    _check_batch(config, batch)
    return _flatten(_grads(_augmented(params, config), _with_ones(batch.features),
                           _onehot(batch.labels, config.num_classes)))


def backward_soft(params: np.ndarray, config: ModelConfig, features: np.ndarray,
                  target_probs: np.ndarray) -> np.ndarray:
    """Cross-entropy gradient against soft target distributions (rows sum to 1)."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != config.input_dim:
        raise ValueError("features must be (n, input_dim)")
    if target_probs.shape != (features.shape[0], config.num_classes):
        raise ValueError("target_probs must be (n, num_classes)")
    return _flatten(_grads(_augmented(params, config), _with_ones(features), target_probs.T))


def matching_loss(params: np.ndarray, config: ModelConfig, features: np.ndarray,
                  label_logits: np.ndarray,
                  observed: np.ndarray) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """The gradient-matching loss ||backward_soft(x, softmax(z)) - observed||^2
    for (n, input_dim) features x and (n, num_classes) label logits z, with
    its exact gradients with respect to x and z. A (P, d) parameter stack
    with (P, n, input_dim) features, (P, n, num_classes) logits and (P, d)
    observed gradients gives the (P,) values and the (P, ...)-stacked
    gradients of P independent problems, each row bitwise equal to its own
    call.

    Double backprop: reverse mode through _backprop's backward pass (input
    layer first), then through the softmaxes on the logits and on z, then
    back down the tanh forward pass.
    """
    layers = _augmented(params, config)
    targets = _softmax(np.moveaxis(label_logits, -1, 0))
    hidden, probs, deltas, grads = _backprop(layers, _with_ones(features), targets)
    # the adjoint below runs row-major, on (*lead, n, k) views of the
    # class-first arrays; numpy lays out a product of a row-major and a
    # column-major operand row-major, so its class sums keep numpy's
    # pairwise order
    probs, targets = np.moveaxis(probs, 0, -1), np.moveaxis(targets, 0, -1)
    residual = _flatten(grads) - observed
    value = np.add.reduce(residual ** 2, axis=-1)
    # adjoints of each layer input h_i, and of the running delta; hidden[i]
    # is [h_i, 1], so [h_i, 1] @ [W_bar; b_bar] is h_i @ W_bar + b_bar
    hidden_bar = []
    delta_bar = None
    for i, (wb, wb_bar) in enumerate(zip(layers, _augmented(2.0 * residual, config))):
        h_bar = deltas[i] @ wb_bar[..., :-1, :].mT
        d_bar = hidden[i] @ wb_bar
        if i > 0:
            # deltas[i-1] = (deltas[i] @ w.T) * (1 - h_i^2)
            w, h = wb[..., :-1, :], hidden[i][..., :-1]
            d_bar += (delta_bar * (1.0 - h ** 2)) @ w
            h_bar -= 2.0 * delta_bar * (deltas[i] @ w.mT) * h
        hidden_bar.append(h_bar)
        delta_bar = d_bar
    # deltas[-1] = (probs - targets) / n
    delta_bar /= features.shape[-2]
    out_bar = probs * (delta_bar - np.add.reduce(delta_bar * probs, axis=-1, keepdims=True))
    z_bar = targets * (np.add.reduce(delta_bar * targets, axis=-1, keepdims=True) - delta_bar)
    for i in range(len(layers) - 1, -1, -1):
        hidden_bar[i] += out_bar @ layers[i][..., :-1, :].mT
        if i > 0:
            out_bar = hidden_bar[i] * (1.0 - hidden[i][..., :-1] ** 2)
    return value if params.ndim == 2 else float(value), hidden_bar[0], z_bar


def epoch_permutations(n: int, epochs: int, rng: np.random.Generator) -> np.ndarray:
    """Simple-shuffle schedule: one sample permutation per epoch, (epochs, n).
    One permuted call shuffles the rows in turn, drawing the stream that
    epochs calls to rng.permutation(n) would draw."""
    return rng.permuted(np.tile(np.arange(n), (epochs, 1)), axis=1)


def train_clients(params: np.ndarray, config: ModelConfig, features: np.ndarray,
                  labels: np.ndarray, eta: float, epochs: int,
                  perms: np.ndarray | None = None,
                  batch_size: int | None = None) -> np.ndarray:
    """Train C clients independently from the same starting parameters.

    features is (C, n, input_dim), labels (C, n); returns the (C, d) stack of
    trained parameter vectors. With perms/batch_size set, runs minibatch SGD
    over the given per-client epoch permutations (perms is (C, epochs, n)),
    dropping each epoch's remainder smaller than batch_size; otherwise one
    full-batch step per epoch. A single client is the C = 1 case: np.matmul
    over the stacked leading axis performs the same per-slice products.
    """
    C, n, _ = features.shape
    if labels.shape != (C, n):
        raise ValueError("labels must be (C, n)")
    features = _with_ones(features)
    targets = _onehot(labels, config.num_classes)
    if batch_size is None:
        batches = [(features, targets)] * epochs
    else:
        if perms is None or perms.shape != (C, epochs, n):
            raise ValueError("minibatch training needs perms of shape (C, epochs, n)")
        # an entry outside [0, n) would make the flat take read another
        # client's sample
        if perms.size and not 0 <= perms.min() <= perms.max() < n:
            raise ValueError("perms entries must be sample indices in [0, n)")
        # one take per epoch on the flattened client axis (cheaper than 2-D
        # fancy indexing); each step takes views of its batch_size columns
        stop = n - n % batch_size
        flat_idx = perms.swapaxes(0, 1)[..., :stop] + np.arange(C)[:, None] * n
        flat_features = features.reshape(C * n, features.shape[-1])
        flat_targets = targets.reshape(len(targets), C * n)
        gathered = ((flat_features.take(idx, axis=0), flat_targets.take(idx, axis=1))
                    for idx in flat_idx)
        batches = ((f[:, s:s + batch_size], t[..., s:s + batch_size])
                   for f, t in gathered for s in range(0, stop, batch_size))
    layers = [np.repeat(wb[None], C, axis=0) for wb in _augmented(params, config)]
    for batch_features, batch_targets in batches:
        # in place on the repeated copies; bitwise equal to wb - eta * g
        for wb, g in zip(layers, _grads(layers, batch_features, batch_targets)):
            g *= eta
            wb -= g
    return _flatten(layers)
