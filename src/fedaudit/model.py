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


def _pairwise_adds(lo: int, hi: int, free: int, adds: list) -> tuple[int, int]:
    """Append to adds the (a, b, out) operands of the np.add calls that sum
    rows lo..hi-1 of a class-first buffer in numpy's pairwise order, bitwise
    equal to np.add.reduce over a row-major class axis, and return the row
    that holds the sum and the next free row. An operand is a row index, or
    a slice of rows added as one block; rows from free up are scratch.
    Under 8 terms numpy adds in sequence; up to 128 it keeps eight strided
    accumulators, adds them as a tree and then the remainder in sequence;
    above 128 it splits in halves cut at a multiple of 8. The tree
    ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)) is three adds, one a
    level, each of the even rows of a level to its odd rows as two stride-2
    views: 8 rows to 4, 4 to 2, 2 to 1."""
    k = hi - lo
    if k == 1:
        return lo, free
    if k > 128:
        half = k // 2 - k // 2 % 8
        left, free = _pairwise_adds(lo, lo + half, free, adds)
        right, free = _pairwise_adds(lo + half, hi, free, adds)
        adds.append((left, right, left))
        return left, free
    out = free
    if k < 8:
        adds.append((lo, lo + 1, out))
        adds.extend([(out, i, out) for i in range(lo + 2, hi)])
        return out, free + 1
    fours, twos, acc, free = free + 1, free + 5, lo, free + 7
    tail = hi - k % 8
    if k >= 16:  # more than one block of eight: accumulate in scratch rows
        acc, free = free, free + 8
        block = slice(acc, free)
        adds.append((slice(lo, lo + 8), slice(lo + 8, lo + 16), block))
        adds.extend([(block, slice(i, i + 8), block) for i in range(lo + 16, tail, 8)])
    adds += [(slice(acc, acc + 8, 2), slice(acc + 1, acc + 8, 2), slice(fours, fours + 4)),
             (slice(fours, fours + 4, 2), slice(fours + 1, fours + 4, 2), slice(twos, twos + 2)),
             (twos, twos + 1, out)]
    adds.extend([(out, i, out) for i in range(tail, hi)])
    return out, free


def _summed_rows(k: int, shape: tuple[int, ...]):
    """A (rows, *shape) buffer whose first k rows are class rows and the rest
    scratch, the np.add calls of the class rows' pairwise sum
    (_pairwise_adds) as (ufunc, args) pairs bound to its rows, and the row
    that receives the sum."""
    adds = []
    total, rows = _pairwise_adds(0, k, k, adds)
    buf = np.empty((rows, *shape))
    # the Ellipsis keeps a row of a 1-D buffer a 0-d view, not a copied scalar
    return (buf, [(np.add, (buf[a, ...], buf[b, ...], buf[out, ...])) for a, b, out in adds],
            buf[total, ...])


def _class_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the leading (class) axis, bitwise equal to np.add.reduce over
    a row-major class axis: the add calls of _summed_rows, run on fresh
    buffers."""
    rows, adds, total = _summed_rows(len(x), x.shape[1:])
    rows[:len(x)] = x
    for fn, args in adds:
        fn(*args)
    return total


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


class _Forward:
    """Output logits of [W; b] layers for one stack shape lead (at most one
    axis) and batch size n, with every buffer and view built once and filled
    in place on each call. Called on (*lead, n, d + 1) features [x, 1], or
    on (n, d + 1) features under (T, ...)-stacked layers (T parameter
    vectors scored on one dataset), it fills the hidden layer inputs
    [[h1, 1], ...] and the class-first (k, *lead, n) logits. Every layer
    input carries the ones column, set once, so a layer is one matmul: a
    hidden layer's product is written into the first columns of its input
    buffer and tanh runs there in place. The output layer's wb^T h^T goes
    into the logits' class rows through their swapped view. Every ufunc
    here and in _Backprop takes its output positionally: on a training
    step's small arrays, parsing an out= keyword costs a visible share of
    the call."""

    def __init__(self, layers, lead: tuple[int, ...], n: int):
        self.hidden = []
        self._layers = []
        for wb in layers[:-1]:
            h = np.empty((*lead, n, wb.shape[-1] + 1))
            h[..., -1] = 1.0
            self._layers.append((wb, h[..., :-1], h))
            self.hidden.append(h)
        self.logits = np.empty((layers[-1].shape[-1], *lead, n))
        self._wb_t = layers[-1].mT
        self._logits_t = self.logits.swapaxes(0, -2)

    def calls(self, features: np.ndarray) -> list:
        """The pass on features as (ufunc, args) pairs bound to this
        object's buffers and to features: data, built once, that __call__
        and train_clients' flat program run."""
        program, h = [], features
        for wb, product, h_next in self._layers:
            program += [(np.matmul, (h, wb, product)), (np.tanh, (product, product))]
            h = h_next
        return program + [(np.matmul, (self._wb_t, h.mT, self._logits_t))]

    def __call__(self, *operands: np.ndarray):
        for fn, args in self.calls(*operands):
            fn(*args)


class _Backprop(_Forward):
    """Mean cross-entropy against class-first (k, *lead, n) target
    distributions, backpropagated in place into buffers built once; (k, 1,
    n) targets serve every row of a (T, ...) stack on one dataset. After a
    call, hidden holds the layer inputs [[h1, 1], ...] (the features are the
    caller's), probs the class-first softmax probabilities, deltas the
    per-layer output deltas [d0, d1, ...] and grads the per-layer gradients
    [h_i, 1]^T d_i, which is [dW; db] in one product.

    The softmax runs over whole class rows: max, exp, the class sum as the
    prebuilt np.add list of _pairwise_adds, then divide. The output delta
    (probs - targets) / n is formed in the logits buffer and reaches the
    gradient product as a column-major (*lead, n, k) view; hidden deltas
    are row-major."""

    def __init__(self, layers, lead: tuple[int, ...], n: int):
        super().__init__(layers, lead, n)
        k, logits = len(self.logits), self.logits
        rows, adds, total = _summed_rows(k, (*lead, n))
        self.probs = probs = rows[:k]
        row_max = np.empty((*lead, n))
        self.grads = [np.empty((*lead, *wb.shape[-2:])) for wb in layers]
        self.deltas = [np.empty((*lead, n, wb.shape[-1])) for wb in layers[:-1]]
        self.deltas.append(self._logits_t.mT)
        self._softmax = [(np.maximum.reduce, (logits, 0, None, row_max)),
                         (np.subtract, (logits, row_max, probs)),
                         (np.exp, (probs, probs)),
                         *adds,
                         (np.divide, (probs, total, probs))]
        # once probs - targets is in the logits buffer: its divide by n (a
        # 0-d n, like train_clients' eta, is not converted again on every
        # call), then each layer above the first, last first: its gradient
        # and the delta it passes down through tanh, (delta @ w^T) * (1 - h^2)
        self._down = [(np.divide, (logits, np.asarray(n, dtype=np.float64), logits))]
        for i in range(len(layers) - 1, 0, -1):
            h, delta, below = self.hidden[i - 1], self.deltas[i], self.deltas[i - 1]
            slope = np.empty(below.shape)
            self._down += [(np.matmul, (h.mT, delta, self.grads[i])),
                           (np.matmul, (delta, layers[i][..., :-1, :].mT, below)),
                           (np.multiply, (h[..., :-1],) * 2 + (slope,)),
                           (np.subtract, (1.0, slope, slope)),
                           (np.multiply, (below, slope, below))]

    def calls(self, features: np.ndarray, targets: np.ndarray) -> list:
        return [*super().calls(features), *self._softmax,
                (np.subtract, (self.probs, targets, self.logits)), *self._down,
                (np.matmul, (features.mT, self.deltas[0], self.grads[0]))]


def _backprop(layers, features: np.ndarray, targets: np.ndarray):
    """One call on a fresh _Backprop: layer inputs [[x, 1], [h1, 1], ...],
    class-first probabilities, deltas and gradients. The stack shape is that
    of either operand; each one's is () or the shared one."""
    step = _Backprop(layers, features.shape[:-2] or layers[0].shape[:-2], features.shape[-2])
    step(features, targets)
    return [features, *step.hidden], step.probs, step.deltas, step.grads


def _grads(layers, features: np.ndarray, targets: np.ndarray) -> list[np.ndarray]:
    """Per-layer [dW; db] of mean cross-entropy against class-first
    (k, *lead, n) target distributions; same rank rules as _Forward."""
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
    for row, label_row in zip(logits[1:], is_label[1:]):
        np.greater(row, best, gt)
        np.maximum(best, row, out=best)
        # hit becomes label_row where gt holds, and stays elsewhere
        np.not_equal(hit, label_row, flip)
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
    forward = _Forward(_augmented(params, config), params.shape[:-1], len(dataset))
    forward(_with_ones(dataset.features))
    hit = _first_max_hits(forward.logits, dataset.labels)
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
    # the axis moves are transposes: np.moveaxis costs several times more
    targets = _softmax(label_logits.transpose(-1, *range(label_logits.ndim - 1)))
    hidden, probs, deltas, grads = _backprop(layers, _with_ones(features), targets)
    # the adjoint below runs row-major, on (*lead, n, k) views of the
    # class-first arrays; numpy lays out a product of a row-major and a
    # column-major operand row-major, so its class sums keep numpy's
    # pairwise order
    probs, targets = (x.transpose(*range(1, x.ndim), 0) for x in (probs, targets))
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
    return rng.permuted(np.repeat(np.arange(n)[None], epochs, axis=0), axis=1)


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
    # an epoch's steps, step-major: f[s] is step s's (C, b, d + 1) features
    # and t[s] its (k, C, b) targets; a full batch is each epoch's only step,
    # on the features and targets themselves
    if batch_size is None:
        b, f, t = n, features[None], targets[None]
    else:
        if perms is None or perms.shape != (C, epochs, n):
            raise ValueError("minibatch training needs perms of shape (C, epochs, n)")
        # an entry outside [0, n) would make the flat take read another
        # client's sample
        if perms.size and not 0 <= perms.min() <= perms.max() < n:
            raise ValueError("perms entries must be sample indices in [0, n)")
        # one take each of features and targets per epoch on the flattened
        # client axis (cheaper than 2-D fancy indexing), with indices shaped
        # (steps, C, b), into buffers built once; the targets' take is
        # class-first, (k, steps, C, b), and is copied step-major, so that
        # each step's features and targets are one contiguous block each
        b, steps = batch_size, n // batch_size
        flat_idx = (perms[..., :steps * b].reshape(C, epochs, steps, b).transpose(1, 2, 0, 3)
                    + np.arange(C)[:, None] * n)
        flat_features = features.reshape(C * n, features.shape[-1])
        flat_targets = targets.reshape(len(targets), C * n)
        f = np.empty((steps, C, b, features.shape[-1]))
        taken = np.empty((len(targets), steps, C, b))
        t = np.empty((steps, len(targets), C, b))
    layers = [np.repeat(wb[None], C, axis=0) for wb in _augmented(params, config)]
    step = _Backprop(layers, (C,), b)
    # a 0-d eta is not converted again on every multiply; g *= eta; wb -= g
    # in place on the repeated copies is bitwise equal to wb - eta * g
    eta = np.asarray(eta, dtype=np.float64)
    update = [call for wb, g in zip(layers, step.grads)
              for call in ((np.multiply, (g, eta, g)), (np.subtract, (wb, g, wb)))]
    # every step of an epoch, then its update, as one flat list of bound calls
    program = [call for s in range(len(f)) for call in step.calls(f[s], t[s]) + update]
    for e in range(epochs):
        if batch_size is not None:
            # mode="clip" keeps take from buffering out (perms are checked above)
            flat_features.take(flat_idx[e], 0, f, "clip")
            flat_targets.take(flat_idx[e], 1, taken, "clip")
            np.copyto(t, taken.swapaxes(0, 1))
        for fn, args in program:
            fn(*args)
    return _flatten(layers)
