"""Synthetic classification data, IDX image loading, and client partitioning."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Base error for malformed IDX files."""


class BadMagicError(IdxFormatError):
    """The file header does not carry the expected IDX magic number."""


class TruncatedFileError(IdxFormatError):
    """The file ends before the payload its header declares."""


class CountMismatchError(IdxFormatError):
    """Image and label files declare different sample counts."""


@dataclass
class Dataset:
    """A classification dataset: float features, integer labels in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix (n_samples, input_dim)")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be a vector matching the feature row count")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")

    def __len__(self):
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a dataset across clients.

    mode "iid" shuffles uniformly and slices; "non_iid" draws each client's
    class proportions from a Dirichlet with the given concentration (smaller
    concentration = more skew).
    """

    num_clients: int
    samples_per_client: int
    mode: str = "iid"
    non_iid_concentration: float = 0.5
    seed: int = 0


def generate_synthetic(num_classes: int, input_dim: int, n: int, separation: float,
                       seed: int) -> Dataset:
    """Gaussian class clusters with unit covariance and means `separation` apart.

    Class sizes are balanced (first n % num_classes classes get one extra
    sample); sample order is shuffled. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_classes, input_dim))
    means -= means.mean(axis=0)
    # rescale so the closest pair of class means sits exactly `separation` apart
    dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
    means *= separation / dists[~np.eye(num_classes, dtype=bool)].min()

    base, extra = divmod(n, num_classes)
    counts = [base + (1 if c < extra else 0) for c in range(num_classes)]
    labels = np.repeat(np.arange(num_classes), counts)
    features = means[labels] + rng.standard_normal((n, input_dim))
    order = rng.permutation(n)
    return Dataset(features[order], labels[order], num_classes)


def _read_idx_header(raw: bytes, path, expected_magic: int, ndim: int):
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise TruncatedFileError(f"{path}: file shorter than its IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise BadMagicError(
            f"{path}: bad magic number 0x{magic:08x}, expected 0x{expected_magic:08x}")
    dims = struct.unpack(">" + "I" * ndim, raw[4:header_len])
    return dims, raw[header_len:]


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair (big-endian, unsigned-byte payloads).

    Pixel values are scaled to [0, 1] and images flattened to rows*cols
    features. Raises BadMagicError / TruncatedFileError / CountMismatchError
    on malformed inputs.
    """
    with open(images_path, "rb") as fh:
        raw_images = fh.read()
    with open(labels_path, "rb") as fh:
        raw_labels = fh.read()

    (n_images, rows, cols), image_payload = _read_idx_header(
        raw_images, images_path, IDX_IMAGE_MAGIC, ndim=3)
    (n_labels,), label_payload = _read_idx_header(
        raw_labels, labels_path, IDX_LABEL_MAGIC, ndim=1)

    if len(image_payload) < n_images * rows * cols:
        raise TruncatedFileError(
            f"{images_path}: expected {n_images * rows * cols} pixel bytes, "
            f"found {len(image_payload)}")
    if len(label_payload) < n_labels:
        raise TruncatedFileError(
            f"{labels_path}: expected {n_labels} label bytes, found {len(label_payload)}")
    if n_images != n_labels:
        raise CountMismatchError(
            f"image count {n_images} != label count {n_labels}")

    pixels = np.frombuffer(image_payload[:n_images * rows * cols], dtype=np.uint8)
    features = pixels.reshape(n_images, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(label_payload[:n_labels], dtype=np.uint8).astype(np.int64)
    num_classes = int(labels.max()) + 1 if n_labels else 1
    return Dataset(features, labels, max(num_classes, 2))


def partition(dataset: Dataset, spec: PartitionSpec) -> list[Dataset]:
    """Split `dataset` into disjoint per-client shards of equal size.

    iid: uniform shuffle, equal slices. non_iid: each client's class mix is
    drawn from Dirichlet(concentration); exact shard sizes are kept by
    largest-remainder rounding and refilling from whatever classes still have
    stock. Deterministic per spec.seed.
    """
    total_needed = spec.num_clients * spec.samples_per_client
    if total_needed > len(dataset):
        raise ValueError(
            f"partition needs {total_needed} samples, dataset has {len(dataset)}")
    rng = np.random.default_rng(spec.seed)

    if spec.mode == "iid":
        order = rng.permutation(len(dataset))
        return [
            dataset.subset(order[i * spec.samples_per_client:(i + 1) * spec.samples_per_client])
            for i in range(spec.num_clients)
        ]

    k = dataset.num_classes
    pools = [list(rng.permutation(np.flatnonzero(dataset.labels == c))) for c in range(k)]
    shards = []
    for _ in range(spec.num_clients):
        props = rng.dirichlet(np.full(k, spec.non_iid_concentration))
        want = _largest_remainder(props, spec.samples_per_client)
        taken: list[int] = []
        for c in range(k):
            grab = min(want[c], len(pools[c]))
            taken.extend(pools[c][:grab])
            del pools[c][:grab]
        deficit = spec.samples_per_client - len(taken)
        if deficit:
            # refill from the richest remaining pools, class id breaking ties
            order = sorted(range(k), key=lambda c: (-len(pools[c]), c))
            for c in order:
                if deficit == 0:
                    break
                grab = min(deficit, len(pools[c]))
                taken.extend(pools[c][:grab])
                del pools[c][:grab]
                deficit -= grab
        idx = np.array(taken, dtype=np.int64)
        shards.append(dataset.subset(rng.permutation(idx)))
    return shards


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts
