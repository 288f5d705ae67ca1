"""Synthetic generation, IDX loading, and partitioning."""

import struct

import numpy as np
import pytest

from fedaudit.data import (BadMagicError, CountMismatchError, Dataset,
                           PartitionSpec, TruncatedFileError, generate_synthetic,
                           load_idx, partition)
from fedaudit.model import ModelConfig, accuracy, init_params, train_clients


def write_idx_images(path, images):
    """Hand-build an IDX image file: magic 0x00000803, big-endian dims, bytes."""
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels, magic=0x00000801):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", magic, len(labels)))
        fh.write(bytes(int(v) for v in labels))


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(3, 4, 30, 2.0, 9)
        b = generate_synthetic(3, 4, 30, 2.0, 9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_balanced_counts(self):
        ds = generate_synthetic(5, 3, 10, 2.0, 0)
        assert sorted(np.bincount(ds.labels, minlength=5)) == [2, 2, 2, 2, 2]

    def test_min_mean_distance_matches_separation(self):
        ds = generate_synthetic(4, 6, 400, 3.0, 2)
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        dists = [np.linalg.norm(means[i] - means[j])
                 for i in range(4) for j in range(i + 1, 4)]
        # empirical means wobble around the true ones by ~ 1/sqrt(100)
        assert min(dists) == pytest.approx(3.0, abs=0.5)

    def test_separable_data_trains_to_high_accuracy(self):
        ds = generate_synthetic(2, 2, 200, 10.0, 1)
        cfg = ModelConfig(2, (), 2)
        params = init_params(cfg, 0)
        params = train_clients(params, cfg, ds.features[None], ds.labels[None], 0.1, 100)[0]
        assert accuracy(params, cfg, ds) >= 0.99

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 2, 10, 1.0, 0)
        with pytest.raises(ValueError):
            generate_synthetic(5, 2, 3, 1.0, 0)


class TestIdx:
    def test_round_trip_two_images(self, tmp_path):
        images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2) * 30
        img_path, lab_path = tmp_path / "img", tmp_path / "lab"
        write_idx_images(img_path, images)
        write_idx_labels(lab_path, [1, 0])
        ds = load_idx(img_path, lab_path)
        assert len(ds) == 2
        assert ds.input_dim == 4
        assert np.array_equal(ds.labels, [1, 0])
        assert ds.features.max() <= 1.0 and ds.features.min() >= 0.0
        assert ds.features[1, 0] == pytest.approx(120 / 255)

    def test_bad_magic(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img_path, lab_path = tmp_path / "img", tmp_path / "lab"
        write_idx_images(img_path, images)
        write_idx_labels(lab_path, [0, 1], magic=0x00000802)
        with pytest.raises(BadMagicError):
            load_idx(img_path, lab_path)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        img_path, lab_path = tmp_path / "img", tmp_path / "lab"
        write_idx_images(img_path, images)
        write_idx_labels(lab_path, [0, 1])
        with pytest.raises(CountMismatchError):
            load_idx(img_path, lab_path)

    def test_truncated_payload(self, tmp_path):
        img_path, lab_path = tmp_path / "img", tmp_path / "lab"
        with open(img_path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            fh.write(b"\x00" * 5)  # needs 8
        write_idx_labels(lab_path, [0, 1])
        with pytest.raises(TruncatedFileError):
            load_idx(img_path, lab_path)


class TestPartition:
    def test_iid_sizes_and_disjointness(self):
        ds = generate_synthetic(4, 3, 5400, 2.0, 0)
        shards = partition(ds, PartitionSpec(10, 540, "iid", seed=1))
        assert len(shards) == 10
        assert all(len(s) == 540 for s in shards)
        # disjointness via unique feature rows (continuous values collide w.p. 0)
        stacked = np.concatenate([s.features for s in shards])
        assert len(np.unique(stacked, axis=0)) == 5400

    def test_single_client_full_permutation(self):
        ds = generate_synthetic(3, 2, 30, 2.0, 3)
        (shard,) = partition(ds, PartitionSpec(1, 30, "iid", seed=0))
        assert sorted(map(tuple, shard.features)) == sorted(map(tuple, ds.features))

    def test_insufficient_samples_rejected(self):
        ds = generate_synthetic(3, 2, 30, 2.0, 3)
        with pytest.raises(ValueError):
            partition(ds, PartitionSpec(4, 10, "iid", seed=0))

    def test_non_iid_majority_class_skew(self):
        ds = generate_synthetic(5, 3, 2000, 2.0, 7)
        found_skewed = False
        for seed in range(3):
            shards = partition(ds, PartitionSpec(8, 100, "non_iid", 0.1, seed))
            for s in shards:
                if np.bincount(s.labels, minlength=5).max() > 60:
                    found_skewed = True
        assert found_skewed

    def test_non_iid_sizes_and_disjointness(self):
        ds = generate_synthetic(4, 2, 1200, 2.0, 5)
        shards = partition(ds, PartitionSpec(6, 150, "non_iid", 0.3, 11))
        assert all(len(s) == 150 for s in shards)
        stacked = np.concatenate([s.features for s in shards])
        assert len(np.unique(stacked, axis=0)) == 900

    def test_partition_deterministic(self):
        ds = generate_synthetic(4, 2, 400, 2.0, 5)
        spec = PartitionSpec(4, 80, "non_iid", 0.5, 13)
        a = partition(ds, spec)
        b = partition(ds, spec)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.features, s2.features)

    def test_label_divergence_iid_vs_non_iid(self):
        ds = generate_synthetic(4, 2, 2000, 2.0, 2)
        overall = np.bincount(ds.labels, minlength=4) / len(ds)

        def mean_tv(shards):
            tvs = []
            for s in shards:
                dist = np.bincount(s.labels, minlength=4) / len(s)
                tvs.append(0.5 * np.abs(dist - overall).sum())
            return np.mean(tvs)

        iid_tv = mean_tv(partition(ds, PartitionSpec(8, 200, "iid", seed=3)))
        skew_tv = mean_tv(partition(ds, PartitionSpec(8, 200, "non_iid", 0.2, 3)))
        assert iid_tv < 0.1
        assert skew_tv > iid_tv

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            PartitionSpec(0, 10)
        with pytest.raises(ValueError):
            PartitionSpec(2, 10, "weird")
        with pytest.raises(ValueError):
            PartitionSpec(2, 10, "non_iid", 0.0)


class TestDataset:
    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), np.array([0, 5]), 3)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), np.array([0]), 3)
