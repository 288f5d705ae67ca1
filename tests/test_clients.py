"""Client behaviors: fair training and the four free-rider variants."""

import numpy as np
import pytest

from fedaudit.clients import (AnonymousFreeRider, Client, DisguisedFreeRider,
                              FairClient, PlainFreeRider, SelfishFreeRider)
from fedaudit.data import Dataset, generate_synthetic
from fedaudit.model import ModelConfig, backward, init_params, train_clients
from fedaudit.scenarios import standard_config
from fedaudit.simulator import Simulation

from oracles import adam_step


@pytest.fixture
def world():
    cfg = ModelConfig(4, (), 3)
    shard = generate_synthetic(3, 4, 30, 2.0, 1)
    params = init_params(cfg, 0)
    return cfg, shard, params


def rider_update(rider, prev, dim, seed=0):
    """A dataless rider's upload; it reads neither the model config nor the
    global parameters' values, only their length."""
    return rider.compute_update(np.zeros(dim), prev, None, 0.1,
                                np.random.default_rng(seed))


def test_each_behaviour_defines_its_own_compute_update():
    # wrapping one class's compute_update must not reach another class
    for cls in (PlainFreeRider, DisguisedFreeRider, AnonymousFreeRider,
                SelfishFreeRider):
        assert "compute_update" in vars(cls), cls.__name__
    # fair clients train only in the simulator's stack; identity rather than
    # vars(), since restoring a wrapped method sets the inherited one on the class
    assert FairClient.compute_update is Client.compute_update


class TestFairUpdate:
    def test_identical_shards_identical_updates(self):
        # through the simulator's fair stack, the one place fair clients train
        cfg = standard_config(fair=3, seed=0, rounds=1, privacy_on=False,
                              defense="none", local_epochs=5)
        sim = Simulation(cfg)
        sim.clients[1].shard = sim.clients[0].shard
        updates = sim._compute_updates(sim._active_clients())
        assert np.array_equal(updates[0], updates[1])
        assert not np.array_equal(updates[0], updates[2])


class TestPlainFreeRider:
    def test_exact_echo(self):
        prev = np.array([0.1, -0.4, 2.0])
        out = rider_update(PlainFreeRider(0, 1), prev, 3)
        assert np.array_equal(out, prev)
        assert out is not prev
        assert np.linalg.norm(out) == np.linalg.norm(prev)

    def test_round_zero_zero_vector(self):
        out = rider_update(PlainFreeRider(0, 1), None, 4)
        assert np.array_equal(out, np.zeros(4))

    def test_cosine_with_source_is_one(self):
        prev = np.array([1.0, 2.0])
        out = rider_update(PlainFreeRider(0, 1), prev, 2)
        cos = out @ prev / (np.linalg.norm(out) * np.linalg.norm(prev))
        assert cos == pytest.approx(1.0)


def disguised(noise_variance):
    """A disguised rider whose instance overrides the class's noise variance."""
    rider = DisguisedFreeRider(0, 1)
    rider.NOISE_VARIANCE = noise_variance
    return rider


class TestDisguisedFreeRider:
    def test_zero_variance_reduces_to_plain(self):
        prev = np.array([0.5, -0.5])
        out = rider_update(disguised(0.0), prev, 2)
        assert np.array_equal(out, prev)
        assert out is not prev

    def test_noise_variance_estimate(self):
        prev = np.zeros(10_000)
        out = rider_update(DisguisedFreeRider(0, 1), prev, 10_000, seed=5)
        assert np.var(out - prev) == pytest.approx(1e-2, rel=0.1)
        assert not prev.any()  # the noise lands on a copy of the echo

    def test_cosine_approaches_one_as_variance_vanishes(self):
        prev = np.random.default_rng(1).standard_normal(500)
        out = rider_update(disguised(1e-10), prev, 500, seed=2)
        cos = out @ prev / (np.linalg.norm(out) * np.linalg.norm(prev))
        assert cos > 0.999999


class TestAnonymousFreeRider:
    def test_round_zero_noise_uncorrelated_with_gradient(self, world):
        cfg_small, shard, _ = world
        cfg = ModelConfig(40, (45,), 5)  # big d for a stable correlation estimate
        afr = AnonymousFreeRider(0, 1)
        out = afr.compute_update(np.zeros(2075), None, cfg, 0.1,
                                 np.random.default_rng(3))
        data = generate_synthetic(5, 40, 60, 2.0, 4)
        grad = backward(init_params(cfg, 7), cfg, data)
        corr = np.corrcoef(out, grad)[0, 1]
        assert abs(corr) < 0.1

    def test_adam_state_step_count_increments(self):
        afr = AnonymousFreeRider(0, 1)
        cfg = ModelConfig(2, (), 2)
        prev = np.array([0.2, -0.1, 0.05, 0.0, 0.3, -0.2])
        for expected_steps in (1, 2, 3):
            afr.compute_update(np.zeros(6), prev, cfg, 0.1, np.random.default_rng(0))
            assert afr.steps == expected_steps

    def test_zero_echo_is_adam_fixed_point(self):
        afr = AnonymousFreeRider(0, 1)
        out = rider_update(afr, np.zeros(4), 4)
        assert np.array_equal(out, np.zeros(4))
        assert not np.any(afr.m) and not np.any(afr.v)
        assert afr.steps == 1


class TestSelfishFreeRider:
    def test_pretrains_exactly_when_no_update_was_allocated(self, world):
        cfg, shard, params = world
        pretrained = train_clients(params, cfg, shard.features[None],
                                   shard.labels[None], 0.1, 5)[0] - params
        sfr = SelfishFreeRider(0, shard)
        out = sfr.compute_update(params, None, cfg, 0.1, np.random.default_rng(0))
        assert out.tobytes() == pretrained.tobytes()
        assert sfr.steps == 0
        # once an update is allocated it echoes, even with the round-0 params
        prev = np.full(params.shape[0], 0.1)
        echo = sfr.compute_update(params, prev, cfg, 0.1, np.random.default_rng(0))
        zeros = np.zeros(params.shape[0])
        expected, _, _ = adam_step(prev, prev, zeros, zeros, 1, 0.015)
        assert echo.tobytes() == expected.tobytes()

    def test_default_adam_hyperparameters(self, world):
        cfg, shard, _ = world
        sfr = SelfishFreeRider(0, shard)
        prev = np.full(15, 0.1)
        for steps in (1, 2):
            sfr.compute_update(np.zeros(15), prev, cfg, 0.1, np.random.default_rng(0))
            assert sfr.rate == pytest.approx(0.015 * 0.997 ** steps, rel=1e-12)

    def test_empty_public_data_rejected(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            SelfishFreeRider(0, empty)

    def test_mimicry_beats_fair_cosine(self):
        # averaged over seeds, the evolved echo tracks the allocated update
        # more closely than genuine local training does
        sfr_cos, fair_cos = [], []
        for seed in range(5):
            cfg = standard_config(fair=5, selfish=2, seed=seed, rounds=3,
                                  privacy_on=False, defense="none",
                                  local_epochs=40)
            sim = Simulation(cfg)
            sim.run_round()
            alloc = sim.alloc.copy()
            active = sim._active_clients()
            updates = sim._compute_updates(active)

            def cos(u):
                return float(u @ alloc / (np.linalg.norm(u) * np.linalg.norm(alloc)))

            # row i of the updates is active[i]'s
            sfr_cos += [cos(u) for c, u in zip(active, updates) if c.kind == "selfish"]
            fair_cos += [cos(u) for c, u in zip(active, updates) if c.kind == "fair"]
        assert np.mean(sfr_cos) > np.mean(fair_cos)


class TestAdamEcho:
    @pytest.mark.parametrize("kind", ["anonymous", "selfish"])
    def test_echo_matches_textbook_adam(self, world, kind):
        # bitwise each round, with the rate decayed by 0.997 after each step
        cfg, shard, _ = world
        rider = AnonymousFreeRider(0, 1) if kind == "anonymous" else SelfishFreeRider(0, shard)
        dim = 15
        allocated = np.random.default_rng(6)
        m = v = np.zeros(dim)
        rate = 0.015
        for t in (1, 2, 3, 4):
            prev = allocated.normal(0.0, 0.1, dim)
            out = rider.compute_update(np.zeros(dim), prev, cfg, 0.1,
                                       np.random.default_rng(0))
            expected, m, v = adam_step(prev, prev, m, v, t, rate)
            rate *= 0.997
            assert out.tobytes() == expected.tobytes()
            assert rider.rate == rate

    def test_constant_gradient_sign_direction(self):
        # a constant echo g moves by the rate against sign(g) each step
        g = np.array([0.02, -0.4, 1.3])
        afr = AnonymousFreeRider(0, 1)
        for _ in range(200):
            rate = afr.rate
            out = rider_update(afr, g, 3)
        assert np.allclose(out - g, -rate * np.sign(g), rtol=1e-3)


class TestDataAccessIsolation:
    def test_free_riders_hold_no_private_shard(self):
        assert PlainFreeRider(0, 1).audit_dataset is None
        assert DisguisedFreeRider(0, 1).audit_dataset is None
        assert AnonymousFreeRider(0, 1).audit_dataset is None

    def test_only_fair_and_selfish_read_data(self):
        reads = {"count": 0}

        class CountingDataset(Dataset):
            def __getattribute__(self, name):
                if name in ("features", "labels"):
                    reads["count"] += 1
                return super().__getattribute__(name)

        cfg = ModelConfig(3, (), 2)
        ds = generate_synthetic(2, 3, 10, 2.0, 0)
        counting = CountingDataset(ds.features.copy(), ds.labels.copy(), 2)
        reads["count"] = 0
        prev = np.full(8, 0.1)
        rng = np.random.default_rng(0)
        # the dataless variants never accept or touch a shard
        PlainFreeRider(1, 1).compute_update(np.zeros(8), prev, cfg, 0.1, rng)
        DisguisedFreeRider(2, 1).compute_update(np.zeros(8), prev, cfg, 0.1, rng)
        AnonymousFreeRider(3, 1).compute_update(np.zeros(8), prev, cfg, 0.1, rng)
        assert reads["count"] == 0
        SelfishFreeRider(4, counting).compute_update(np.zeros(8), None, cfg, 0.1, rng)
        assert reads["count"] > 0

    def test_eliminated_clients_upload_nothing(self):
        cfg = standard_config(fair=4, plain=1, seed=0, rounds=2,
                              privacy_on=False, defense="none", local_epochs=2)
        sim = Simulation(cfg)
        sim.run_round()
        sim.ledger.eliminated.add(0)
        active = sim._active_clients()
        assert 0 not in {c.id for c in active}
        # one row per active client, in active order (row order against a
        # lone client's update: test_simulator's
        # test_round_rows_follow_active_order_around_eliminated_clients)
        assert sim._compute_updates(active).shape == (len(active), sim.dim)
