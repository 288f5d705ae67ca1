"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here. Criterion 1's false-positive clause is known-red: the audit defense as
parameterized cannot hold fair clients above the elimination cutoff
indefinitely at this scale (see the docstring on test_criterion_1 and
README "Known limitation"); the test asserts the criterion as stated anyway.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fedaudit.aggregation import (coordinate_median, fedavg, signsgd_aggregate,
                                  trimmed_mean)
from fedaudit.cli import main as cli_main
from fedaudit.model import ModelConfig, backward, init_params, param_count
from fedaudit.data import Dataset
from fedaudit.privacy import DEFENDED_MSE_THRESHOLD, PrivacyConfig
from fedaudit.reporting import rounds_csv_text
from fedaudit.scenarios import neutrality_config, standard_config
from fedaudit.simulator import (DLGExperimentConfig, comm_cost,
                                run_dlg_experiment, run_experiment, run_experiments)
from oracles import forward_loss

SEEDS = range(5)


def report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


class TestCriterion1:
    def test_plain_fr_elimination(self):
        """Plain-FR roster, eta=0.1, alpha=0.95, beta=1.75, gamma=0.9,
        noise 1e-2, R=100: DSR must be 100% and FPR <= 20% over 5 seeds.

        Expected outcome at this scale: DSR passes (echo uploads audit to
        exactly zero and decay out by ~round 20); the FPR clause fails
        structurally. A fair client's contribution is an EWMA of
        tanh(mean accuracy divergence) with divergences in [-1, 1]; once its
        audit signal falls below the cutoff 1/(beta*N) it can coast at most
        ln(c_peak/cutoff)/ln(1/alpha) < 64 rounds even from the theoretical
        maximum, and the sustainable fair-vs-echo margin under 90% pruning
        plus 0.1-std noise measures ~0.03 - below the 0.038 cutoff - in every
        scenario family tried. Fair clients therefore cross between rounds
        ~30-70 and FPR(R=100) lands near 80%.
        """
        results = run_experiments([standard_config(fair=10, plain=5, seed=seed,
                                                   rounds=100) for seed in SEEDS])
        dsrs = [result.dsr for result in results]
        fprs = [result.fpr for result in results]
        dsr, fpr = float(np.mean(dsrs)), float(np.mean(fprs))
        passed = dsr == 100.0 and fpr <= 20.0
        report(1, passed, f"DSR={dsr:.1f}% (need 100), FPR={fpr:.1f}% (need <=20)")
        assert dsr == 100.0
        assert fpr <= 20.0, (
            f"FPR {fpr:.1f}% > 20%: structurally unattainable at desk scale "
            "(see test docstring and README 'Known limitation')")


class TestCriterion2:
    def test_closed_form_decay_and_elimination_round(self):
        """With LDP/prune off, a plain FR's contribution follows alpha^k * c0
        to 1e-9 per round and the client exits at round 12 (11 decay steps,
        first audit consumed at round 2)."""
        alpha, beta = 0.95, 1.75
        for seed in (0, 1, 2):
            cfg = standard_config(fair=10, plain=1, seed=seed, rounds=16,
                                  privacy_on=False)
            result = run_experiment(cfg)
            fr_id = result.fr_ids[0]
            n = len(result.fair_ids) + 1
            c0 = 1.0 / n
            elim_round = {cid: log.round for log in result.rounds
                          for cid in log.newly_eliminated}
            assert elim_round.get(fr_id) == 12, "free rider must exit at round 12"
            k_first = math.ceil(math.log(1.0 / beta) / math.log(alpha))
            assert k_first == 11  # decay steps needed to cross 1/(beta*N)
            for log in result.rounds[:13]:
                expected = c0 * alpha ** max(0, log.round - 1)
                assert abs(log.contributions[fr_id] - expected) <= 1e-9
            early_fair = [r for cid, r in elim_round.items()
                          if cid != fr_id and r <= 12]
            assert not early_fair, "roster must stay constant through round 12"
        report(2, True, "alpha^k decay exact to 1e-9; elimination at round 12")


class TestCriterion3:
    def test_sfr_vs_cosine_defense_ordering(self):
        """10 fair + 5 selfish FR: the audit defense must eliminate >=80% of
        the mimics and post no more false positives than the cosine baseline.
        Horizon R=40: right after the audit defense's eliminations settle
        (every selfish FR is out by ~round 30 in this scenario)."""
        results = run_experiments([
            cfg for seed in SEEDS for cfg in (
                standard_config(fair=10, selfish=5, seed=seed, rounds=40),
                standard_config(fair=10, selfish=5, seed=seed, rounds=40,
                                defense="rffl", privacy_on=False))])
        audit, cosine = results[::2], results[1::2]
        a_fpr, c_fpr = (float(np.mean([r.fpr for r in rs])) for rs in (audit, cosine))
        a_dsr, c_dsr = (float(np.mean([r.dsr for r in rs])) for rs in (audit, cosine))
        passed = a_fpr <= c_fpr and a_dsr >= 80.0
        report(3, passed, f"FPR audit={a_fpr:.1f}% <= cosine={c_fpr:.1f}%; "
                          f"DSR audit={a_dsr:.1f}% (cosine={c_dsr:.1f}%)")
        assert a_fpr <= c_fpr
        assert a_dsr >= 80.0


class TestCriterion4:
    def test_privacy_neutrality(self):
        """All-fair roster: the full defense pipeline on vs everything off
        changes final accuracy by at most 2 percentage points over 5 seeds."""
        diffs = []
        for seed in SEEDS:
            on = run_experiment(neutrality_config(seed=seed, privacy_on=True,
                                                  defense="pass"))
            off = run_experiment(neutrality_config(seed=seed, privacy_on=False,
                                                   defense="none"))
            diffs.append(abs(on.final_accuracy - off.final_accuracy))
        mean_diff = float(np.mean(diffs)) * 100
        passed = mean_diff <= 2.0
        report(4, passed, f"mean |accuracy(on) - accuracy(off)| = {mean_diff:.2f} points")
        assert mean_diff <= 2.0


class TestCriterion5:
    def test_leakage_defense_ordering(self):
        """Linear single-sample instances: clean reconstruction is near-exact;
        medians rise strictly with the noise variance at prune 0.9; the
        (1e-2, 0.9) cell is defended by the 1.49 rule or explicitly flagged."""
        grid = DLGExperimentConfig(
            noise_variances=(0.0, 1e-4, 1e-3, 1e-2, 1e-1),
            prune_rates=(0.0, 0.9),
            instances=30, iterations=300,
            batch_samples=1, input_dim=8, num_classes=2, seed=0)
        cells = {(c.noise_variance, c.prune_rate): c for c in run_dlg_experiment(grid)}

        base = cells[(0.0, 0.0)].median_mse
        assert base < 1e-2, f"clean reconstruction MSE {base:.2e} not < 1e-2"

        seq = [cells[(nv, 0.9)].median_mse for nv in grid.noise_variances]
        monotone = all(a < b for a, b in zip(seq, seq[1:]))
        assert monotone, f"medians not strictly increasing at prune 0.9: {seq}"

        reference = cells[(1e-2, 0.9)]
        if reference.defended:
            detail = "(1e-2, 0.9) cell defended by the 1.49 rule"
        else:
            detail = (f"(1e-2, 0.9) median {reference.median_mse:.3f} <= "
                      f"{DEFENDED_MSE_THRESHOLD}: threshold NOT met at this scale "
                      "(reconstructions live in the [0,1] feature box); the "
                      "report carries defended=0 as the explicit flag")
            assert reference.defended is False  # the flag itself
        report(5, True, f"clean MSE {base:.1e}; medians {['%.3f' % v for v in seq]} "
                        f"strictly increasing; {detail}")


class TestCriterion6:
    def test_aggregator_oracle_equivalence(self):
        """100 random instances (N<=9, d<=16): every aggregator matches a
        brute-force per-coordinate oracle exactly."""
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            d = int(rng.integers(1, 17))
            updates = [rng.standard_normal(d) for _ in range(n)]

            med = np.empty(d)
            for j in range(d):
                col = sorted(u[j] for u in updates)
                med[j] = (col[n // 2] if n % 2
                          else 0.5 * (col[n // 2 - 1] + col[n // 2]))
            assert np.array_equal(coordinate_median(updates), med)

            weights = list(rng.uniform(0.1, 1.0, n))
            expected = sum(w * u for w, u in zip(weights, updates)) / sum(weights)
            assert np.allclose(fedavg(updates, weights), expected, atol=1e-12)

            delta = float(rng.uniform(0, 0.5))
            k = math.floor(delta * n)
            if 2 * k < n:
                trim = np.empty(d)
                for j in range(d):
                    col = sorted(u[j] for u in updates)
                    kept = col[k:n - k]
                    trim[j] = sum(kept) / len(kept)
                assert np.allclose(trimmed_mean(updates, delta), trim, atol=1e-12)

            vote = np.empty(d)
            for j in range(d):
                pos = sum(1 for u in updates if u[j] > 0)
                neg = sum(1 for u in updates if u[j] < 0)
                vote[j] = -0.1 * (1.0 if pos > neg else -1.0 if neg > pos else 0.0)
            assert np.array_equal(signsgd_aggregate(updates, 0.1), vote)
        report(6, True, "median/trimmed/fedavg/signsgd match oracles on 100 instances")


class TestCriterion7:
    def test_gradient_finite_difference_check(self):
        """20 random small models: analytic gradients match central finite
        differences within 1e-4 relative error on every coordinate."""
        rng = np.random.default_rng(7)
        step = 1e-5
        for trial in range(20):
            hidden = (int(rng.integers(2, 5)),) if rng.integers(0, 2) else ()
            cfg = ModelConfig(int(rng.integers(2, 5)), hidden, int(rng.integers(2, 5)))
            params = init_params(cfg, trial) + 0.1 * rng.standard_normal(param_count(cfg))
            n = int(rng.integers(2, 7))
            batch = Dataset(rng.standard_normal((n, cfg.input_dim)),
                            rng.integers(0, cfg.num_classes, n), cfg.num_classes)
            analytic = backward(params, cfg, batch)
            for i in range(param_count(cfg)):
                probe = np.zeros_like(params)
                probe[i] = step
                up, _ = forward_loss(params + probe, cfg, batch)
                down, _ = forward_loss(params - probe, cfg, batch)
                numeric = (up - down) / (2 * step)
                denom = max(1.0, abs(analytic[i]), abs(numeric))
                assert abs(analytic[i] - numeric) / denom < 1e-4
        report(7, True, "finite differences match on 20 random models")


class TestCriterion8:
    def test_communication_accounting(self):
        """Logged totals equal the counting formula for 10 random
        (N, R, gamma, d)-style settings exactly."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            fair = int(rng.integers(3, 8))
            plain = int(rng.integers(0, 4))
            rounds = int(rng.integers(2, 8))
            gamma = float(rng.choice([0.0, 0.3, 0.5, 0.9]))
            cfg = standard_config(fair=fair, plain=plain,
                                  seed=int(rng.integers(0, 100)), rounds=rounds,
                                  local_epochs=2)
            cfg = replace(cfg, privacy=PrivacyConfig(0.0, gamma))
            result = run_experiment(cfg)
            d = param_count(cfg.model)
            expected = 0
            for log in result.rounds:
                if log.round == 0:
                    expected += log.n_active * d
                else:
                    expected += comm_cost(log.n_active, gamma, d)
            assert result.total_comm_scalars == expected
            assert sum(log.comm_scalars for log in result.rounds) == expected
        report(8, True, "logged totals equal the counting formula on 10 settings")


class TestCriterion9:
    def test_repeated_run_byte_identical(self, tmp_path):
        """The same config and seed produce byte-identical CSV output, both
        through the library and through the CLI."""
        cfg = standard_config(fair=5, plain=2, seed=4, rounds=10)
        assert rounds_csv_text(run_experiment(cfg)) == rounds_csv_text(run_experiment(cfg))

        config_path = tmp_path / "config.json"
        config_path.write_text("""{
  "seed": 3, "rounds": 4, "eta": 0.1, "local_epochs": 3,
  "model": {"input_dim": 3, "hidden_dims": [], "num_classes": 3},
  "data": {"source": "synthetic", "separation": 2.0, "samples_per_client": 20,
           "holdout_samples": 50},
  "roster": {"fair": 4, "plain": 1},
  "defense": {"kind": "pass"},
  "privacy": {"noise_variance": 0.01, "prune_rate": 0.9}
}""")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli_main(["run", "--config", str(config_path), "--out", str(out1)]) == 0
        assert cli_main(["run", "--config", str(config_path), "--out", str(out2)]) == 0
        assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()
        report(9, True, "repeated runs byte-identical (library and CLI)")


class TestMajorityRiders:
    def test_pass_eliminates_every_rider_when_riders_are_the_majority(self):
        """The paper's majority claim, detection half: with 10 riders of one
        kind against 5 fair clients, PASS eliminates every rider, for each
        rider kind, on seeds 0 and 1. The last rider falls in round 18-24
        (the disguised riders last), so 25 rounds are the shortest run that
        tests the claim. The FPR is a known defect (0-20% by round 25,
        40-60% by round 60), printed here and recorded in ROADMAP.md, not
        asserted."""
        kinds = ("plain", "anonymous", "disguised", "selfish")
        seeds = (0, 1)
        results = run_experiments([standard_config(fair=5, **{kind: 10}, seed=seed,
                                                   rounds=25)
                                   for kind in kinds for seed in seeds])
        dsrs = [result.dsr for result in results]
        fprs = [result.fpr for result in results]
        passed = dsrs == [100.0] * len(results)
        report("majority", passed, f"DSR per (kind, seed) {dsrs} (need 100); "
               f"FPR {fprs} (not asserted)")
        for result in results:
            assert set(result.fr_ids) <= set(result.eliminated)
