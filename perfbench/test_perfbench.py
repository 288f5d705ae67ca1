"""The benchmark's own tests: span self-time arithmetic, the import-time
split, patch restoration, and a tiny-size run of every workload that must
emit every metric BENCHMARK.json names, with its unit.

Run with `python -m pytest perfbench -q`.
"""

import json
import signal
import time
from pathlib import Path

import pytest

import run
import speed
import fedaudit.privacy
import fedaudit.simulator
from fedaudit.clients import FairClient
from fedaudit.simulator import Simulation
from spans import Span, Tracer, covered, instrument, self_times
from speed import SpeedProbe

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips_to_the_span(self):
        assert covered([(5, 12), (0, 2), (1, 3)], 1, 10) == pytest.approx(2 + 5)
        assert covered([], 0, 4) == 0
        assert covered([(6, 8)], 0, 4) == 0

    def test_self_time_subtracts_children_and_folded_leaves(self):
        spans = [Span("round", 0.0, 10.0, folded={"leaf": [3, 0.5]}),
                 Span("train", 1.0, 3.0, parent=0),
                 Span("agg", 5.0, 6.0, parent=0),
                 Span("inner", 5.25, 5.75, parent=2)]
        assert self_times(spans) == pytest.approx([10 - 2 - 1 - 0.5, 2, 0.5, 0.5])

    def test_tracer_nests_folds_and_sums_by_name(self):
        tracer = Tracer(clock=FakeClock(0.0, 1.0, 4.0, 5.0, 7.0, 10.0))
        with tracer.span("round"):
            with tracer.span("train"):      # 1 .. 4
                tracer.fold("leaf", 0.25)
            with tracer.span("train"):      # 5 .. 7
                pass
            tracer.fold("leaf", 1.0)
        tracer.count("steps", 3)
        m = tracer.summary()
        assert m["round.calls"] == 1 and m["train.calls"] == 2
        assert m["round.s"] == pytest.approx(10)
        assert m["round.self_s"] == pytest.approx(10 - 3 - 2 - 1.0)
        assert m["train.self_s"] == pytest.approx(3 - 0.25 + 2)
        assert m["leaf.calls"] == 2 and m["leaf.s"] == pytest.approx(1.25)
        assert m["steps"] == 3


def test_speed_scale_averages_the_samples_near_an_interval():
    ref = 1e-3
    probe = SpeedProbe(lambda: None, ref)
    probe.starts = [0.0, 0.02, 0.04, 1.0]
    probe.durations = [ref, 2 * ref, 3 * ref, ref / 2]
    assert probe.scale(0.0, 0.03) == pytest.approx(0.5)     # margin takes in 0.04
    assert probe.scale(0.5, 0.6) == pytest.approx(2.0)      # none near: the next one
    assert probe.scale(2.0, 3.0) == pytest.approx(2.0)      # none after: the last one


def test_speed_probe_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(run.reference_work, run.REFERENCE_S) as probe:
        end = time.perf_counter() + 5 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.starts) >= 2 and probe.busy > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scipy_import_split_sums_scipy_self_times():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.linalg",
        "import time:      2000 |       2500 |     scipy.optimize._lbfgsb",
        "import time:       500 |       3000 |   scipy.optimize",
        "import time:       250 |        250 |   scipy",
        "import time:        40 |       3390 | fedaudit.privacy",
    ])
    assert run.scipy_import_s(stderr) == pytest.approx(2750e-6)


def test_instrument_restores_every_patched_name():
    originals = (fedaudit.simulator.accuracy, fedaudit.simulator.train_clients,
                 fedaudit.privacy.backward_soft, fedaudit.privacy.minimize,
                 FairClient.compute_update, Simulation.run_round)
    with instrument(Tracer()):
        assert fedaudit.simulator.accuracy is not originals[0]
    assert (fedaudit.simulator.accuracy, fedaudit.simulator.train_clients,
            fedaudit.privacy.backward_soft, fedaudit.privacy.minimize,
            FairClient.compute_update, Simulation.run_round) == originals


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    out = run.run_benchmark(workload, seed=3, seconds=0, trace=bool(trace),
                            scale="tiny", setup_runs=1)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert len(out["provenance"]["output_sha256"]) == 64
