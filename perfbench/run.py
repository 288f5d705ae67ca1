"""fedaudit benchmark: one workload per invocation.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload is built from --seed only. Set-up time is measured first, in
fresh interpreters (perfbench/setup_probe.py). The workload body (every round
plus `rounds_csv_text`, or the leakage grid plus `dlg_csv_text`) is then
repeated on a fresh build until --seconds are used, at least once; every
repeat's output bytes must equal the first's and pass the workload's checks.

Untraced times, set-up included, are taken at a fixed reference speed: while
they run, a timer samples the machine's speed, and each timed interval is
scaled by the speed sampled around it (speed.py).

--trace 0 reports the end-to-end metrics, with tracing off. --trace 1
alternates untraced and traced repeats and reports the per-layer metrics from
the traced ones (median per metric over traced repeats), plus the tracing
overhead; the traced output bytes must equal the untraced ones.

Stdout ends with a readable summary, a {"provenance": ...} line and, last,
the result line {"correct", "attempted", "failed", "metrics"}. An operation
is a round, or a reconstruction; it fails on an unexpected exception, a
diverged reconstruction, or when its repeat fails an output check.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# One BLAS thread, here and in the set-up probes. The workloads' matrices are
# small: with two OpenBLAS threads dlg_grid ran at the same speed while an idle
# worker spun on the second CPU (1.9 CPU-seconds per second of wall time).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fedaudit.simulator  # noqa: E402
from spans import Tracer, instrument  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("model.train_clients.calls", "count"),
    ("model.train_clients.s", "s"),
    ("model.train_clients.steps", "count"),
    ("model.train_clients.us_per_step", "us"),
    ("model.accuracy.audit.calls", "count"),
    ("model.accuracy.audit.s", "s"),
    ("model.accuracy.eval.calls", "count"),
    ("model.accuracy.eval.s", "s"),
    ("model.backward_soft.calls", "count"),
    ("model.backward_soft.s", "s"),
    ("privacy.dlg_reconstruct.calls", "count"),
    ("privacy.dlg_reconstruct.s", "s"),
    ("privacy.dlg_reconstruct.self_s", "s"),
    ("privacy.dlg_reconstruct.diverged", "count"),
    ("privacy.lbfgs.iterations", "count"),
    ("privacy.lbfgs.objective_evals", "count"),
    ("privacy.lbfgs.evals_per_iter", "ratio"),
    ("privacy.apply_privacy.calls", "count"),
    ("privacy.apply_privacy.s", "s"),
    ("defense.audit_reports", "count"),
    ("defense.contribution_step.calls", "count"),
    ("defense.contribution_step.s", "s"),
    ("defense.eliminate_low_contributors.calls", "count"),
    ("defense.eliminate_low_contributors.s", "s"),
    ("defense.cosine_contribution_step.calls", "count"),
    ("defense.cosine_contribution_step.s", "s"),
    ("defense.eliminated", "count"),
    ("aggregation.fedavg.calls", "count"),
    ("aggregation.fedavg.s", "s"),
    ("aggregation.trimmed_mean.calls", "count"),
    ("aggregation.trimmed_mean.s", "s"),
    ("clients.compute_update.fair.calls", "count"),
    ("clients.compute_update.fair.s", "s"),
    ("clients.compute_update.plain.calls", "count"),
    ("clients.compute_update.plain.s", "s"),
    ("clients.compute_update.anonymous.calls", "count"),
    ("clients.compute_update.anonymous.s", "s"),
    ("clients.compute_update.selfish.calls", "count"),
    ("clients.compute_update.selfish.s", "s"),
    ("simulator.rounds", "count"),
    ("simulator.active_client_rounds", "count"),
    ("simulator.run_round.s", "s"),
    ("simulator.self_s", "s"),
    ("data.generate_synthetic.s", "s"),
    ("data.partition.s", "s"),
    ("reporting.rounds_csv_text.s", "s"),
    ("reporting.dlg_csv_text.s", "s"),
    ("setup.import_s", "s"),
    ("setup.import_scipy_s", "s"),
    ("setup.build_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

SETUP_RUNS = 5          # fresh interpreters timed per run; the median is reported
TRACED_SETUP_RUNS = 3   # the same under -X importtime, for the import split
PROBE_TIMEOUT_S = 120

REFERENCE_S = 5e-4  # reference_work at the reference speed


# -- set-up time -------------------------------------------------------------

def scipy_import_s(importtime_stderr: str) -> float:
    """Seconds spent in scipy's own modules, from `-X importtime` output
    (`import time: self [us] | cumulative | name`)."""
    total_us = 0
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2].strip()
        if name == "scipy" or name.startswith("scipy."):
            total_us += int(fields[0])
    return total_us / 1e6


def measure_setup(name: str, seed: int, scale: str, runs: int,
                  importtime: bool) -> list[dict]:
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "setup_probe.py"), name, str(seed), scale]
    samples = []
    for _ in range(runs):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if importtime:
            sample["import_scipy_s"] = scipy_import_s(proc.stderr)
        samples.append(sample)
    return samples


# -- machine speed -----------------------------------------------------------

_REF_MATRIX = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
_REF_VECTOR = np.linspace(0.0, 1.0, 8)


def reference_work() -> float:
    """Fixed work of the kind the workloads do most: small numpy calls and
    interpreter overhead. It takes about REFERENCE_S on a 2-vCPU Xeon VM at
    the median of its speeds."""
    acc = 0.0
    for _ in range(100):
        acc += float(np.tanh(_REF_MATRIX @ _REF_VECTOR).sum())
    return acc


# -- repeats -----------------------------------------------------------------

@dataclass
class Repeat:
    traced: bool
    ops: int
    failed: int = 0
    run_s: float = float("nan")  # at the reference speed when untraced
    wall_s: float = float("nan")
    text: str | None = None
    op_spans: list[tuple] = field(default_factory=list)  # (start, end, probe busy)
    op_times: list[float] = field(default_factory=list)  # as run_s
    stats: dict = field(default_factory=lambda: {"audit_reports": 0})
    layers: dict = field(default_factory=dict)


@contextmanager
def op_timer(workload, obj, rep: Repeat, probe: SpeedProbe):
    """Record when each operation (a round or a reconstruction) ran and count
    the audit reports each round makes. One clock pair per operation, so it
    also runs with tracing off."""
    clock = time.perf_counter
    if workload.kind == "sim":
        inner = obj.run_round

        def run_round():
            before = obj.last_audit_matrix
            t0, busy = clock(), probe.busy
            log = inner()
            rep.op_spans.append((t0, clock(), probe.busy - busy))
            matrix = obj.last_audit_matrix
            if matrix is not None and matrix is not before:
                rep.stats["audit_reports"] += sum(len(r) for r in matrix.entries.values())
            return log

        obj.run_round = run_round  # the instance attribute shadows the method
        yield
        return
    inner = fedaudit.simulator.dlg_reconstruct

    def dlg_reconstruct(*args, **kwargs):
        t0, busy = clock(), probe.busy
        try:
            return inner(*args, **kwargs)
        finally:
            rep.op_spans.append((t0, clock(), probe.busy - busy))

    fedaudit.simulator.dlg_reconstruct = dlg_reconstruct
    try:
        yield
    finally:
        fedaudit.simulator.dlg_reconstruct = inner


def layer_metrics(tracer: Tracer, rep: Repeat) -> dict[str, float]:
    m = tracer.summary()
    steps = m.get("model.train_clients.steps", 0)
    if steps:
        m["model.train_clients.us_per_step"] = m["model.train_clients.s"] / steps * 1e6
    iterations = m.get("privacy.lbfgs.iterations", 0)
    if iterations:
        m["privacy.lbfgs.evals_per_iter"] = m["privacy.lbfgs.objective_evals"] / iterations
    m["simulator.self_s"] = m.get("simulator.run_round.self_s", 0.0)
    m["defense.audit_reports"] = rep.stats["audit_reports"]
    return m


def run_repeat(workload, config, traced: bool, reference: str | None) -> Repeat:
    rep = Repeat(traced=traced, ops=workload.ops(config))
    tracer = Tracer()
    probe = SpeedProbe(reference_work, REFERENCE_S)
    try:
        with instrument(tracer) if traced else probe:
            obj = workload.build(config)
            with op_timer(workload, obj, rep, probe):
                t0, busy = time.perf_counter(), probe.busy
                text, result = workload.body(obj)
                t1 = time.perf_counter()
        rep.wall_s = t1 - t0 - (probe.busy - busy)
        if traced:
            rep.run_s = rep.wall_s
            rep.op_times = [end - start for start, end, _ in rep.op_spans]
        else:
            rep.run_s = rep.wall_s * probe.scale(t0, t1)
            rep.op_times = [(end - start - busy) * probe.scale(start, end)
                            for start, end, busy in rep.op_spans]
        problems = workload.check(result, rep.stats)
        if reference is not None and text != reference:
            problems.append("output bytes differ from the first repeat")
    except Exception:  # a failed repeat is reported, not fatal to the run
        traceback.print_exc()
        problems = ["unexpected exception"]
        text = None
    rep.text = text
    if problems:
        print(f"{workload.name}: check failed: {'; '.join(problems)}", file=sys.stderr)
        rep.failed = rep.ops
    elif workload.kind == "dlg":
        rep.failed = sum(cell.diverged for cell in result)
    if traced and not problems:
        rep.layers = layer_metrics(tracer, rep)
    return rep


def run_repeats(workload, config, seconds: float, trace: bool) -> list[Repeat]:
    """Repeat the body until `seconds` are used (at least one cycle). With
    tracing, each cycle is one untraced and one traced repeat."""
    modes = (False, True) if trace else (False,)
    repeats: list[Repeat] = []
    reference = None
    start = time.perf_counter()
    cycles = 0
    while True:
        for traced in modes:
            rep = run_repeat(workload, config, traced, reference)
            if reference is None:
                reference = rep.text
            repeats.append(rep)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > seconds:
            return repeats


# -- provenance --------------------------------------------------------------

def blas_info() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def provenance(name, seed, scale, repeats, text, wall_s) -> dict:
    return {
        "workload": name, "seed": seed, "scale": scale,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(), "git_commit": git_commit(),
        "output_sha256": hashlib.sha256(text.encode()).hexdigest() if text else None,
        "repeats": {"untraced": sum(not r.traced for r in repeats),
                    "traced": sum(r.traced for r in repeats)},
        "untraced_wall_s": wall_s,
        "reference_s": REFERENCE_S,
    }


# -- the run -----------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def _finite(value) -> float:
    """NaN (no successful repeat) would make the line invalid JSON; such a
    run already reports correct: false."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full", setup_runs: int | None = None) -> dict:
    """Run one workload; returns {"result", "provenance", "summary"}."""
    workload = WORKLOADS[name]
    config = workload.config(seed, scale)
    if trace:
        setup = measure_setup(name, seed, scale, setup_runs or TRACED_SETUP_RUNS, True)
    else:
        setup = measure_setup(name, seed, scale, setup_runs or SETUP_RUNS, False)
    repeats = run_repeats(workload, config, seconds, trace)

    ok = [r for r in repeats if not r.failed]
    plain = [r for r in (ok or repeats) if not r.traced]
    if trace:
        traced = [r for r in ok if r.traced]
        keys = {k for r in traced for k in r.layers}
        metrics = {k: _median([r.layers.get(k, 0) for r in traced]) for k in keys}
        for key in ("import_s", "import_scipy_s", "build_s"):
            metrics[f"setup.{key}"] = _median([s[key] for s in setup])
        metrics["trace.overhead_frac"] = (
            _median([r.wall_s for r in traced]) / _median([r.wall_s for r in plain]) - 1)
        wanted = PER_LAYER
    else:
        op_ms = [t * 1e3 for r in plain for t in r.op_times]
        metrics = {
            "setup_s": _median([(s["import_s"] + s["build_s"]) * s["scale"]
                                for s in setup]),
            "run_s": _median([r.run_s for r in plain]),
            "op_p90_ms": _percentile(op_ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = END_TO_END

    attempted = sum(r.ops for r in repeats)
    failed = sum(r.failed for r in repeats)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": _finite(metrics.get(k, 0)), "unit": unit}
                    for k, unit in wanted},
    }
    text = next((r.text for r in repeats if r.text is not None), None)
    summary = [f"{name} seed={seed} scale={scale} trace={int(trace)}: "
               f"{len(repeats)} repeats, {attempted} operations, {failed} failed "
               f"(failed_frac {failed / attempted:.4g})"]
    summary += [f"  {k:<44} {v['value']:.6g} {v['unit']}"
                for k, v in result["metrics"].items()]
    wall_s = _median([r.wall_s for r in plain])
    summary.append(f"  untraced body wall time {wall_s:.6g} s (median, not scaled)")
    return {"result": result, "summary": summary,
            "provenance": provenance(name, seed, scale, repeats, text, wall_s)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["summary"]))
    print(json.dumps({"provenance": out["provenance"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
