"""Time what a user pays before round 0, in a fresh interpreter: importing
fedaudit, then building the workload (its Simulation, or for dlg_grid the
grid config).

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SCALE
Prints one JSON line: {"import_s": ..., "build_s": ..., "scale": ...}. The
times are wall times without the speed probe's own. `scale` converts them to
time at the reference speed (speed.py). numpy is not loaded yet, so the
reference here is a pure-Python loop. Under `-X importtime` nothing is
sampled, so the import-time split holds no probe time, and `scale` is null.
"""

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from speed import SpeedProbe  # noqa: E402

REFERENCE_S = 5e-4  # the loop below on a 2-vCPU Xeon VM, at its median speed


def reference_work() -> int:
    acc = 0
    for i in range(6000):
        acc += i * i
    return acc


probe = SpeedProbe(reference_work, REFERENCE_S)
with nullcontext() if "importtime" in sys._xoptions else probe:
    t0, busy0 = time.perf_counter(), probe.busy
    import fedaudit  # noqa: E402,F401  (timed)
    t1, busy1 = time.perf_counter(), probe.busy
    from workloads import WORKLOADS  # noqa: E402

    name, seed, scale = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workload = WORKLOADS[name]
    workload.build(workload.config(seed, scale))
    t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0 - (busy1 - busy0),
                  "build_s": t2 - t1 - (probe.busy - busy1),
                  "scale": probe.scale(t0, t2) if probe.starts else None}))
