"""Fault-machinery overhead benchmark: faults-off vs faults-on runtime.

Times a fixed timing-mode run (BSP, 16 workers, ResNet-50, 20 measured
iterations) three ways:

* ``off_s``    — ``faults=None``, the zero-overhead hot path: every
  per-call guard in the runner/network must cost ~nothing;
* ``armed_s``  — an *empty* fault schedule: heartbeats, the monitor
  and membership tracking run, but nothing fails;
* ``crash_s``  — one crash-then-rejoin mid-run: detection, eviction,
  respawn and checkpoint restore all exercised.

A second record times the same three-way comparison on a *rack-scale*
run (AR-SGD hring on a two-rack leaf/spine fabric) and adds the
crash-recovery cost of a correlated rack outage — the wall time of a
run in which a whole rack (half the workers) is detected, evicted and
the hierarchy rebuilt mid-collective.

Wall-clock noise on shared CI boxes dwarfs small signals, so the
baseline comparison is *soft* (printed, and only asserted against a
generous 1.5x bound); trends are tracked across the appended history
in ``benchmarks/BENCH_faults.json``.

Marked ``slow``: a wall-clock measurement, not a tier-1 test.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI): fewer workers and
iterations, fast detection, written to a throwaway file. Smoke runs
are best of 3 too: a ratio over one tens-of-milliseconds run is at
the mercy of host load.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from repro.core.runner import execute_run
from repro.experiments.config import timing_config
from repro.faults.config import FaultConfig, FaultEvent
from repro.sim.cluster import hierarchical_cluster

pytestmark = pytest.mark.slow

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
BENCH_FILE = (
    Path(tempfile.gettempdir()) / "BENCH_faults_smoke.json"
    if SMOKE
    else Path(__file__).parent / "BENCH_faults.json"
)
REPEATS = 3

# Sized for the ~25 virtual-second bench run: heartbeat cost scales
# with virtual-time / interval, so a production-style coarse period is
# the fair measurement (sub-second detection is a test-suite setting).
DETECTION = dict(
    heartbeat_interval=0.25,
    heartbeat_timeout=0.6,
    backoff_factor=1.0,
    max_suspect_rounds=1,
)


def bench_config(faults=None):
    """The fixed run every record of BENCH_faults.json times."""
    return timing_config(
        "bsp",
        num_workers=16,
        bandwidth_gbps=10.0,
        measure_iters=20,
        faults=faults,
    )


def _best_of(fn, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_fault_overhead():
    off_s = _best_of(lambda: execute_run(bench_config()))

    armed_s = _best_of(
        lambda: execute_run(bench_config(faults=FaultConfig(**DETECTION)))
    )

    # Crash worker 15 at 40 % of the fault-free runtime, back 20 % later.
    t0 = execute_run(bench_config()).measured_time
    crash = FaultConfig(
        events=(
            FaultEvent(
                time=0.4 * t0, kind="crash", worker=15, rejoin_after=0.2 * t0
            ),
        ),
        **DETECTION,
    )
    crash_s = _best_of(lambda: execute_run(bench_config(faults=crash)))

    records = json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else []
    # The hierarchical bench appends records of its own, without off_s.
    baseline = min((r["off_s"] for r in records if "off_s" in r), default=None)

    record = {
        "run": "bsp 16w resnet50 10Gbps 20 iters, best of 3",
        "off_s": round(off_s, 4),
        "armed_s": round(armed_s, 4),
        "crash_s": round(crash_s, 4),
        "armed_overhead": round(armed_s / off_s - 1, 4),
        "crash_overhead": round(crash_s / off_s - 1, 4),
        "off_vs_baseline": (
            round(off_s / baseline - 1, 4) if baseline else None
        ),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    records.append(record)
    BENCH_FILE.write_text(json.dumps(records, indent=2) + "\n")
    print("\n" + json.dumps(record, indent=2))

    # Soft regression guard: faults-off must not drift far from history.
    if baseline is not None:
        assert off_s < baseline * 1.5, (
            f"faults-off run {off_s:.3f}s vs historical best {baseline:.3f}s"
        )
    # Heartbeats are tiny oob messages on a coarse period; even armed,
    # the run must stay within a small multiple of the bare path, and a
    # single crash/rejoin is bounded extra work on top.
    assert armed_s < off_s * 3
    assert crash_s < off_s * 4


# -- rack-scale: hierarchical armed overhead + rack-outage recovery -----

HIER_WORKERS = 32 if SMOKE else 64
HIER_ITERS = 5 if SMOKE else 20
# Fast detection in smoke mode so the outage resolves within the short
# run; the full bench keeps the production-style coarse heartbeat.
HIER_DETECTION = (
    dict(
        heartbeat_interval=0.01,
        heartbeat_timeout=0.02,
        backoff_factor=1.0,
        max_suspect_rounds=0,
    )
    if SMOKE
    else DETECTION
)


def hier_bench_config(faults=None):
    """AR-SGD hring on a two-rack leaf/spine fabric (4-machine racks)."""
    cluster = hierarchical_cluster(
        machines=HIER_WORKERS // 4,
        machines_per_rack=HIER_WORKERS // 8,
        oversubscription=4.0,
        bandwidth_gbps=10.0,
    )
    return timing_config(
        "ar-sgd",
        num_workers=HIER_WORKERS,
        cluster=cluster,
        collective="hring",
        measure_iters=HIER_ITERS,
        faults=faults,
    )


def test_hierarchical_fault_overhead():
    off_s = _best_of(lambda: execute_run(hier_bench_config()))

    armed_s = _best_of(
        lambda: execute_run(hier_bench_config(FaultConfig(**HIER_DETECTION)))
    )

    # Kill rack 1 — half the cluster — at 40 % of the fault-free runtime.
    t0 = execute_run(hier_bench_config()).measured_time
    outage = FaultConfig(
        events=(FaultEvent(time=0.4 * t0, kind="rack_outage", rack=1),),
        **HIER_DETECTION,
    )
    summaries = []
    rack_s = _best_of(
        lambda: summaries.append(
            execute_run(hier_bench_config(faults=outage)).metadata["faults"]
        )
    )
    evicted = len(summaries[-1]["evictions"])
    assert evicted == HIER_WORKERS // 2  # the whole rack, nobody else

    records = json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else []
    record = {
        "run": (
            f"ar-sgd/hring {HIER_WORKERS}w 2 racks resnet50 10Gbps "
            f"{HIER_ITERS} iters, best of {REPEATS}"
        ),
        "hier_off_s": round(off_s, 4),
        "hier_armed_s": round(armed_s, 4),
        "rack_outage_s": round(rack_s, 4),
        "hier_armed_overhead": round(armed_s / off_s - 1, 4),
        "rack_recovery_overhead": round(rack_s / off_s - 1, 4),
        "rack_evicted": evicted,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    records.append(record)
    BENCH_FILE.write_text(json.dumps(records, indent=2) + "\n")
    print("\n" + json.dumps(record, indent=2))

    assert armed_s < off_s * 3
    # A rack outage evicts half the workers one by one and respawns the
    # survivors' hierarchy; bounded extra work, never a hang.
    assert rack_s < off_s * 6
