"""Observability overhead benchmark: obs-off vs obs-on runtime.

Times a fixed timing-mode run (BSP, 16 workers, ResNet-50, 20 measured
iterations) four ways:

* ``off_s``  — no observer anywhere, the seed hot path;
* ``on_s``   — an observed run, which records every stream;
* ``built_s``— observability plus Perfetto trace assembly;
* ``analyzed_s`` — observability plus span-DAG reconstruction and
  critical-path attribution (``analyze_run``), the ``repro analyze``
  post-processing cost.

The contract this guards: with observability **off**, the per-call
``if obs is not None`` guards must cost ~nothing — the obs-off runtime
of the instrumented code must stay within a few percent of the
pre-observability baseline recorded in ``BENCH_obs.json`` history.
Wall-clock noise on shared CI boxes dwarfs a 2 % signal, so the
baseline comparison is *soft* (printed, and only asserted against a
generous 1.5x bound); the strict 2 % criterion is tracked across the
appended history instead.

Each invocation appends one record to ``benchmarks/BENCH_obs.json``.
Marked ``slow``: a wall-clock measurement, not a tier-1 test.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core.runner import DistributedRunner, execute_run
from repro.experiments.config import timing_config
from repro.obs import ObsConfig, analyze_run, build_trace

pytestmark = pytest.mark.slow

BENCH_FILE = Path(__file__).parent / "BENCH_obs.json"
REPEATS = 3


def bench_config():
    """The fixed run every record of BENCH_obs.json times."""
    return timing_config(
        "bsp", num_workers=16, bandwidth_gbps=10.0, measure_iters=20
    )


def _best_of(fn, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_obs_overhead():
    cfg = bench_config()

    off_s = _best_of(lambda: execute_run(cfg))

    def observed():
        runner = DistributedRunner(cfg, obs=ObsConfig(enabled=True))
        runner.run()
        return runner

    on_s = _best_of(observed)

    def observed_and_built():
        runner = observed()
        build_trace(observer=runner.observer, cluster=cfg.cluster)

    built_s = _best_of(observed_and_built)

    def observed_and_analyzed():
        report = analyze_run(observed())
        assert report["max_residual"] <= 1e-6  # analysis stays exact

    analyzed_s = _best_of(observed_and_analyzed)

    records = json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else []
    baseline = min((r["off_s"] for r in records), default=None)

    record = {
        "run": "bsp 16w resnet50 10Gbps 20 iters, best of 3",
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "built_s": round(built_s, 4),
        "analyzed_s": round(analyzed_s, 4),
        "on_overhead": round(on_s / off_s - 1, 4),
        "off_vs_baseline": (
            round(off_s / baseline - 1, 4) if baseline else None
        ),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    records.append(record)
    BENCH_FILE.write_text(json.dumps(records, indent=2) + "\n")
    print("\n" + json.dumps(record, indent=2))

    # Soft regression guard: obs-off must not drift far from history
    # (the ~2 % target is tracked via off_vs_baseline in the record).
    if baseline is not None:
        assert off_s < baseline * 1.5, (
            f"obs-off run {off_s:.3f}s vs historical best {baseline:.3f}s"
        )
    # Observation is bounded work per event; it must not blow the run up.
    assert on_s < off_s * 3
    # The analyzer is pure post-processing on recorded state; its cost
    # must stay the same order as the run it analyzes.
    assert analyzed_s < off_s * 4
