"""One measuring process of the ledger.

``run.py`` starts this file in a fresh interpreter, with the thread
pins, hash seed and cache/session directories already in the
environment, once per sample of set-up time. Modes:

* ``timed``   — set-up (imports, configs from ``--seed``, reference,
  one untimed warm-up pass), then identical timed passes for
  ``--seconds``; the span recorder is never loaded.
* ``traced``  — the same set-up, then untraced and traced passes in
  alternation: the traced ones give the per-layer spans and counts, the
  untraced ones the phase times and the base of ``ledger.trace_overhead``.
* ``probes``  — the isolated per-layer probes (``probes.py``).
* ``spin``    — the host-speed spin and the host's numpy/BLAS identity.
* ``reference`` — one pass; prints what ``reference.json`` holds.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The phases of ``sweep_ops``, timed by the workload in untraced passes.
PHASES = (
    "experiments.executor.cold_s",
    "experiments.executor.warm_s",
    "experiments.executor.pool_s",
    "experiments.session.cold_s",
    "experiments.session.resume_s",
    "perf.ladder_s",
    "cli.help_s",
    "cli.fig3_s",
)

#: Exact per-pass counts reported as per-layer metrics.
COUNTS = (
    "sim.engine.events",
    "sim.events.queue_high_water",
    "sim.network.messages",
    "sim.network.bytes",
    "core.worker_iters",
    "experiments.executor.cells",
    "experiments.executor.cache_hits",
    "experiments.executor.executed",
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _load_reference(path: Path, scale: str, workload: str, seed: int) -> dict | None:
    document = json.loads(path.read_text())
    if document["seed"] != seed:
        return None
    return document["scales"][scale][workload]


def _timed_pass(workload, run_pass=None):
    gc.collect()
    workload.reset()
    run_pass = run_pass or workload.run_pass
    start = time.perf_counter()
    result = run_pass()
    return time.perf_counter() - start, result


class _Tracing:
    """Traced passes: boundaries patched for exactly one pass at a time,
    so the untraced passes in between run the unmodified program."""

    def __init__(self) -> None:
        import spans

        self.spans = spans
        self.recorder = spans.SpanRecorder()
        self.walls: list[float] = []
        self.by_name: list[dict] = []
        self.counts: dict[str, int] = {}
        self.tree: dict = {}

    def traced_pass(self, workload):
        spans, recorder = self.spans, self.recorder
        recorder.reset()
        undo = spans.install(recorder)
        try:
            wall, result = _timed_pass(
                workload, recorder.wrap(spans.ROOT_SPAN, workload.run_pass)
            )
        finally:
            spans.uninstall(undo)
        self.walls.append(wall)
        self.by_name.append(recorder.by_name())
        self.counts = dict(recorder.counts)
        self.tree = recorder.tree()
        return wall, result

    def per_layer(self, warmup, walls: list[float], phases: list[dict]) -> dict:
        """Medians over the traced passes for spans, exact counts, and
        the untraced phase times."""
        spans = self.spans
        out: dict[str, dict] = {}
        wall = _median(walls)
        for name in spans.SPAN_NAMES:
            per_pass = [p.get(name, {"n": 0, "self_s": 0.0}) for p in self.by_name]
            out[f"{name}_s"] = _metric(_median([p["self_s"] for p in per_pass]), "s")
            out[f"{name}_n"] = _metric(_median([p["n"] for p in per_pass]), "count")
        out["ledger.unattributed_s"] = _metric(
            _median([p[spans.ROOT_SPAN]["self_s"] for p in self.by_name]), "s"
        )
        out["ledger.trace_overhead"] = _metric(_median(self.walls) / wall - 1.0, "ratio")

        counts = {**warmup.counts, **self.counts}
        for name in COUNTS:
            out[name] = _metric(counts.get(name, 0), "count")
        events = counts.get("sim.engine.events", 0)
        iters = counts.get("core.worker_iters", 0)
        out["sim.engine.events_per_worker_iter"] = _metric(
            events / iters if iters else 0.0, "ratio"
        )
        # Events of a pass over its *untraced* wall time: host speed per
        # simulated event, free of the tracing overhead.
        out["sim.engine.events_per_s"] = _metric(events / wall, "1/s")

        for phase in PHASES:
            out[phase] = _metric(_median([p.get(phase, 0.0) for p in phases]), "s")
        cold = out["experiments.executor.cold_s"]["value"]
        pool = out["experiments.executor.pool_s"]["value"]
        out["experiments.executor.pool_speedup"] = _metric(
            cold / pool if pool else 0.0, "ratio"
        )
        return out


def run_workload(args) -> dict:
    import workloads

    workload = workloads.make_workload(args.workload, args.seed, args.scale, Path(args.tmp))
    _, warmup = _timed_pass(workload)
    if args.mode == "reference":
        return {"digests": warmup.digests, "accuracies": warmup.accuracies}
    reference = _load_reference(Path(args.reference), args.scale, args.workload, args.seed)

    tracing = _Tracing() if args.mode == "traced" else None
    attempted = warmup.attempted
    failures = workloads.check_pass(warmup, warmup, reference)
    walls: list[float] = []
    phases: list[dict] = []
    setup_s = time.time() - args.spawned_at
    budget_start = time.perf_counter()
    while True:
        wall, result = _timed_pass(workload)
        walls.append(wall)
        phases.append(result.phases)
        attempted += result.attempted
        failures += workloads.check_pass(result, warmup, reference)
        if tracing is not None:
            _, result = tracing.traced_pass(workload)
            attempted += result.attempted
            failures += workloads.check_pass(result, warmup, reference)
        if time.perf_counter() - budget_start >= args.seconds:
            break

    predict_rel_err = workload.predict_rel_err(warmup)
    out = {
        "workload": workload.name,
        "work_unit": workload.work_unit,
        "work": warmup.work,
        "setup_s": setup_s,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failures": failures,
        "digests": warmup.digests,
        "accuracies": warmup.accuracies,
        "predict_rel_err": predict_rel_err,
    }
    if tracing is not None:
        out["per_layer"] = tracing.per_layer(warmup, walls, phases)
        out["per_layer"]["perf.predict_rel_err"] = _metric(predict_rel_err or 0.0, "ratio")
        out["span_tree"] = tracing.tree
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode", required=True, choices=("timed", "traced", "probes", "spin", "reference")
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spawned-at", type=float, default=time.time())
    parser.add_argument("--loops", type=int, default=3)
    args = parser.parse_args(argv)

    if args.mode == "spin":
        import probes

        out = probes.host()
    elif args.mode == "probes":
        import probes

        out = probes.run_all(args.seconds, args.loops)
    else:
        out = run_workload(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
