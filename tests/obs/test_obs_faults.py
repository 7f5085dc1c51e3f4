"""Observability and fault injection armed together.

A crash interrupts worker processes mid-phase and (optionally) rejoins
them later; the observer and the critical-path analyzer must stay
coherent through both: no dangling open spans or process records, and
attribution that still conserves over every window it reports.
"""

import pytest

from repro.core.runner import DistributedRunner
from repro.faults.config import FaultConfig, FaultEvent
from repro.obs import ObsConfig, analyze_run, build_span_dag

from tests.conftest import small_timing_config

NUM_WORKERS = 8
CRASHED = NUM_WORKERS - 1

# Fast failure detection sized for the short test runs.
DETECTION = dict(
    heartbeat_interval=0.01,
    heartbeat_timeout=0.02,
    backoff_factor=1.0,
    max_suspect_rounds=0,
)


def _crashed_runner(algorithm: str, *, rejoin: bool = False):
    base = DistributedRunner(
        small_timing_config(algorithm), obs=ObsConfig(enabled=True)
    )
    t0 = base.run().measured_time
    event = FaultEvent(
        time=0.4 * t0,
        kind="crash",
        worker=CRASHED,
        rejoin_after=0.2 * t0 if rejoin else None,
    )
    cfg = small_timing_config(
        algorithm, faults=FaultConfig(events=(event,), **DETECTION)
    )
    runner = DistributedRunner(cfg, obs=ObsConfig(enabled=True))
    result = runner.run()
    return runner, result, event


@pytest.fixture(scope="module", params=("bsp", "asp"))
def crash_rejoin_run(request):
    return _crashed_runner(request.param, rejoin=True)


class TestNoDanglingState:
    """The interrupt flushes the crashed worker's spans at kill time;
    nothing of its trace straddles or falls inside the dead interval.
    (A run's *final* tail may leave spans open for live workers — the
    engine halts mid-phase once the measured iterations are done — so
    global emptiness is not the invariant.)"""

    def test_crashed_worker_spans_flushed(self, crash_rejoin_run):
        runner, _, event = crash_rejoin_run
        tracer = runner.ctx.tracer
        rejoin_t = event.time + event.rejoin_after
        # Anything still open for the crashed worker belongs to its
        # post-rejoin life (the normal end-of-run tail), never to the
        # interrupted pre-crash phase.
        for (w, _), start in tracer._open.items():
            if w == CRASHED:
                assert start >= rejoin_t
        for span in runner.observer.spans:
            if span.worker != CRASHED:
                continue
            # Truncated at the kill, or re-opened after the rejoin:
            # never straddling, never inside the dead interval.
            assert not (span.start < event.time < span.end)
            assert not (event.time < span.start < rejoin_t)

    def test_rejoin_reopens_without_double_open(self, crash_rejoin_run):
        runner, _, event = crash_rejoin_run
        # The double-open guard would have raised mid-run if the flush
        # missed anything; the rejoined worker traced new spans.
        rejoin_t = event.time + event.rejoin_after
        assert any(
            s.worker == CRASHED and s.start >= rejoin_t
            for s in runner.observer.spans
        )

    def test_process_spans_all_closed(self, crash_rejoin_run):
        runner, _, _ = crash_rejoin_run
        assert runner.observer.processes
        for proc in runner.observer.processes:
            assert proc.end is not None
            assert proc.end >= proc.start

    def test_fault_events_recorded(self, crash_rejoin_run):
        runner, _, _ = crash_rejoin_run
        kinds = {ev.kind for ev in runner.observer.fault_events}
        assert "crash" in kinds


class TestAnalyzerWithCrashedWorkers:
    def test_report_completes_and_conserves(self, crash_rejoin_run):
        runner, _, _ = crash_rejoin_run
        report = analyze_run(runner)
        assert report["windows"] > 0
        # Eviction can merge rounds into one window; conservation must
        # hold over whatever windows exist.
        assert report["max_residual"] <= 1e-6
        assert report["truncated_windows"] == 0
        total = report["totals"]["total"]
        attributed = sum(report["totals"][k] for k in ("compute", "comm", "wait"))
        assert attributed == pytest.approx(total, abs=1e-6)

    def test_crash_without_rejoin_also_analyzes(self):
        runner, _, event = _crashed_runner("bsp", rejoin=False)
        tracer = runner.ctx.tracer
        # The evicted worker never comes back: nothing of it is open
        # and nothing was traced after the kill.
        assert not any(w == CRASHED for w, _ in tracer._open)
        assert not any(
            s.worker == CRASHED and s.start > event.time for s in runner.observer.spans
        )
        report = analyze_run(runner)
        assert report["windows"] > 0
        assert report["max_residual"] <= 1e-6

    def test_dag_survives_missing_worker_activity(self, crash_rejoin_run):
        # The crashed worker's entity still exists (node table covers
        # every endpoint); its timeline just has a hole.
        runner, _, _ = crash_rejoin_run
        dag = build_span_dag(observer=runner.observer, config=runner.config)
        ent = dag.entity_for_worker(CRASHED)
        assert ent is not None
        assert ent.compute_starts  # it computed before the crash
