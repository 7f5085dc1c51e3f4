"""Perfetto trace export: JSON validity, ordering, and span accounting."""

import json
import math

import pytest

from repro.core.runner import DistributedRunner
from repro.obs import ObsConfig, build_trace, write_trace
from repro.sim.trace import PHASES

from tests.conftest import small_timing_config


def phase_totals(trace: dict) -> dict[str, float]:
    """Per-phase span-duration totals of a built trace, in seconds."""
    totals: dict[str, float] = {}
    for event in trace["traceEvents"]:
        if event.get("ph") == "X" and event.get("cat") == "phase":
            totals[event["name"]] = totals.get(event["name"], 0.0) + event["dur"] / 1e6
    return totals


@pytest.fixture(scope="module")
def observed_run():
    cfg = small_timing_config("bsp", trace=True)
    runner = DistributedRunner(cfg, obs=ObsConfig(enabled=True))
    runner.run()
    return cfg, runner


@pytest.fixture(scope="module")
def trace(observed_run):
    cfg, runner = observed_run
    return build_trace(observer=runner.observer, cluster=cfg.cluster, label="test run")


class TestTraceStructure:
    def test_round_trips_through_json(self, trace):
        again = json.loads(json.dumps(trace))
        assert again == trace
        assert again["displayTimeUnit"] == "ms"
        assert again["otherData"]["label"] == "test run"

    def test_only_spec_phases(self, trace):
        for event in trace["traceEvents"]:
            assert event["ph"] in ("M", "X", "C")

    def test_timestamps_monotone_nondecreasing(self, trace):
        ts = [e["ts"] for e in trace["traceEvents"] if e["ph"] != "M"]
        assert ts, "expected timed events"
        assert all(b >= a for a, b in zip(ts, ts[1:]))
        assert all(t >= 0 for t in ts)

    def test_span_durations_nonnegative(self, trace):
        for event in trace["traceEvents"]:
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_metadata_names_every_machine(self, observed_run, trace):
        cfg, _ = observed_run
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        for m in range(cfg.cluster.machines):
            assert f"machine{m}" in names
        assert {"parameter servers", "network", "metrics"} <= names


class TestSpanAccounting:
    def test_phase_span_count_matches_tracer(self, observed_run, trace):
        _, runner = observed_run
        spans = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "phase"
        ]
        assert len(spans) == len(runner.observer.spans)

    def test_phase_totals_match_breakdown(self, observed_run, trace):
        _, runner = observed_run
        totals = phase_totals(trace)
        breakdown = runner.ctx.tracer.breakdown()
        assert totals  # a BSP run traces at least compute spans
        for phase in PHASES:
            assert totals.get(phase, 0.0) == pytest.approx(
                breakdown[phase], rel=1e-9, abs=1e-12
            )

    def test_comm_span_count_matches_messages(self, observed_run, trace):
        _, runner = observed_run
        comm = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "comm"
        ]
        assert len(comm) == len(runner.observer.messages)
        assert comm, "a PS run sends messages"

    def test_counter_samples_match_series(self, observed_run, trace):
        _, runner = observed_run
        obs = runner.observer
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        progress = [e for e in counters if e["name"] == "progress.iterations"]
        assert [e["args"]["value"] for e in progress] == [
            float(n) for _, _, n in obs.iteration_marks
        ]
        expected = sum(len(s) for s in obs.series.values()) + len(obs.iteration_marks)
        assert len(counters) == expected
        assert counters, "instrumented runs sample series"
        for event in counters:
            assert math.isfinite(event["args"]["value"])


class TestNodeMetadata:
    def test_every_worker_lane_named_up_front(self, observed_run, trace):
        cfg, _ = observed_run
        thread_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for w in range(cfg.num_workers):
            assert f"w{w}" in thread_names

    def test_every_ps_lane_named_up_front(self, observed_run, trace):
        _, runner = observed_run
        thread_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for shard in runner.runtime.ps_nodes:
            assert f"ps{shard.shard_id}" in thread_names

    def test_metadata_precedes_all_events(self, trace):
        kinds = [e["ph"] == "M" for e in trace["traceEvents"]]
        first_event = kinds.index(False)
        assert not any(kinds[first_event:]), "all M rows are up front"


class TestCritpathLane:
    @pytest.fixture(scope="class")
    def analyzed(self, observed_run):
        from repro.obs import analyze_run

        _, runner = observed_run
        return analyze_run(runner, keep_segments=True)

    def test_lane_absent_without_report(self, trace):
        assert not any(
            e.get("cat") == "critpath" for e in trace["traceEvents"]
        )
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "critical path" not in names

    def test_lane_present_with_report(self, observed_run, analyzed):
        cfg, runner = observed_run
        highlighted = build_trace(
            observer=runner.observer, cluster=cfg.cluster, critpath=analyzed
        )
        names = {
            e["args"]["name"]
            for e in highlighted["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "critical path" in names
        segments = [
            e for e in highlighted["traceEvents"] if e.get("cat") == "critpath"
        ]
        assert len(segments) == len(analyzed["segments"])
        for e in segments:
            assert e["ph"] == "X"
            assert e["name"] in ("compute", "comm", "wait")
            assert e["dur"] >= 0
        # The merge keeps global ts order even with the extra stream.
        ts = [e["ts"] for e in highlighted["traceEvents"] if e["ph"] != "M"]
        assert all(b >= a for a, b in zip(ts, ts[1:]))


class TestWriteTrace:
    def test_write_and_reload(self, observed_run, tmp_path):
        cfg, runner = observed_run
        path = write_trace(
            tmp_path / "sub" / "trace.json", observer=runner.observer, cluster=cfg.cluster
        )
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]
        assert phase_totals(loaded) == pytest.approx(
            phase_totals(
                build_trace(observer=runner.observer, cluster=cfg.cluster)
            )
        )
