"""End-to-end wiring: an instrumented run populates every metric family."""

import dataclasses

import pytest

from repro.core.runner import DistributedRunner
from repro.faults.config import FaultConfig, FaultEvent
from repro.obs import ObsConfig
from repro.obs.recorder import RunObserver
from repro.sim.trace import PhaseTracer

from tests.conftest import small_full_config, small_timing_config


@pytest.fixture(scope="module")
def observed_bsp():
    runner = DistributedRunner(
        small_timing_config("bsp", trace=True), obs=ObsConfig(enabled=True)
    )
    runner.run()
    return runner


class TestEngineSignals:
    def test_queue_depth_sampled(self, observed_bsp):
        reg = observed_bsp.observer.registry
        depth = reg.series("engine.queue_depth")
        assert len(depth) > 0
        assert all(v >= 0 for v in depth.values)

    def test_finalize_records_engine_totals(self, observed_bsp):
        reg = observed_bsp.observer.registry
        assert reg.counter("engine.events_processed").value > 0
        assert reg.gauge("engine.queue_high_water").value > 0
        assert reg.gauge("engine.final_time").value == pytest.approx(
            observed_bsp.engine.now
        )

    def test_process_spans_all_closed(self, observed_bsp):
        processes = observed_bsp.observer.processes
        assert processes
        assert all(p.end is not None and p.end >= p.start for p in processes)


class TestNetworkSignals:
    def test_message_events_and_counters_agree(self, observed_bsp):
        obs = observed_bsp.observer
        assert obs.messages
        assert obs.registry.counter("comm.messages").value == len(obs.messages)
        assert obs.registry.counter("comm.bytes").value == sum(
            m.nbytes for m in obs.messages
        )
        assert all(m.t_recv >= m.t_send for m in obs.messages)

    def test_network_totals_match(self, observed_bsp):
        reg = observed_bsp.observer.registry
        net = observed_bsp.network
        assert reg.counter("net.total_bytes").value == net.total_bytes
        assert reg.counter("net.total_messages").value == net.total_messages

    def test_link_utilization_gauges(self, observed_bsp):
        reg = observed_bsp.observer.registry
        utils = {
            name: g.value
            for name, g in reg.gauges().items()
            if name.startswith("net.") and name.endswith(".utilization")
        }
        assert utils
        assert all(0.0 <= v <= 1.0 for v in utils.values())

    def test_per_link_series_cumulative(self, observed_bsp):
        reg = observed_bsp.observer.registry
        byte_series = [
            s for name, s in reg.all_series().items()
            if name.startswith("net.") and name.endswith(".bytes") and len(s)
        ]
        assert byte_series
        for series in byte_series:
            assert all(
                b >= a for a, b in zip(series.values, series.values[1:])
            ), "per-link byte counts are cumulative"


class TestWorkerAndPSSignals:
    def test_ps_inbox_depth_sampled(self, observed_bsp):
        reg = observed_bsp.observer.registry
        assert len(reg.series("ps0.inbox_depth")) > 0

    def test_staleness_sampled_per_worker(self, observed_bsp):
        reg = observed_bsp.observer.registry
        staleness = [
            name for name in reg.all_series() if ".staleness.w" in name
        ]
        assert staleness
        for name in staleness:
            assert all(v >= 0 for v in reg.series(name).values)

    def test_compute_draws_positive(self, observed_bsp):
        reg = observed_bsp.observer.registry
        cfg = observed_bsp.config
        for w in range(cfg.num_workers):
            draws = reg.series(f"w{w}.compute_time")
            assert len(draws) > 0
            assert all(v > 0 for v in draws.values)

    def test_iteration_progress_monotone(self, observed_bsp):
        reg = observed_bsp.observer.registry
        progress = reg.series("progress.iterations")
        assert len(progress) > 0
        assert all(
            b >= a for a, b in zip(progress.values, progress.values[1:])
        )


class TestFullModeWiring:
    def test_asp_full_run_collects_staleness(self):
        runner = DistributedRunner(
            small_full_config("asp"), obs=ObsConfig(enabled=True)
        )
        runner.run()
        reg = runner.observer.registry
        assert any(".staleness.w" in name for name in reg.all_series())
        assert reg.counter("trace.spans").value == len(runner.observer.spans)
        # ASP workers ship gradients through the comm plan, so the
        # per-worker gradient-byte counters are populated.
        total = sum(
            c.value for name, c in reg.counters().items()
            if name.endswith(".grad_bytes")
        )
        assert total > 0


class TestEveryStream:
    def test_an_observed_run_records_every_stream(self):
        """The one switch turns on every stream: metrics, messages,
        process lifetimes, iteration marks, fault events and spans."""
        crash = FaultEvent(time=0.05, kind="crash", worker=7, rejoin_after=0.03)
        detection = dict(
            heartbeat_interval=0.01,
            heartbeat_timeout=0.02,
            backoff_factor=1.0,
            max_suspect_rounds=0,
        )
        cfg = small_timing_config("bsp", faults=FaultConfig(events=(crash,), **detection))
        runner = DistributedRunner(cfg, obs=ObsConfig(enabled=True))
        runner.run()
        obs = runner.observer
        reg = obs.registry
        assert reg.counter("comm.messages").value > 0
        assert len(reg.series("engine.queue_depth")) > 0
        net = [s for name, s in reg.all_series().items() if name.startswith("net.")]
        assert net and all(len(s) > 0 for s in net)
        assert obs.messages
        assert obs.processes
        assert obs.iteration_marks
        assert obs.fault_events
        assert len(runner.observer.spans) == reg.counter("trace.spans").value > 0
        assert [f.name for f in dataclasses.fields(ObsConfig)] == ["enabled"]


class TestSpanCount:
    def test_trace_spans_counts_the_observers_spans(self):
        observer = RunObserver()
        tracer = PhaseTracer(spans=observer.spans)
        tracer.record(0, "comm", 0.0, 1.0)
        tracer.begin(1, "compute", 0.0)
        tracer.end(1, "compute", 2.0)
        observer.finalize()
        assert observer.registry.counter("trace.spans").value == 2
        assert [s.phase for s in observer.spans] == ["comm", "compute"]
