"""End-to-end wiring: an instrumented run populates every stream."""

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
        depth = observed_bsp.observer.series["engine.queue_depth"]
        assert len(depth) > 0
        assert all(v >= 0 for v in depth.values)
        assert max(depth.values) <= observed_bsp.engine.queue_high_water

    def test_process_spans_all_closed(self, observed_bsp):
        processes = observed_bsp.observer.processes
        assert processes
        assert all(p.end is not None and p.end >= p.start for p in processes)


class TestNetworkSignals:
    def test_message_events_and_counters_agree(self, observed_bsp):
        """The observer's message list and the network's own counters
        see the same deliveries."""
        obs = observed_bsp.observer
        net = observed_bsp.network
        assert obs.messages
        assert len(obs.messages) == net.total_messages
        assert sum(m.nbytes for m in obs.messages) == net.total_bytes
        assert all(m.t_recv >= m.t_send for m in obs.messages)

    def test_network_totals_match(self, observed_bsp):
        """Each link's last sample is its port's final total."""
        series = observed_bsp.observer.series
        net = observed_bsp.network
        sampled = [p for p in [*net.tx, *net.rx, *net.intra] if f"net.{p.name}.bytes" in series]
        assert sampled
        for port in sampled:
            assert series[f"net.{port.name}.bytes"].last == port.bytes_served
            assert series[f"net.{port.name}.busy_time"].last == port.busy_time

    def test_link_busy_time_within_run(self, observed_bsp):
        net = observed_bsp.network
        busy = [p.busy_time for p in [*net.tx, *net.rx, *net.intra]]
        assert any(busy)
        assert all(0.0 <= b <= observed_bsp.engine.now for b in busy)

    def test_per_link_series_cumulative(self, observed_bsp):
        byte_series = [
            s for name, s in observed_bsp.observer.series.items()
            if name.startswith("net.") and name.endswith(".bytes") and len(s)
        ]
        assert byte_series
        for series in byte_series:
            assert all(
                b >= a for a, b in zip(series.values, series.values[1:])
            ), "per-link byte counts are cumulative"


class TestWorkerAndPSSignals:
    def test_ps_inbox_depth_sampled(self, observed_bsp):
        assert len(observed_bsp.observer.series["ps0.inbox_depth"]) > 0

    def test_staleness_sampled_per_worker(self, observed_bsp):
        series = observed_bsp.observer.series
        staleness = [name for name in series if ".staleness.w" in name]
        assert staleness
        for name in staleness:
            assert all(v >= 0 for v in series[name].values)

    def test_compute_draws_positive(self, observed_bsp):
        series = observed_bsp.observer.series
        cfg = observed_bsp.config
        for w in range(cfg.num_workers):
            draws = series[f"w{w}.compute_time"]
            assert len(draws) > 0
            assert all(v > 0 for v in draws.values)

    def test_iteration_progress_monotone(self, observed_bsp):
        marks = observed_bsp.observer.iteration_marks
        assert marks
        times = [t for _, t, _ in marks]
        totals = [n for _, _, n in marks]
        assert times == sorted(times)
        assert totals == sorted(totals)
        per_worker = {w: 0 for w in range(observed_bsp.config.num_workers)}
        for w, _, _ in marks:
            per_worker[w] += 1
        assert per_worker == {
            slot.wid: slot.iterations for slot in observed_bsp.runtime.workers
        }


class TestFullModeWiring:
    def test_asp_full_run_collects_staleness(self):
        runner = DistributedRunner(
            small_full_config("asp"), obs=ObsConfig(enabled=True)
        )
        runner.run()
        obs = runner.observer
        assert any(".staleness.w" in name for name in obs.series)
        assert obs.spans
        # ASP workers ship gradients through the comm plan, so every
        # worker's gradient bytes are counted.
        assert sorted(obs.worker_grad_bytes) == list(range(runner.config.num_workers))
        assert all(n > 0 for n in obs.worker_grad_bytes.values())


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
        assert len(obs.series["engine.queue_depth"]) > 0
        net = [s for name, s in obs.series.items() if name.startswith("net.")]
        assert net and all(len(s) > 0 for s in net)
        assert obs.messages
        assert obs.processes
        assert obs.iteration_marks
        assert obs.fault_events
        assert obs.spans
        assert [f.name for f in dataclasses.fields(ObsConfig)] == ["enabled"]


class TestSpanCount:
    def test_trace_spans_counts_the_observers_spans(self):
        observer = RunObserver()
        tracer = PhaseTracer(spans=observer.spans)
        tracer.record(0, "comm", 0.0, 1.0)
        tracer.begin(1, "compute", 0.0)
        tracer.end(1, "compute", 2.0)
        observer.finalize()
        assert len(observer.spans) == 2
        assert [s.phase for s in observer.spans] == ["comm", "compute"]
