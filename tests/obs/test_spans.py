"""Causal span-DAG reconstruction from an observed run."""

import pytest

from repro.core.runner import DistributedRunner
from repro.obs import ObsConfig, build_span_dag
from repro.obs.spans import EntityTimeline

from tests.conftest import small_timing_config


@pytest.fixture(scope="module")
def bsp_runner():
    runner = DistributedRunner(
        small_timing_config("bsp", trace=True), obs=ObsConfig(enabled=True)
    )
    runner.run()
    return runner


@pytest.fixture(scope="module")
def bsp_dag(bsp_runner):
    return build_span_dag(
        observer=bsp_runner.observer,
        config=bsp_runner.config,
    )


class TestEntityTimeline:
    @pytest.fixture
    def timeline(self):
        # Two compute spans [1,2] and [3,4]; receives at 2.5 and 3.0.
        t = EntityTimeline(node_id=0, kind="worker", index=0, machine=0, label="w0")
        t.compute_starts = [1.0, 3.0]
        t.compute_ends = [2.0, 4.0]

        class Msg:
            def __init__(self, t_recv):
                self.t_recv = t_recv

        t.recv_msgs = [Msg(2.5), Msg(3.0)]
        t.recv_times = [2.5, 3.0]
        return t

    def test_compute_span_at_interior_and_end(self, timeline):
        assert timeline.compute_span_at(1.5) == (1.0, 2.0)
        assert timeline.compute_span_at(2.0) == (1.0, 2.0)

    def test_compute_span_at_start_is_not_covered(self, timeline):
        # A span beginning exactly at t is not yet underway at t; the
        # walk must be free to jump through a message delivered at t.
        assert timeline.compute_span_at(3.0) is None
        assert timeline.compute_span_at(1.0) is None

    def test_compute_span_at_gap(self, timeline):
        assert timeline.compute_span_at(2.5) is None
        assert timeline.compute_span_at(0.5) is None

    def test_last_compute_end_before(self, timeline):
        assert timeline.last_compute_end_before(2.5) == 2.0
        assert timeline.last_compute_end_before(2.0) is None  # strict
        assert timeline.last_compute_end_before(10.0) == 4.0
        assert timeline.last_compute_end_before(0.5) is None

    def test_last_recv_before(self, timeline):
        assert timeline.last_recv_before(2.4) is None
        assert timeline.last_recv_before(2.5).t_recv == 2.5  # inclusive
        assert timeline.last_recv_before(9.0).t_recv == 3.0


class TestDagConstruction:
    def test_node_table_covers_every_endpoint(self, bsp_runner, bsp_dag):
        cfg = bsp_runner.config
        workers = [e for e in bsp_dag.entities.values() if e.kind == "worker"]
        ps = [e for e in bsp_dag.entities.values() if e.kind == "ps"]
        assert len(workers) == cfg.num_workers
        assert len(ps) == len(bsp_runner.runtime.ps_nodes)
        assert sorted(e.index for e in workers) == list(range(cfg.num_workers))
        for wid in range(cfg.num_workers):
            ent = bsp_dag.entity_for_worker(wid)
            assert ent is not None and ent.label == f"w{wid}"

    def test_compute_spans_sorted_and_disjoint(self, bsp_dag):
        for wid in range(bsp_dag.num_workers):
            ent = bsp_dag.entity_for_worker(wid)
            assert ent.compute_starts, f"worker {wid} has no compute spans"
            pairs = list(zip(ent.compute_starts, ent.compute_ends))
            assert all(s < e for s, e in pairs)
            assert all(b[0] >= a[1] for a, b in zip(pairs, pairs[1:]))

    def test_receives_sorted_and_causal(self, bsp_dag):
        indexed = [e for e in bsp_dag.entities.values() if e.recv_times]
        assert indexed, "no entity indexed any received message"
        for ent in indexed:
            assert ent.recv_times == sorted(ent.recv_times)
            for msg in ent.recv_msgs:
                assert msg.dst_node == ent.node_id
                assert msg.t_recv >= msg.t_send
                assert msg.src_node in bsp_dag.entities

    def test_windows_tile_the_run(self, bsp_dag):
        assert bsp_dag.windows
        assert bsp_dag.windows[0].start == 0.0
        for a, b in zip(bsp_dag.windows, bsp_dag.windows[1:]):
            assert b.start == a.end
            assert b.index == a.index + 1
        assert all(w.duration > 0 for w in bsp_dag.windows)

    def test_measured_windows_match_timing_config(self, bsp_runner, bsp_dag):
        cfg = bsp_runner.config
        measured = bsp_dag.measured_windows()
        assert len(measured) == cfg.measure_iters
        assert measured[0].index == cfg.warmup_iters + 1

    def test_closing_worker_is_a_worker(self, bsp_dag):
        for w in bsp_dag.windows:
            assert 0 <= w.closing_worker < bsp_dag.num_workers


class TestSpanBreakdown:
    def test_matches_tracer_exactly(self, bsp_runner, bsp_dag):
        # The exact half of the Fig 3 cross-validation: the analyzer
        # ingests precisely the spans the tracer aggregated, the
        # observer's own list.
        assert bsp_dag.spans is bsp_runner.observer.spans
        totals: dict[str, float] = {}
        for span in bsp_dag.spans:
            totals[span.phase] = totals.get(span.phase, 0.0) + (span.end - span.start)
        assert totals == bsp_runner.ctx.tracer.breakdown()


class TestAggWaitUnion:
    def test_union_is_sorted_and_disjoint(self, bsp_dag):
        union = bsp_dag.agg_wait_union
        assert union, "BSP traces agg_wait spans"
        assert all(a < b for a, b in union)
        assert all(n[0] > p[1] for p, n in zip(union, union[1:]))

    def test_overlap_arithmetic(self, bsp_dag):
        a, b = bsp_dag.agg_wait_union[0]
        assert bsp_dag.agg_wait_overlap(a, b) == pytest.approx(b - a)
        assert bsp_dag.agg_wait_overlap(b, b + 0.1) <= 0.1 + 1e-12
        assert bsp_dag.agg_wait_overlap(a - 1.0, a) == 0.0
