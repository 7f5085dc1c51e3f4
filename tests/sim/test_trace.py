"""Tests for phase tracing."""

import random

import pytest

from repro.sim.trace import PHASES, PhaseTracer, Span


class TestPhaseTracer:
    def test_begin_end_records_span(self):
        t = PhaseTracer()
        t.begin(0, "compute", 1.0)
        t.end(0, "compute", 3.0)
        assert t.spans == [Span(0, "compute", 1.0, 3.0)]
        assert t.total("compute") == pytest.approx(2.0)

    def test_record_direct(self):
        t = PhaseTracer()
        t.record(1, "comm", 0.0, 0.5)
        assert t.total("comm", worker=1) == pytest.approx(0.5)
        assert t.total("comm", worker=0) == 0.0

    def test_double_begin_raises(self):
        t = PhaseTracer()
        t.begin(0, "compute", 0.0)
        with pytest.raises(RuntimeError):
            t.begin(0, "compute", 1.0)

    def test_end_without_begin_raises(self):
        t = PhaseTracer()
        with pytest.raises(RuntimeError):
            t.end(0, "compute", 1.0)

    def test_backwards_span_raises(self):
        t = PhaseTracer()
        t.begin(0, "compute", 5.0)
        with pytest.raises(RuntimeError):
            t.end(0, "compute", 1.0)
        with pytest.raises(RuntimeError):
            t.record(0, "comm", 2.0, 1.0)

    def test_concurrent_spans_different_workers(self):
        t = PhaseTracer()
        t.begin(0, "compute", 0.0)
        t.begin(1, "compute", 0.0)
        t.end(1, "compute", 1.0)
        t.end(0, "compute", 2.0)
        assert t.total("compute") == pytest.approx(3.0)

    def test_breakdown_and_fractions(self):
        t = PhaseTracer()
        t.record(0, "compute", 0.0, 6.0)
        t.record(0, "global_agg", 6.0, 8.0)
        t.record(0, "comm", 8.0, 10.0)
        t.record(-1, "agg_wait", 6.0, 7.5)
        frac = t.fractions()
        assert frac["compute"] == pytest.approx(0.6)
        assert frac["global_agg"] == pytest.approx(0.2)
        assert "agg_wait" not in frac  # sub-component, not a main phase
        assert sum(frac.values()) == pytest.approx(1.0)

    def test_disabled_tracer_is_noop(self):
        t = PhaseTracer(enabled=False)
        t.begin(0, "compute", 0.0)
        t.end(0, "compute", 1.0)
        t.record(0, "comm", 0.0, 1.0)
        assert t.spans == []
        assert t.fractions() == {p: 0.0 for p in ("compute", "local_agg", "global_agg", "comm")}


class TestPhaseValidation:
    def test_begin_unknown_phase_raises(self):
        t = PhaseTracer()
        with pytest.raises(ValueError, match="unknown phase"):
            t.begin(0, "computee", 0.0)

    def test_end_unknown_phase_raises(self):
        t = PhaseTracer()
        with pytest.raises(ValueError, match="unknown phase"):
            t.end(0, "warmup", 1.0)

    def test_record_unknown_phase_raises(self):
        t = PhaseTracer()
        with pytest.raises(ValueError, match="unknown phase"):
            t.record(0, "io", 0.0, 1.0)

    def test_disabled_tracer_skips_validation_with_spans(self):
        # Disabled tracers drop spans before validating: the hot path
        # stays a cheap early return.
        t = PhaseTracer(enabled=False)
        t.begin(0, "not-a-phase", 0.0)
        t.end(0, "not-a-phase", 1.0)
        t.record(0, "also-wrong", 0.0, 1.0)
        assert t.spans == []


class TestTotals:
    """Totals are accumulated as spans finish: bit for bit the in-order
    sum a pass over the span list performs, whether the list is kept."""

    @staticmethod
    def recorded(keep_spans):
        rng = random.Random(7)
        tracer = PhaseTracer(keep_spans=keep_spans)
        now = 0.0
        for step in range(400):
            worker = rng.randrange(4)
            # Magnitudes six decades apart: float addition order shows.
            length = rng.random() * 10.0 ** rng.randint(-6, 0)
            if step % 3:
                tracer.record(worker, rng.choice(["comm", "agg_wait"]), now, now + length)
            else:
                phase = rng.choice(["compute", "global_agg"])
                tracer.begin(worker, phase, now)
                if step % 50 == 0:  # a crash: the span is cut short
                    tracer.flush_open(now + 0.5 * length, worker=worker)
                else:
                    tracer.end(worker, phase, now + length)
            now += 0.1 * length
        tracer.begin(0, "local_agg", now)
        tracer.begin(1, "local_agg", now)
        tracer.flush_open(now)  # zero-length: dropped
        tracer.begin(2, "local_agg", now)
        tracer.flush_open(now + 1.0)
        return tracer

    def test_totals_equal_the_in_order_sum_of_spans(self):
        tracer = self.recorded(keep_spans=True)
        by_phase = {phase: 0.0 for phase in PHASES}
        by_worker = {}
        for span in tracer.spans:
            by_phase[span.phase] += span.duration
            key = (span.worker, span.phase)
            by_worker[key] = by_worker.get(key, 0.0) + span.duration
        assert tracer.breakdown() == by_phase
        assert tracer.span_count == len(tracer.spans)
        for worker in range(4):
            expected = {phase: by_worker.get((worker, phase), 0.0) for phase in PHASES}
            assert tracer.breakdown(worker=worker) == expected
            for phase in PHASES:
                assert tracer.total(phase, worker=worker) == expected[phase]
        for phase in PHASES:
            assert tracer.total(phase) == by_phase[phase]

    def test_same_totals_without_the_span_list(self):
        kept = self.recorded(keep_spans=True)
        dropped = self.recorded(keep_spans=False)
        assert dropped.spans == []
        assert dropped.span_count == kept.span_count > 0
        assert dropped.breakdown() == kept.breakdown()
        assert dropped.fractions() == kept.fractions()
        for worker in range(4):
            assert dropped.breakdown(worker=worker) == kept.breakdown(worker=worker)

    def test_flush_open_truncates_into_the_totals(self):
        tracer = PhaseTracer(keep_spans=False)
        tracer.begin(3, "compute", 1.0)
        tracer.flush_open(1.0)  # nothing elapsed: no span
        assert tracer.span_count == 0
        tracer.begin(3, "compute", 1.0)
        tracer.flush_open(1.75, worker=3)
        assert tracer.total("compute", worker=3) == 0.75
        assert tracer.span_count == 1
