"""Tests for phase tracing."""

import random

import pytest

from repro.sim.trace import MAIN_PHASES, PHASES, PhaseTracer, Span, normalize_breakdown


class TestPhaseTracer:
    def test_begin_end_records_span(self):
        spans = []
        t = PhaseTracer(spans=spans)
        t.begin(0, "compute", 1.0)
        t.end(0, "compute", 3.0)
        assert spans == [Span(0, "compute", 1.0, 3.0)]
        assert t.breakdown()["compute"] == pytest.approx(2.0)

    def test_record_direct(self):
        spans = []
        t = PhaseTracer(spans=spans)
        t.record(1, "comm", 0.0, 0.5)
        assert spans == [Span(1, "comm", 0.0, 0.5)]
        assert t.breakdown()["comm"] == pytest.approx(0.5)

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
        assert t.breakdown()["compute"] == pytest.approx(3.0)

    def test_breakdown_and_fractions(self):
        t = PhaseTracer()
        t.record(0, "compute", 0.0, 6.0)
        t.record(0, "global_agg", 6.0, 8.0)
        t.record(0, "comm", 8.0, 10.0)
        t.record(-1, "agg_wait", 6.0, 7.5)
        assert t.breakdown()["agg_wait"] == 1.5
        frac = normalize_breakdown(t.breakdown())
        assert frac["compute"] == pytest.approx(0.6)
        assert frac["global_agg"] == pytest.approx(0.2)
        assert "agg_wait" not in frac  # sub-component, not a main phase
        assert sum(frac.values()) == pytest.approx(1.0)

    def test_disabled_tracer_is_noop(self):
        spans = []
        t = PhaseTracer(enabled=False, spans=spans)
        t.begin(0, "compute", 0.0)
        t.end(0, "compute", 1.0)
        t.record(0, "comm", 0.0, 1.0)
        assert spans == []
        assert normalize_breakdown(t.breakdown()) == {p: 0.0 for p in MAIN_PHASES}


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
        spans = []
        t = PhaseTracer(enabled=False, spans=spans)
        t.begin(0, "not-a-phase", 0.0)
        t.end(0, "not-a-phase", 1.0)
        t.record(0, "also-wrong", 0.0, 1.0)
        assert spans == []


class TestTotals:
    """Totals are accumulated as spans finish: bit for bit the in-order
    sum a pass over the span list performs, whether a list is given."""

    @staticmethod
    def recorded(spans):
        rng = random.Random(7)
        tracer = PhaseTracer(spans=spans)
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
        spans = []
        tracer = self.recorded(spans)
        by_phase = {phase: 0.0 for phase in PHASES}
        for span in spans:
            by_phase[span.phase] += span.duration
        assert tracer.breakdown() == by_phase
        assert {span.worker for span in spans} == {0, 1, 2, 3}

    def test_same_totals_without_the_span_list(self):
        spans = []
        kept = self.recorded(spans)
        alone = self.recorded(None)
        assert spans
        assert alone.breakdown() == kept.breakdown()
        assert normalize_breakdown(alone.breakdown()) == normalize_breakdown(kept.breakdown())

    def test_flush_open_truncates_into_the_totals(self):
        spans = []
        tracer = PhaseTracer(spans=spans)
        tracer.begin(3, "compute", 1.0)
        tracer.flush_open(1.0)  # nothing elapsed: no span
        assert spans == []
        tracer.begin(3, "compute", 1.0)
        tracer.flush_open(1.75, worker=3)
        assert tracer.breakdown()["compute"] == 0.75
        assert spans == [Span(3, "compute", 1.0, 1.75)]
