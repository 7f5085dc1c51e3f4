"""Per-phase span tracing for the Fig 3 time-breakdown analysis.

Workers bracket each stage of an iteration with
:meth:`PhaseTracer.begin`/:meth:`PhaseTracer.end`. The canonical phase
names follow the paper's Fig 3 legend:

* ``compute``       — forward + backward pass on the GPU
* ``local_agg``     — within-machine gradient reduction (BSP)
* ``global_agg``    — PS-side / collective aggregation incl. waiting
* ``comm``          — wire time of parameter/gradient transfer
* ``agg_wait``      — the waiting component inside an aggregation
                      stage (the paper reports waiting is up to 70–80 %
                      of aggregation)

Spans may overlap (wait-free BP deliberately overlaps ``comm`` with
``compute``); breakdown aggregation is by total span duration, as the
paper's stacked bars are.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Span", "PhaseTracer", "PHASES"]

PHASES = ("compute", "local_agg", "global_agg", "comm", "agg_wait")


class Span(NamedTuple):
    """One traced phase interval. A NamedTuple, not a dataclass:
    spans are created once per phase per iteration, and tuple
    construction is several times cheaper than a frozen dataclass."""

    worker: int
    phase: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _unknown_phase(phase: str) -> ValueError:
    # A typo'd phase would silently skew the Fig 3 fractions (it lands
    # in the breakdown but not the canonical denominators).
    return ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")


class PhaseTracer:
    """Accumulates phase time as spans finish; one per run.

    Every finished span is added to its phase's total and to its
    ``(worker, phase)`` total at recording time, in recording order —
    the additions a pass over the span list would perform, so the
    totals are bit-equal to that sum. The :class:`Span` list itself is
    only for readers of individual spans (Perfetto export, the span
    DAG): with ``keep_spans=False`` nothing per span is retained and a
    run's tracer is O(workers), not O(messages).
    """

    def __init__(self, enabled: bool = True, *, keep_spans: bool = True) -> None:
        self.enabled = enabled
        self.keep_spans = keep_spans
        self.spans: list[Span] = []
        #: Spans recorded, kept or not.
        self.span_count = 0
        self._open: dict[tuple[int, str], float] = {}
        self._totals: dict[str, float] = {phase: 0.0 for phase in PHASES}
        self._worker_totals: dict[tuple[int, str], float] = {}

    def begin(self, worker: int, phase: str, now: float) -> None:
        if not self.enabled:
            return
        if phase not in PHASES:
            raise _unknown_phase(phase)
        key = (worker, phase)
        if key in self._open:
            raise RuntimeError(f"span {key} already open")
        self._open[key] = now

    def end(self, worker: int, phase: str, now: float) -> None:
        if not self.enabled:
            return
        if phase not in PHASES:
            raise _unknown_phase(phase)
        key = (worker, phase)
        start = self._open.pop(key, None)
        if start is None:
            raise RuntimeError(f"span {key} was never opened")
        if now < start:
            raise RuntimeError(f"span {key} ends before it starts")
        self.record(worker, phase, start, now)

    def flush_open(self, now: float, *, worker: int | None = None) -> None:
        """Close dangling spans at ``now`` (crashed-worker cleanup).

        A killed process never reaches its ``end`` call; truncating the
        span at the kill time keeps the breakdown consistent and lets a
        respawned worker re-open the same phase without tripping the
        double-open guard.
        """
        if not self.enabled:
            return
        for key in [k for k in self._open if worker is None or k[0] == worker]:
            start = self._open.pop(key)
            if now > start:
                self.record(key[0], key[1], start, now)

    def record(self, worker: int, phase: str, start: float, end: float) -> None:
        """Record a complete span (directly for wire-time spans, whose
        boundaries are known analytically; every other span ends here
        too). Called once per traced message: one call deep."""
        if not self.enabled:
            return
        if phase not in PHASES:
            raise _unknown_phase(phase)
        if end < start:
            raise RuntimeError("span ends before it starts")
        duration = end - start
        self._totals[phase] += duration
        key = (worker, phase)
        by_worker = self._worker_totals
        by_worker[key] = by_worker.get(key, 0.0) + duration
        self.span_count += 1
        if self.keep_spans:
            self.spans.append(Span(worker, phase, start, end))

    def total(self, phase: str, *, worker: int | None = None) -> float:
        if worker is None:
            return self._totals.get(phase, 0.0)
        return self._worker_totals.get((worker, phase), 0.0)

    def breakdown(self, *, worker: int | None = None) -> dict[str, float]:
        """Total duration per phase (seconds)."""
        if worker is None:
            return dict(self._totals)
        totals = self._worker_totals
        return {phase: totals.get((worker, phase), 0.0) for phase in PHASES}

    def fractions(self, *, worker: int | None = None) -> dict[str, float]:
        """Phase totals normalised to sum to 1 (excluding ``agg_wait``,
        which is a sub-component of the aggregation phases)."""
        totals = self.breakdown(worker=worker)
        main = {k: v for k, v in totals.items() if k != "agg_wait"}
        denom = sum(main.values())
        if denom == 0:
            return {k: 0.0 for k in main}
        return {k: v / denom for k, v in main.items()}
