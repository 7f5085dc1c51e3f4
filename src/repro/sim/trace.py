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
paper's stacked bars are. The tracer keeps the phase totals; the spans
themselves live on an observed run's
:class:`~repro.obs.recorder.RunObserver` (``observer.spans``).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

__all__ = ["Span", "PhaseTracer", "PHASES", "MAIN_PHASES", "normalize_breakdown"]

PHASES = ("compute", "local_agg", "global_agg", "comm", "agg_wait")
#: Fig 3's four bars: ``agg_wait`` is a sub-component of aggregation.
MAIN_PHASES = PHASES[:4]


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


def normalize_breakdown(breakdown: Mapping[str, float]) -> dict[str, float]:
    """Restrict to the paper's four Fig 3 categories, normalised to 1.

    ``agg_wait`` is a sub-component of the aggregation phases (the
    paper reports it as a percentage *of* aggregation, not a separate
    bar) and is therefore excluded here.
    """
    main = {p: float(breakdown.get(p, 0.0)) for p in MAIN_PHASES}
    total = sum(main.values())
    if total <= 0:
        return {p: 0.0 for p in MAIN_PHASES}
    return {p: v / total for p, v in main.items()}


def _unknown_phase(phase: str) -> ValueError:
    # A typo'd phase would silently skew the Fig 3 fractions (it lands
    # in the breakdown but not the canonical denominators).
    return ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")


class PhaseTracer:
    """Accumulates phase time as spans finish; one per run.

    Every finished span is added to its phase's total at recording
    time, in recording order — the additions a pass over the span list
    would perform, so the totals are bit-equal to that sum. Given a
    ``spans`` list (an observed run passes ``observer.spans``), each
    finished :class:`Span` is also appended to it; without one nothing
    per span is retained.
    """

    def __init__(self, enabled: bool = True, *, spans: list[Span] | None = None) -> None:
        self.enabled = enabled
        self._spans = spans
        self._open: dict[tuple[int, str], float] = {}
        self._totals: dict[str, float] = {phase: 0.0 for phase in PHASES}

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
        self._totals[phase] += end - start
        if self._spans is not None:
            self._spans.append(Span(worker, phase, start, end))

    def breakdown(self) -> dict[str, float]:
        """Total duration per phase (seconds)."""
        return dict(self._totals)
