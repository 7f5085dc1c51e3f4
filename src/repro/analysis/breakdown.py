"""Fig 3 time-breakdown aggregation and cross-validation.

Two views of where iteration time goes coexist in the codebase:

* the **Fig 3 model** — per-worker phase-span totals from the
  :class:`~repro.sim.trace.PhaseTracer`, normalised over the paper's
  four categories (what ``ThroughputResult.breakdown`` reports);
* the **critical-path attribution** — the per-iteration
  compute/comm/wait split of :mod:`repro.obs.critpath`, measured along
  the longest dependency chain instead of summed across workers.

:func:`fig3_crosscheck` compares them. They answer related but
different questions (a worker's comm that is hidden behind another
worker's compute inflates the model but not the path), so agreement is
checked within a tolerance rather than exactly.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.analysis.tables import format_table

__all__ = [
    "normalize_breakdown",
    "breakdown_table",
    "MAIN_PHASES",
    "breakdown_to_attribution",
    "attribution_summary_line",
    "aggregate_result_attribution",
    "fig3_crosscheck",
]

MAIN_PHASES = ("compute", "local_agg", "global_agg", "comm")


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


def breakdown_table(
    rows: Mapping[str, Mapping[str, float]],
    *,
    title: str = "Per-iteration time breakdown",
) -> str:
    """Render one breakdown row per configuration (Fig 3 as a table)."""
    headers = ["config", *MAIN_PHASES]
    table_rows: list[Sequence[object]] = []
    for name, bd in rows.items():
        norm = normalize_breakdown(bd)
        table_rows.append([name, *(norm[p] for p in MAIN_PHASES)])
    return format_table(headers, table_rows, title=title, float_format="{:.3f}")


def breakdown_to_attribution(breakdown: Mapping[str, float]) -> dict[str, float]:
    """Collapse the four Fig 3 phases to the analyzer's three
    categories: the aggregation phases are (mostly) waiting on other
    participants, so they map onto ``wait``."""
    norm = normalize_breakdown(breakdown)
    return {
        "compute": norm["compute"],
        "comm": norm["comm"],
        "wait": norm["local_agg"] + norm["global_agg"],
    }


def attribution_summary_line(fractions: Mapping[str, float]) -> str:
    """The one-line ``compute X% / comm Y% / wait Z%`` summary."""
    return (
        f"compute {100 * fractions.get('compute', 0.0):.1f}% / "
        f"comm {100 * fractions.get('comm', 0.0):.1f}% / "
        f"wait {100 * fractions.get('wait', 0.0):.1f}%"
    )


def aggregate_result_attribution(results: Iterable) -> dict[str, dict[str, float]]:
    """Mean compute/comm/wait fractions per algorithm over a sweep's
    results, each entry carrying the number of contributing ``runs``
    (so downstream merges can weight correctly). Only results with a
    phase breakdown (timing-mode runs with tracing on) contribute; an
    empty dict means the sweep had none. This is how sweeps report
    attribution without re-running anything."""
    sums: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for result in results:
        breakdown = getattr(result, "breakdown", None)
        if not breakdown:
            continue
        algo = str(getattr(result, "algorithm", "run")).lower()
        attr = breakdown_to_attribution(breakdown)
        if sum(attr.values()) <= 0:
            continue
        acc = sums.setdefault(algo, {"compute": 0.0, "comm": 0.0, "wait": 0.0})
        for k, v in attr.items():
            acc[k] += v
        counts[algo] = counts.get(algo, 0) + 1
    return {
        algo: {**{k: v / counts[algo] for k, v in acc.items()}, "runs": counts[algo]}
        for algo, acc in sorted(sums.items())
    }


def fig3_crosscheck(
    breakdown: Mapping[str, float],
    critpath_fractions: Mapping[str, float],
    *,
    tolerance: float = 0.15,
) -> dict:
    """Compare the Fig 3 model against critical-path attribution.

    Agreement is gated on the **compute** fraction only: both views
    see the same compute work, so its share is directly comparable
    (BSP timing runs land within ~0.1 of each other — pinned by
    tests/obs/test_critpath.py). The non-compute split is *expected*
    to differ structurally — the model sums every worker's transfers
    even when they run in parallel, while the path counts a parallel
    transfer once and books the rest as wait — so comm/wait diffs are
    reported for inspection but not gated.
    """
    model = breakdown_to_attribution(breakdown)
    diffs = {
        k: abs(model[k] - float(critpath_fractions.get(k, 0.0)))
        for k in ("compute", "comm", "wait")
    }
    return {
        "model": model,
        "critpath": {k: float(critpath_fractions.get(k, 0.0)) for k in diffs},
        "diffs": diffs,
        "tolerance": tolerance,
        "agrees": diffs["compute"] <= tolerance,
    }
