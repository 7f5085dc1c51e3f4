"""ASCII line charts — render the paper's figures in a terminal.

No plotting dependency is available offline, so the CLI draws Fig 1
(error curves) and Fig 2 (speedup curves) as character grids. These
are deliberately small (fits an 80-column terminal) and lossy; the
exact series live in the JSON results.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["line_chart", "fig1_chart", "fig2_chart", "attribution_report"]

_MARKS = "ox+*#@%&"


def line_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    title: str = "",
    width: int = 64,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Plot named (x, y) series on one character grid.

    Each series gets a mark from ``o x + * …``; collisions keep the
    first-drawn mark. Axes are annotated with min/max values.
    """
    points = [(x, y) for s in series.values() for x, y in s]
    if not points:
        return f"{title}\n(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for mark, (name, pts) in zip(_MARKS, series.items()):
        for x, y in pts:
            col = int(round((x - x_min) / x_span * (width - 1)))
            row = height - 1 - int(round((y - y_min) / y_span * (height - 1)))
            if grid[row][col] == " ":
                grid[row][col] = mark

    lines = []
    if title:
        lines.append(title)
    top_label = f"{y_max:.3g}"
    bottom_label = f"{y_min:.3g}"
    label_width = max(len(top_label), len(bottom_label))
    for i, row in enumerate(grid):
        if i == 0:
            prefix = top_label.rjust(label_width)
        elif i == height - 1:
            prefix = bottom_label.rjust(label_width)
        else:
            prefix = " " * label_width
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * label_width + " +" + "-" * width)
    lines.append(
        " " * label_width
        + f"  {x_min:.3g}"
        + f"{x_label} → {x_max:.3g}".rjust(width - len(f"{x_min:.3g}"))
    )
    legend = "   ".join(
        f"{mark}={name}" for mark, name in zip(_MARKS, series.keys())
    )
    lines.append(f"{' ' * label_width}  [{y_label}]  {legend}")
    return "\n".join(lines)


def fig1_chart(table) -> str:
    """Fig 1(a,b) as two ASCII charts: the first seed's top-1 error per
    algorithm of a ``fig1`` table (:mod:`repro.experiments.artefact`)."""
    runs = {
        algo.upper(): table.results[(algo,)][0] for algo in table.axis("algorithm")
    }
    by_epoch = {name: list(zip(h.epochs, h.error_curve())) for name, h in runs.items()}
    by_time = {name: list(zip(h.times, h.error_curve())) for name, h in runs.items()}
    return (
        line_chart(
            by_epoch,
            title="Fig 1(a) — top-1 error vs epochs",
            x_label="epochs",
            y_label="error",
        )
        + "\n\n"
        + line_chart(
            by_time,
            title="Fig 1(b) — top-1 error vs virtual time",
            x_label="secs",
            y_label="error",
        )
    )


def _bar(fraction: float, width: int = 40) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def attribution_report(report: dict, *, title: str = "") -> str:
    """Render a :func:`repro.obs.critpath.analyze_dag` report for the
    terminal: critical-path attribution bars, straggler flags, and the
    what-if projection table."""
    lines: list[str] = []
    header = title or (
        f"Critical-path analysis — {report.get('algorithm', 'run')} "
        f"({report.get('num_workers', '?')} workers)"
    )
    lines.append(header)
    lines.append("=" * len(header))
    span = report.get("span", [0.0, 0.0])
    lines.append(
        f"{report['windows']} iteration window(s) over "
        f"[{span[0]:.3f}s, {span[1]:.3f}s] — "
        f"{report['totals']['total']:.3f}s of critical path"
    )
    lines.append("")
    for category in ("compute", "comm", "wait"):
        frac = report["fractions"][category]
        lines.append(
            f"  {category:>7s} {_bar(frac)} {100 * frac:5.1f}%  "
            f"({report['totals'][category]:.3f}s)"
        )
    lines.append(f"\n  {report['summary']}")
    if report.get("straggler_slack", 0.0) > 0:
        lines.append(f"  straggler slack: {report['straggler_slack']:.3f}s")
    if report.get("overlap_saved", 0.0) > 0:
        lines.append(f"  overlap saved (wait-free BP): {report['overlap_saved']:.3f}s")

    stragglers = report.get("stragglers", {})
    flagged_workers = stragglers.get("workers", [])
    flagged_links = stragglers.get("links", [])
    lines.append("")
    if flagged_workers or flagged_links:
        if flagged_workers:
            lines.append(
                "  stragglers (>k*MAD): workers "
                + ", ".join(f"w{w}" for w in flagged_workers)
            )
        if flagged_links:
            lines.append("  slow links (>k*MAD): " + ", ".join(flagged_links))
    else:
        lines.append("  no stragglers detected (>k*MAD)")

    whatif = report.get("whatif", {})
    if whatif:
        total = report["totals"]["total"]
        lines.append("")
        lines.append("  what-if projections (same-path re-costing, lower bounds):")
        lines.append(f"    {'scenario':<14s} {'time':>9s} {'speedup':>8s}  note")
        lines.append(f"    {'measured':<14s} {total:>8.3f}s {'1.00x':>8s}")
        for name, proj in whatif.items():
            lines.append(
                f"    {name:<14s} {proj['projected_time']:>8.3f}s "
                f"{proj['speedup']:>7.2f}x  {proj['note']}"
            )
    return "\n".join(lines)


def fig2_chart(table) -> str:
    """Fig 2 as one ASCII chart per bandwidth of a ``fig2`` table."""
    blocks = []
    for bw in table.axis("bandwidth"):
        series = {
            algo.upper(): sorted((n, table.value(algo, bw, n)) for n in table.axis("workers"))
            for algo in table.axis("algorithm")
        }
        blocks.append(
            line_chart(
                series,
                title=f"Fig 2 — {table.shape['model']} speedup @ {bw:g} Gbps",
                x_label="workers",
                y_label="speedup",
            )
        )
    return "\n\n".join(blocks)
