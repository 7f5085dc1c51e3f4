"""One spec per artefact: the grid it runs, the number it reads off
each run and the table it prints.

An :class:`Artefact` is a value. Its ``axes`` name the shape keys whose
values span the grid, outermost first, with the seeds innermost;
``config`` builds one cell's :class:`~repro.core.config.RunConfig` from
the shape with each axis bound to one value; ``metric`` reads the
cell's number off its result. :func:`run_artefact` submits the grid as
one ``executor.map`` per stage and returns a :class:`Table` that keeps
every seed's value and every raw result; :func:`render` prints it.

An artefact with a ``baseline`` axis runs in two stages: first one
unperturbed run per value of that axis, whose results parameterise
the second grid (fault times sized to the baseline's duration) and
its metric (the fraction of the baseline retained).

The specs live beside their data in the experiment modules, and
:func:`artefact` imports only the module that declares the one asked
for.
"""

from __future__ import annotations

import importlib
import itertools
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Mapping

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.executor import default_executor

__all__ = ["Artefact", "Table", "artefact", "run_artefact", "render", "recovery_notes"]

#: module of :mod:`repro.experiments` -> the artefacts it declares
MODULES = {
    "accuracy": ("table2", "fig1", "table4"),
    "sensitivity": ("table3",),
    "scalability": ("fig2", "fig3"),
    "optimizations": ("fig4",),
    "ablations": ("sharding", "stragglers", "ps-ratio"),
    "faults": ("faults", "rack-faults"),
    "byzantine": ("byzantine",),
}


def throughput(result: Any, config: Any, base: Any) -> float:
    return result.throughput


def final_accuracy(result: Any, config: Any, base: Any) -> float:
    return result.final_test_accuracy


@dataclass(frozen=True)
class Artefact:
    """One table or figure: its grid, its metric and its layout."""

    name: str
    #: axis name -> the shape key holding its values, outermost first
    axes: Mapping[str, str]
    #: every keyword ``config``, ``metric`` and ``title`` read, with defaults
    shape: Mapping[str, Any]
    #: the cell's RunConfig from a namespace of the shape with each axis
    #: bound to one value, ``seed``, and ``base`` (the cell's baseline
    #: result; None in the baseline stage and without one)
    config: Callable[[SimpleNamespace], Any]
    #: format string over the shape, the split axis's value and
    #: ``seeds`` (the seed count); or a function of that namespace
    title: str | Callable[[dict], str] = ""
    #: (result, config, base) -> a number, or {column header: number}
    metric: Callable[[Any, Any, Any], Any] = throughput
    #: cell -> the paper's value (None: the paper has none)
    paper: Callable[[dict], float | None] | None = None
    #: the axis whose values each get one unperturbed baseline run first
    baseline: str | None = None
    #: shape -> derived shape entries (resolved ladders, clusters)
    prepare: Callable[[dict], dict] | None = None
    # -- layout ---------------------------------------------------------
    rows: tuple[str, ...] = ()
    columns: str | None = None
    split: str | None = None
    #: the row axes' headers, then any lead or fixed value columns';
    #: the column axis's labels follow, then ``paper_headers``
    headers: tuple[str, ...] = ()
    #: when given, the paper's value is printed after each value column
    paper_headers: tuple[str, ...] = ()
    labels: Mapping[str, Callable[[Any], str]] = field(default_factory=dict)
    float_format: str = "{:.4f}"
    sort: bool = False
    #: (table, row cell) -> values printed between the row labels and the cells
    lead: Callable[["Table", dict], list] | None = None
    #: replaces the table (a chart)
    draw: Callable[["Table"], str] | None = None
    #: appended below the table when non-empty
    notes: Callable[["Table"], str] | None = None
    # -- command line ---------------------------------------------------
    #: the options that set shape keys (``repro.cli`` maps them)
    cli: tuple[str, ...] = ()
    #: shape key -> the names the command line accepts for it
    choices: Mapping[str, Any] = field(default_factory=dict)


def artefact(name: str) -> Artefact:
    """The artefact called ``name``."""
    home = {n: module for module, names in MODULES.items() for n in names}[name]
    return importlib.import_module(f"repro.experiments.{home}").ARTEFACTS[name]


@dataclass
class Table:
    """An artefact's measured grid: every seed's value and raw result
    per cell, keyed by the cell's axis values in axis order."""

    artefact: Artefact
    shape: dict
    seeds: tuple[int, ...]
    values: dict[tuple, list] = field(default_factory=dict)
    results: dict[tuple, list] = field(default_factory=dict)
    #: (baseline-axis value, seed) -> baseline result
    baselines: dict[tuple, Any] = field(default_factory=dict)

    def axis(self, name: str) -> tuple:
        return tuple(self.shape[self.artefact.axes[name]])

    def value(self, *cell: Any) -> Any:
        """The cell's value, averaged over seeds (per column for a
        metric with several)."""
        values = self.values[cell]
        if isinstance(values[0], Mapping):
            return {k: float(np.mean([v[k] for v in values])) for k in values[0]}
        return float(np.mean(values))

    def record(self) -> dict:
        """The JSON form ``--output`` writes: axes, seeds, and per cell
        every seed's value (and the paper's, where it has one)."""
        art = self.artefact
        cells = []
        for cell, values in self.values.items():
            entry = {"cell": dict(zip(art.axes, cell)), "values": values}
            if art.paper is not None:
                entry["paper"] = art.paper(entry["cell"])
            cells.append(entry)
        axes = {name: list(self.axis(name)) for name in art.axes}
        return {"artefact": art.name, "axes": axes, "seeds": list(self.seeds), "cells": cells}


def run_artefact(
    art: Artefact, *, seeds: tuple[int, ...] = (0,), executor: Any = None, **shape: Any
) -> Table:
    """Run ``art``'s grid at ``shape`` (its defaults for keys not
    given): one ``executor.map`` per stage, configs in axis order."""
    unknown = set(shape) - set(art.shape)
    if unknown:
        raise TypeError(f"{art.name} takes no {', '.join(sorted(unknown))}")
    shape = {**art.shape, **shape}
    if art.prepare is not None:
        shape.update(art.prepare(shape))
    executor = executor or default_executor()
    table = Table(art, shape, tuple(seeds))

    def build(bound: dict, seed: int, base: Any) -> Any:
        return art.config(SimpleNamespace(**{**shape, **bound}, seed=seed, base=base))

    if art.baseline is not None:
        keys = [(v, seed) for v in table.axis(art.baseline) for seed in table.seeds]
        runs = executor.map([build({art.baseline: v}, seed, None) for v, seed in keys])
        table.baselines = dict(zip(keys, runs))
    grid = []
    for cell in itertools.product(*(table.axis(name) for name in art.axes)):
        bound = dict(zip(art.axes, cell))
        for seed in table.seeds:
            base = table.baselines.get((bound.get(art.baseline), seed))
            grid.append((cell, base, build(bound, seed, base)))
    for (cell, base, cfg), result in zip(grid, executor.map([cfg for *_, cfg in grid])):
        table.results.setdefault(cell, []).append(result)
        table.values.setdefault(cell, []).append(art.metric(result, cfg, base))
    return table


def render(table: Table) -> str:
    """The artefact as text: one table per split-axis value (or its
    chart), then its notes."""
    art = table.artefact
    if art.draw is not None:
        text = art.draw(table)
    else:
        splits = table.axis(art.split) if art.split else (None,)
        text = "\n\n".join(_block(table, split) for split in splits)
    notes = art.notes(table) if art.notes is not None else ""
    return f"{text}\n\n{notes}" if notes else text


def _block(table: Table, split: Any) -> str:
    art = table.artefact
    order = sorted if art.sort else tuple
    namespace = {**table.shape, "seeds": len(table.seeds)}
    if art.split:
        namespace[art.split] = split
    title = art.title(namespace) if callable(art.title) else art.title.format(**namespace)

    def label(axis: str, value: Any) -> str:
        return art.labels.get(axis, str)(value)

    columns = order(table.axis(art.columns)) if art.columns else (None,)
    column_labels = [label(art.columns, c) for c in columns] if art.columns else []
    headers = [*art.headers, *column_labels, *art.paper_headers]
    rows = []
    for row in itertools.product(*(order(table.axis(name)) for name in art.rows)):
        bound = {art.split: split, **dict(zip(art.rows, row))}
        line = [label(name, v) for name, v in zip(art.rows, row)]
        line += art.lead(table, bound) if art.lead is not None else []
        cells = [{**bound, art.columns: c} for c in columns]
        for cell in cells:
            value = table.value(*(cell[name] for name in art.axes))
            line += value.values() if isinstance(value, Mapping) else [value]
        if art.paper_headers:
            papers = (art.paper(cell) for cell in cells)
            line += [float("nan") if p is None else p for p in papers]
        rows.append(line)
    return format_table(headers, rows, title=title, float_format=art.float_format)


def recovery_notes(heading: str, source: str, widths: tuple[int, int]) -> Callable[[Table], str]:
    """Notes listing, per cell of a two-axis baseline grid, what the
    first seed's run recovered from: its ``metadata[source]`` summary
    (fault evictions, rejoins and drops; robust-layer rejections,
    rollbacks and quarantines)."""

    def notes(table: Table) -> str:
        lines = []
        for (row, column), results in table.results.items():
            s = results[0].metadata.get(source) or {}
            evicted = [e["worker"] for e in s.get("evictions", ())]
            # A correlated rack outage evicts dozens at once; the count
            # reads better than the roster.
            roster = f"{len(evicted)} workers" if len(evicted) > 8 else evicted
            rejections = sum(s.get("rejections", {}).values())
            bits = [
                (evicted, f"evicted {roster}"),
                (s.get("rejoins"), f"rejoined {[e['worker'] for e in s.get('rejoins', ())]}"),
                (s.get("stale_epoch_drops"), f"{s.get('stale_epoch_drops')} stale msgs dropped"),
                (s.get("retransmits"), f"{s.get('retransmits')} retransmits"),
                (rejections, f"{rejections} rejections"),
                (s.get("rollbacks"), f"{s.get('rollbacks')} rollbacks"),
                (s.get("quarantines_requested"), f"quarantined {s.get('quarantines_requested')}"),
            ]
            if any(shown for shown, _ in bits):
                events = ", ".join(text for shown, text in bits if shown)
                lines.append(f"  {row:>{widths[0]}s} / {column:<{widths[1]}s} {events}")
        return f"{heading}:\n" + "\n".join(lines) if lines else ""

    return notes
