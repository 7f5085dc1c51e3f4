"""One spec per artefact: the grid it runs, the number it reads off
each run and the table it prints.

An :class:`Artefact` is a value. Its ``axes`` name the shape keys whose
values span the grid, outermost first, with the seeds innermost;
``config`` builds one cell's :class:`~repro.core.config.RunConfig` from
the shape with each axis bound to one value; ``metric`` reads the
cell's number off its result; ``claims`` state the paper's findings
over one seed's cells. :func:`run_artefact` submits the grid as one
``executor.map`` per stage and returns a :class:`Table` that keeps
every seed's value and every raw result; :func:`render` prints it and
how many seeds each claim holds in.

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
from repro.experiments.session import FailedRun

__all__ = [
    "Artefact", "Seed", "Table", "artefact", "only", "run_artefact", "render", "recovery_notes"
]

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
    #: claim name -> predicate over one :class:`Seed`: whether the paper's
    #: finding holds, or None where it does not apply at the shape
    claims: Mapping[str, Callable[["Seed"], bool | None]] = field(default_factory=dict)
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
        """The cell's value, averaged over the seeds that ran (per column
        for a metric with several); nan where none did."""
        values = [v for v in self.values[cell] if v is not None]
        if not values:  # a metric with several columns keeps them, as nan
            ran = next((v for vs in self.values.values() for v in vs if v is not None), None)
            return dict.fromkeys(ran, float("nan")) if isinstance(ran, Mapping) else float("nan")
        if isinstance(values[0], Mapping):
            return {k: float(np.mean([v[k] for v in values])) for k in values[0]}
        return float(np.mean(values))

    def claims(self) -> dict[str, list]:
        """Claim name -> each seed's verdict (None: not measured there),
        leaving out the claims no seed measures."""
        seeds = [Seed(self, i) for i in range(len(self.seeds))]
        verdicts = {name: [s.verdict(c) for s in seeds] for name, c in self.artefact.claims.items()}
        return {name: v for name, v in verdicts.items() if v != [None] * len(seeds)}

    def record(self) -> dict:
        """The JSON form ``--output`` writes: axes, seeds, per cell every
        seed's value (None for a failed seed, listed with its error) and
        the paper's, and per claim every seed's verdict."""
        art = self.artefact
        cells = []
        for cell, values in self.values.items():
            entry = {"cell": dict(zip(art.axes, cell)), "values": values}
            if art.paper is not None:
                entry["paper"] = art.paper(entry["cell"])
            runs = zip(self.seeds, self.results[cell])
            if failed := [{"seed": s, "error": r.error} for s, r in runs if _failed(r)]:
                entry["failed"] = failed
            cells.append(entry)
        axes = {name: list(self.axis(name)) for name in art.axes}
        return {
            "artefact": art.name, "axes": axes, "seeds": list(self.seeds), "cells": cells,
            "claims": self.claims(),
        }


def _failed(result: Any) -> bool:
    return isinstance(result, FailedRun)


class _Unmeasured(Exception):
    """A claim read a cell the grid lacks, or one its seed failed in."""


class Seed:
    """One seed of a table, as a claim reads it: ``v(*cell)`` is the
    cell's value, ``v.result(*cell)`` its raw result and ``v.shape``
    the table's shape. A claim reading a cell the grid lacks, or one
    this seed failed in, is not measured (its verdict is None)."""

    def __init__(self, table: Table, index: int) -> None:
        self.shape, self._table, self._index = table.shape, table, index

    def result(self, *cell: Any) -> Any:
        results = self._table.results.get(cell)
        if results is None or _failed(results[self._index]):
            raise _Unmeasured(cell)
        return results[self._index]

    def __call__(self, *cell: Any) -> Any:
        self.result(*cell)
        return self._table.values[cell][self._index]

    def verdict(self, claim: Callable[["Seed"], bool | None]) -> bool | None:
        try:
            holds = claim(self)
        except _Unmeasured:
            return None
        return None if holds is None else bool(holds)


def only(claims: Mapping[str, Callable], **where: Any) -> dict[str, Callable]:
    """``claims`` where the table's shape has ``where``'s values; not
    applicable elsewhere."""

    def scoped(claim: Callable) -> Callable:
        return lambda v: claim(v) if all(v.shape[k] == w for k, w in where.items()) else None

    return {name: scoped(claim) for name, claim in claims.items()}


def run_artefact(
    art: Artefact, *, seeds: tuple[int, ...] = (0,), executor: Any = None, **shape: Any
) -> Table:
    """Run ``art``'s grid at ``shape`` (its defaults for keys not
    given): one ``executor.map`` per stage, configs in axis order. A
    seed whose run (or baseline run) failed keeps the failure as its
    result and None as its value."""
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds {list(seeds)}: each seed must run once")
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
            grid.append((cell, base, None if _failed(base) else build(bound, seed, base)))
    results = iter(executor.map([cfg for *_, cfg in grid if cfg is not None]))
    for cell, base, cfg in grid:
        result = base if cfg is None else next(results)
        table.results.setdefault(cell, []).append(result)
        value = None if _failed(result) else art.metric(result, cfg, base)
        table.values.setdefault(cell, []).append(value)
    return table


def _spread(table: Table) -> bool:
    """Whether cells print ``median [min–max]`` over the seeds: an
    accuracy artefact run at more than one seed."""
    return table.artefact.metric is final_accuracy and len(table.seeds) > 1


def render(table: Table) -> str:
    """The artefact as text: its chart, one table per split-axis value
    (a chart's table only when cells print a seed spread), its notes,
    then ``holds k/S`` per claim (of the S seeds that measured it)."""
    art = table.artefact
    blocks = [] if art.draw is None else [art.draw(table)]
    if art.draw is None or _spread(table):
        splits = table.axis(art.split) if art.split else (None,)
        blocks += [_block(table, split) for split in splits]
    text = "\n\n".join(blocks)
    notes = art.notes(table) if art.notes is not None else ""
    claims = "".join(
        f"\n  {name}: holds {v.count(True)}/{len(v) - v.count(None)}"
        for name, v in table.claims().items()
    )
    return "\n\n".join(filter(None, [text, notes, claims and "claims:" + claims]))


def _block(table: Table, split: Any) -> str:
    art = table.artefact
    order = sorted if art.sort else tuple
    namespace = {**table.shape, "seeds": len(table.seeds)}
    if art.split:
        namespace[art.split] = split
    title = art.title(namespace) if callable(art.title) else art.title.format(**namespace)
    spread = _spread(table)
    if spread:
        title += ", median [min–max] over seeds"

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
            key = tuple(cell[name] for name in art.axes)
            if spread:
                line.append(_median_range(table.values[key], art.float_format))
                continue
            value = table.value(*key)
            line += value.values() if isinstance(value, Mapping) else [value]
        if art.paper_headers:
            papers = (art.paper(cell) for cell in cells)
            line += [float("nan") if p is None else p for p in papers]
        rows.append(line)
    return format_table(headers, rows, title=title, float_format=art.float_format)


def _median_range(values: list, float_format: str) -> str:
    """``median [min–max]`` of the seeds that ran; nan where none did."""
    ran = [v for v in values if v is not None]
    if not ran:
        return float_format.format(float("nan"))
    low, mid, high = (float_format.format(v) for v in (min(ran), np.median(ran), max(ran)))
    return f"{mid} [{low}–{high}]"


def recovery_notes(heading: str, source: str, widths: tuple[int, int]) -> Callable[[Table], str]:
    """Notes listing, per cell of a two-axis baseline grid, what the
    first seed's run recovered from: its ``metadata[source]`` summary
    (fault evictions, rejoins and drops; robust-layer rejections,
    rollbacks and quarantines)."""

    def notes(table: Table) -> str:
        lines = []
        for (row, column), results in table.results.items():
            s = {} if _failed(results[0]) else results[0].metadata.get(source) or {}
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
