"""Boundary spans recorded from outside the program.

The ledger attributes a pass's wall time to the repo's layers without
touching ``src/``: it replaces a fixed table of public callables
(:data:`BOUNDARIES`) with recording wrappers for the duration of a
traced pass and restores them afterwards.

A span is (name, start, end, parent). Hot boundaries fire hundreds of
thousands of times per pass (``Network.transfer_cb``), so spans are not
kept one by one: the recorder folds each finished span into an
aggregate keyed by ``(parent name, name)`` — call count, total time and
self time. Self time is the span's duration minus the part of that
interval its child spans cover, so the self times of all spans under a
root partition the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable

__all__ = ["SpanRecorder", "BOUNDARIES", "SPAN_NAMES", "ROOT_SPAN", "install", "uninstall"]

#: Name of the span the harness opens around one whole pass; its self
#: time is what no boundary claimed (``ledger.unattributed_s``).
ROOT_SPAN = "ledger.pass"

# (span name, module, class or None for a module-level function, attribute).
# Several boundaries may share one span name: their times add up under it.
BOUNDARIES: tuple[tuple[str, str, str | None, str], ...] = (
    ("experiments.executor.map_self", "repro.experiments.executor", "SweepExecutor", "map"),
    ("experiments.executor.fingerprint", "repro.experiments.executor", None, "config_fingerprint"),
    ("experiments.executor.cache_get", "repro.experiments.executor", "RunCache", "get"),
    ("experiments.executor.cache_put", "repro.experiments.executor", "RunCache", "put"),
    ("experiments.session.journal", "repro.experiments.session", "SweepSession", "for_configs"),
    ("experiments.session.journal", "repro.experiments.session", "SweepSession", "open"),
    ("experiments.session.journal", "repro.experiments.session", "SweepSession", "event"),
    ("core.runner.build", "repro.core.runner", "DistributedRunner", "__init__"),
    ("sim.engine.run_self", "repro.sim.engine", "Engine", "run"),
    ("sim.network.transfer", "repro.sim.network", "Network", "transfer"),
    ("sim.network.transfer", "repro.sim.network", "Network", "transfer_cb"),
    ("nn.gradient", "repro.core.worker", "LocalComputation", "gradient"),
    ("nn.apply", "repro.core.worker", "LocalComputation", "apply_gradient"),
    ("nn.params_io", "repro.core.worker", "LocalComputation", "get_params"),
    ("nn.params_io", "repro.core.worker", "LocalComputation", "set_params"),
    # Evaluation has no public entry point; this is the one
    # underscore-named boundary the ledger wraps (see README, limits).
    ("core.runner.eval", "repro.core.runner", "DistributedRunner", "_evaluate"),
    ("perf.predict", "repro.perf.predict", None, "predict_run"),
    # The ``cli`` layer seen from outside: the workloads' own
    # ``python -m repro`` launches (nothing in ``repro`` uses subprocess).
    ("cli.invoke", "subprocess", None, "run"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))


class SpanRecorder:
    """Folds nested spans into per-``(parent, name)`` aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[list] = []  # frames: [name, seconds covered by children]
        #: (parent name or "", name) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = {}
        #: Exact counts taken at the boundaries (engine events, heap peak).
        self.counts: dict[str, int] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so that every call records a span."""
        stack, edges, clock = self._stack, self.edges, self._clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    key = (parent[0], name)
                else:
                    key = ("", name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, duration, duration - frame[1]]
                else:
                    edge[0] += 1
                    edge[1] += duration
                    edge[2] += duration - frame[1]

        return span

    def reset(self) -> None:
        self.edges.clear()
        self.counts.clear()

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds, summed over parents."""
        out: dict[str, dict[str, float]] = {}
        for (_parent, name), (calls, _total, self_s) in self.edges.items():
            entry = out.setdefault(name, {"n": 0, "self_s": 0.0})
            entry["n"] += calls
            entry["self_s"] += self_s
        return out

    def tree(self) -> dict[str, dict[str, float]]:
        """The aggregated call tree, ``"parent>name"`` -> n/total_s/self_s."""
        return {
            f"{parent}>{name}": {"n": calls, "total_s": total, "self_s": self_s}
            for (parent, name), (calls, total, self_s) in sorted(self.edges.items())
        }


def _count_engine_run(recorder: SpanRecorder, run: Callable) -> Callable:
    """Read the engine's public counters after each ``Engine.run``."""
    counts = recorder.counts

    @functools.wraps(run)
    def counted(engine, *args, **kwargs):
        before = engine.events_processed
        try:
            return run(engine, *args, **kwargs)
        finally:
            counts["sim.engine.events"] = (
                counts.get("sim.engine.events", 0) + engine.events_processed - before
            )
            counts["sim.events.queue_high_water"] = max(
                counts.get("sim.events.queue_high_water", 0), engine.queue_high_water
            )

    return counted


def install(recorder: SpanRecorder) -> list[tuple[object, str, object]]:
    """Replace every boundary with a recording wrapper.

    Class attributes are patched on the class, so instances built
    before or after see the wrapper. A module-level function is patched
    in its own module and in every loaded ``repro`` module that holds a
    reference to it — ``from x import f`` copies made at import time
    included. Returns the undo list for :func:`uninstall`.
    """
    undo: list[tuple[object, str, object]] = []
    for name, module_name, class_name, attr in BOUNDARIES:
        module = importlib.import_module(module_name)
        if class_name is None:
            original = getattr(module, attr)
            wrapper = recorder.wrap(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    loaded is module or loaded_name.startswith("repro")
                ):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        undo.append((loaded, key, original))
                        setattr(loaded, key, wrapper)
            continue
        owner = getattr(module, class_name)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(recorder.wrap(name, raw.__func__))
        else:
            fn = raw
            if (class_name, attr) == ("Engine", "run"):
                fn = _count_engine_run(recorder, fn)
            wrapper = recorder.wrap(name, fn)
        undo.append((owner, attr, raw))
        setattr(owner, attr, wrapper)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
