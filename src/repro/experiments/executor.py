"""Parallel sweep executor with a content-addressed run cache.

Every paper artifact (Fig 1–4, Tables II–IV, the ablations) is a sweep
of dozens of *independent, deterministic* simulator runs. This module
turns those sweeps from serial for-loops into:

1. **Fingerprinting** — :func:`config_fingerprint` derives a stable
   SHA-256 digest from the full :class:`~repro.core.config.RunConfig`
   dataclass tree (cluster, comm model, DGC config, seeds) plus the
   ``repro`` package version. Two configs fingerprint equal iff every
   field of the tree is equal.
2. **Content-addressed caching** — :class:`RunCache` stores one JSON
   file per fingerprint under ``~/.cache/repro`` (override with
   ``cache_dir`` or ``$REPRO_CACHE_DIR``). A warm re-run of a sweep
   performs zero simulator runs. Corrupted or mismatched entries are
   discarded, never fatal.
3. **One scheduling loop** — :meth:`SweepExecutor.map` runs every
   cache miss through the same loop: at most ``jobs`` attempts in
   flight on a ``concurrent.futures`` process pool (created only on a
   miss), each result validated, written to the cache *when it
   completes*, journaled and reported. With ``jobs == 1`` (or one
   cell, or after repeated pool deaths) the loop drives an in-process
   pool whose ``submit`` runs the call on the spot. Every result —
   hit or miss, in-process or pooled — is decoded from the same plain
   JSON payload (:mod:`repro.io`) and results align with submission
   order, so sweep output is bit-identical regardless of ``jobs``.

Identical configs submitted twice in one sweep are executed once and
materialised per occurrence.

What the loop does about a failing run is the caller's choice (see
:mod:`repro.experiments.session`):

* **Nothing attached** — one attempt per cell and a run's exception
  propagates out of ``map()`` unchanged; the cells that had finished
  are already in the cache. A stop request (first Ctrl-C under the
  CLI's signal guard) raises :class:`SweepInterrupted`; a dead worker
  pool is rebuilt, then abandoned for in-process execution.
* **Durable sessions** (``durable=True`` or an explicit ``session=``) —
  the loop also journals run lifecycles to an append-only JSONL file
  keyed by the grid fingerprint, so a sweep killed at any instant
  resumes idempotently (``repro sweep resume``): ``done`` cells are
  served from the cache, in-flight/failed cells re-execute, output is
  bit-identical to an uninterrupted sweep.
* **Run policy** (``policy=RunPolicy(...)``) — per-run wall-clock
  deadlines (hung runs killed, pool recycled), bounded retries with
  exponential backoff + jitter, and permanent-failure classification:
  an exhausted cell degrades to a ``FailedRun`` placeholder instead of
  aborting the grid.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Executor, Future, wait
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro import __version__
from repro.core.config import RunConfig
from repro.core.history import ThroughputResult, TrainingHistory
from repro.core.runner import execute_run
from repro.experiments.session import (
    FailedRun,
    RunPolicy,
    SweepInterrupted,
    SweepPreempted,
    SweepSession,
)
from repro.io import atomic_write_text, from_jsonable, to_jsonable

__all__ = [
    "config_fingerprint",
    "RunCache",
    "SweepStats",
    "SweepExecutor",
    "default_executor",
    "set_default_executor",
]

DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro"


# -- fingerprinting -----------------------------------------------------


# The fingerprint hashes one canonical JSON text of the config tree,
# written directly (the text ``json.dumps(..., sort_keys=True,
# separators=(",", ":"))`` gives for the tagged document below, byte
# for byte — tests/experiments/test_fingerprint_oracle.py keeps that
# reference):
#
# * a dataclass is ``{"__dataclass__": <class name>, "fields": {...}}``
#   with its fields in name order; fields marked "omit-if-none" vanish
#   when unset, so adding such a field to a config dataclass does not
#   invalidate every previously pinned fingerprint;
# * a dict is ``{"__dict__": [[str(key), value], ...]}`` sorted by
#   ``str(key)``; tuples and lists coincide (both are sequences of run
#   parameters); a set is ``{"__set__": sorted reprs}``; an ndarray is
#   ``{"__ndarray__": tolist()}``; anything else is ``{"__repr__": ...}``.
#
# Tagging dataclasses by class name keeps, e.g., a ``DGCConfig`` and a
# plain dict with the same fields from colliding.
#
# Which of these forms a value takes depends only on its type, so
# ``_writer`` decides it once per type and every later value of that
# type goes straight to its writer.


def _text(obj) -> str:
    """Canonical JSON text of one config value."""
    return _writer(type(obj))(obj)


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


#: id -> (weak reference, text) of each live frozen config object whose
#: fields hold only scalars and such objects: its text cannot change,
#: so it is written once. The reference's callback drops the entry when
#: the object dies, before its id can be reused.
_frozen_texts: dict[int, tuple[weakref.ref, str]] = {}
_SCALARS = (type(None), bool, int, float, str)


def _is_constant(value) -> bool:
    return type(value) in _SCALARS or id(value) in _frozen_texts


def _remember(obj, text: str) -> None:
    key = id(obj)
    try:
        ref = weakref.ref(obj, lambda _: _frozen_texts.pop(key, None))
    except TypeError:  # a slotted class without weak references
        return
    _frozen_texts[key] = (ref, text)


def _dataclass_writer(cls: type) -> Callable[[object], str]:
    """The per-class plan: pre-quoted head, and the fields in key order
    as ``(name, '"name":', omit_if_none)``."""
    head = '{"__dataclass__":' + _quote(cls.__name__) + ',"fields":{'
    plan = tuple(
        (f.name, _quote(f.name) + ":", f.metadata.get("fingerprint") == "omit-if-none")
        for f in sorted(fields(cls), key=lambda f: f.name)
    )
    frozen = cls.__dataclass_params__.frozen

    def write(obj) -> str:
        if frozen and id(obj) in _frozen_texts:
            return _frozen_texts[id(obj)][1]
        parts = []
        for name, key, omit_if_none in plan:
            value = getattr(obj, name)
            if value is not None:
                parts.append(key + _writer(type(value))(value))
            elif not omit_if_none:
                parts.append(key + "null")
        text = head + ",".join(parts) + "}}"
        if frozen and all(_is_constant(getattr(obj, name)) for name, _, _ in plan):
            _remember(obj, text)
        return text

    return write


def _dict_text(obj: dict) -> str:
    pairs = sorted(obj.items(), key=lambda kv: str(kv[0]))
    return (
        '{"__dict__":['
        + ",".join(f"[{_quote(str(k))},{_text(v)}]" for k, v in pairs)
        + "]}"
    )


@functools.lru_cache(maxsize=None)
def _writer(cls: type) -> Callable[[object], str]:
    """The writer for values of type ``cls`` (first matching form wins)."""
    if cls is type(None):
        return lambda obj: "null"
    if cls is bool:
        return lambda obj: "true" if obj else "false"
    if issubclass(cls, int):
        return int.__repr__
    if issubclass(cls, float):
        return _float_text
    if issubclass(cls, str):
        return _quote
    if issubclass(cls, np.integer):
        return lambda obj: int.__repr__(int(obj))
    if issubclass(cls, np.floating):
        return lambda obj: _float_text(float(obj))
    if issubclass(cls, np.ndarray):
        return lambda obj: (
            '{"__ndarray__":'
            + json.dumps(obj.tolist(), sort_keys=True, separators=(",", ":"))
            + "}"
        )
    if is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass_writer(cls)
    if issubclass(cls, dict):
        return _dict_text
    if issubclass(cls, (list, tuple)):
        return lambda obj: "[" + ",".join(map(_text, obj)) + "]"
    if issubclass(cls, (set, frozenset)):
        return lambda obj: (
            '{"__set__":[' + ",".join(map(_quote, sorted(map(repr, obj)))) + "]}"
        )
    return lambda obj: '{"__repr__":' + _quote(repr(obj)) + "}"


def config_fingerprint(config: RunConfig) -> str:
    """Deterministic content address of one run.

    Any change to any field of the config tree — including nested
    ``ClusterSpec``/``CommModel``/``DGCConfig`` fields and seeds — or
    to the ``repro`` version yields a different fingerprint.
    """
    if not is_dataclass(config) or isinstance(config, type):
        raise TypeError(
            f"config_fingerprint expects a RunConfig instance, got {config!r}"
        )
    blob = '{"config":' + _text(config) + ',"repro_version":' + _quote(__version__) + "}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- result payloads ----------------------------------------------------

_KINDS = {"history": TrainingHistory, "throughput": ThroughputResult}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}


def _result_to_payload(result: TrainingHistory | ThroughputResult) -> dict:
    """Serialize a run result to the wire/cache payload form: plain
    JSON data, so a result read back from a payload is the same
    whether it ran here, in a pool worker or came from the cache."""
    return {"kind": _KIND_OF[type(result)], "data": to_jsonable(result)}


def _payload_to_result(
    payload: dict, config: RunConfig
) -> TrainingHistory | ThroughputResult:
    result = from_jsonable(_KINDS[payload["kind"]], payload["data"])
    if isinstance(result, TrainingHistory):
        # Full-mode histories carry their config in metadata; it is
        # implied by the cache key, so it travels out-of-band.
        result.metadata["config"] = config
    return result


def _execute_payload(config: RunConfig) -> dict:
    """Pool worker entry point: run one config, return its payload."""
    return _result_to_payload(execute_run(config))


def _validate_payload(payload) -> None:
    """Reject a malformed worker result (counts as a retryable failure
    under a run policy, exactly like a crash)."""
    if (
        not isinstance(payload, dict)
        or payload.get("kind") not in _KINDS
        or not isinstance(payload.get("data"), dict)
    ):
        raise ValueError(f"corrupt run result ({type(payload).__name__})")


class _Attempt:
    """One schedulable execution attempt of a sweep cell."""

    __slots__ = ("index", "fp", "cfg", "attempt", "not_before", "started")

    def __init__(self, index: int, fp: str, cfg: RunConfig) -> None:
        self.index = index
        self.fp = fp
        self.cfg = cfg
        self.attempt = 1
        self.not_before = 0.0
        self.started = 0.0


def _process_pool(max_workers: int) -> Executor:
    """A pool of ``max_workers`` worker processes.

    ``concurrent.futures.process`` imports ``multiprocessing``, which a
    serial or fully cached sweep never needs, so it is imported here.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


class _InlinePool:
    """In-process stand-in for a process pool: ``submit`` runs the call
    and returns a finished future, so the scheduling loop has one shape
    whether runs execute here or in worker processes."""

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 — read back by the loop, as from a worker
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass


def _describe(config: RunConfig) -> str:
    """Short human-readable run label for progress lines."""
    return f"{config.algorithm}/{config.mode} w={config.num_workers}"


# -- on-disk cache ------------------------------------------------------


class RunCache:
    """Content-addressed store of run payloads, one JSON file each.

    Entries self-describe (fingerprint, repro version, payload kind);
    anything unreadable or inconsistent is treated as a miss and the
    offending file is *quarantined* to a ``.corrupt/`` sidecar
    directory (counted in :attr:`quarantined` and surfaced through
    ``SweepStats``) rather than deleted — recurring corruption should
    leave diagnosable evidence, not vanish.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        self.root = Path(root).expanduser()
        #: Bad entries moved aside by this cache instance.
        self.quarantined = 0

    def _path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> dict | None:
        """Return the cached payload, or None (discarding bad entries)."""
        path = self._path(fingerprint)
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._quarantine(path)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("fingerprint") != fingerprint
            or entry.get("kind") not in _KINDS
            or not isinstance(entry.get("data"), dict)
        ):
            self._quarantine(path)
            return None
        return {"kind": entry["kind"], "data": entry["data"]}

    def put(self, fingerprint: str, payload: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "fingerprint": fingerprint,
            "repro_version": __version__,
            "kind": payload["kind"],
            "data": payload["data"],
        }
        # Atomic: concurrent sweeps never see partial writes, and a
        # crash mid-write cannot corrupt an existing entry.
        atomic_write_text(self._path(fingerprint), json.dumps(entry, sort_keys=True) + "\n")

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry into ``.corrupt/`` (never back into the
        lookup path — the sidecar is evidence, not cache)."""
        quarantine_dir = self.root / ".corrupt"
        target = quarantine_dir / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = quarantine_dir / f"{path.name}.{suffix}"
        try:
            quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            # Fall back to plain removal so a broken sidecar directory
            # cannot wedge the cache into serving corruption forever.
            try:
                path.unlink()
            except OSError:
                return
        self.quarantined += 1


# -- the executor -------------------------------------------------------


@dataclass
class SweepStats:
    """What one :meth:`SweepExecutor.map` call actually did."""

    total: int = 0  # configs submitted
    unique: int = 0  # distinct fingerprints
    cache_hits: int = 0  # unique fingerprints served from cache
    executed: int = 0  # simulator runs performed
    jobs: int = 1  # pool width used for the misses
    wall_time: float = 0.0  # wall-clock seconds the map() call took
    failed: int = 0  # cells permanently failed (policy max_attempts)
    retried: int = 0  # attempt retries (timeout / error / corrupt result)
    deadline_kills: int = 0  # hung runs killed at their wall-clock deadline
    quarantined: int = 0  # corrupt cache entries moved to .corrupt/
    #: mean compute/comm/wait fractions per algorithm over the sweep's
    #: traced results (each entry carries its contributing ``runs``
    #: count); empty when no result had a phase breakdown.
    attribution: dict = field(default_factory=dict)

    def merge(self, other: "SweepStats") -> None:
        """Accumulate another sweep's stats (pool width: the widest;
        attribution: run-count-weighted mean per algorithm)."""
        self.total += other.total
        self.unique += other.unique
        self.cache_hits += other.cache_hits
        self.executed += other.executed
        self.wall_time += other.wall_time
        self.failed += other.failed
        self.retried += other.retried
        self.deadline_kills += other.deadline_kills
        self.quarantined += other.quarantined
        self.jobs = max(self.jobs, other.jobs)
        for algo, attr in other.attribution.items():
            mine = self.attribution.get(algo)
            if mine is None:
                self.attribution[algo] = dict(attr)
                continue
            runs = mine["runs"] + attr["runs"]
            for k in ("compute", "comm", "wait"):
                mine[k] = (mine[k] * mine["runs"] + attr[k] * attr["runs"]) / runs
            mine["runs"] = runs

    def summary(self) -> str:
        """One-line human-readable form for CLI output."""
        line = (
            f"{self.total} run(s): {self.cache_hits} cached, "
            f"{self.executed} executed (jobs={self.jobs}, "
            f"{self.wall_time:.1f}s)"
        )
        extras = [
            f"{value} {label}"
            for label, value in (
                ("failed", self.failed),
                ("retried", self.retried),
                ("deadline-killed", self.deadline_kills),
                ("cache entries quarantined", self.quarantined),
            )
            if value
        ]
        if extras:
            line += f" [{', '.join(extras)}]"
        return line


class SweepExecutor:
    """Runs grids of :class:`RunConfig` with caching and parallelism.

    Parameters
    ----------
    jobs:
        Runs in flight at once, on that many worker processes.
        ``None`` means ``os.cpu_count()``; ``1`` executes in-process
        (no pool) unless the policy sets a deadline.
    cache:
        Whether to consult/populate the on-disk run cache.
    cache_dir:
        Cache location (default ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro``).
    progress:
        Optional ``callable(str)`` invoked with one telemetry line at
        sweep start and after each executed run (the CLI points this
        at stderr). Purely informational — never affects results.
    policy:
        Optional :class:`~repro.experiments.session.RunPolicy`:
        deadlines, bounded retries with backoff, failed-cell
        degradation. ``None`` with no session means one attempt per
        cell and a run's exception propagating out of ``map()``
        unchanged; ``None`` with a session means ``RunPolicy()``.
    durable:
        Journal every ``map()`` call as a durable sweep session keyed
        by the grid fingerprint (created or resumed automatically).
    session_root:
        Session directory root (default ``$REPRO_SESSION_DIR`` or
        ``~/.cache/repro/sessions``).
    session_name:
        Optional human alias recorded in new sessions' manifests.
    require_existing_session:
        With ``durable``, refuse to *start* sessions — only resume
        ones whose journal already exists (the ``--resume`` guard
        against a typo silently changing the grid).
    """

    def __init__(
        self,
        *,
        jobs: int | None = None,
        cache: bool = True,
        cache_dir: str | Path | None = None,
        progress: Callable[[str], None] | None = None,
        policy: "RunPolicy | None" = None,
        durable: bool = False,
        session_root: str | Path | None = None,
        session_name: str | None = None,
        require_existing_session: bool = False,
    ) -> None:
        if jobs is not None and jobs <= 0:
            raise ValueError("jobs must be positive")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cache = RunCache(cache_dir) if cache else None
        self._cache_enabled = cache
        self._cache_dir = str(cache_dir) if cache_dir is not None else None
        self.progress = progress
        self.policy = policy
        self.durable = durable
        self.session_root = session_root
        self.session_name = session_name
        self.require_existing_session = require_existing_session
        self.last_session: SweepSession | None = None
        self._stop_reason: str | None = None
        self._session_seq = 0
        self.last_stats = SweepStats()
        # Accumulated over every map() call on this executor — what one
        # CLI invocation's sweeps did in total.
        self.total_stats = SweepStats(jobs=self.jobs)

    def request_stop(self, reason: str) -> None:
        """Ask the scheduling loop to stop at the next safe point
        (the first stage of the SIGINT/SIGTERM guard). Sticky: later
        ``map()`` calls on this executor stop immediately too."""
        self._stop_reason = reason

    def _emit(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    def map(
        self,
        configs: Sequence[RunConfig],
        *,
        session: SweepSession | None = None,
    ) -> list:
        """Execute ``configs``; results align index-for-index.

        Ordering is FIFO-stable: result ``i`` always corresponds to
        ``configs[i]`` no matter which worker finished first, so sweep
        outputs are bit-identical to serial execution — including
        across a crash/resume boundary when a session is attached.
        Under a :class:`RunPolicy` or a session, permanently failed
        cells come back as
        :class:`~repro.experiments.session.FailedRun` placeholders;
        with neither, the failing run's exception is raised as is.
        """
        t0 = time.perf_counter()
        configs = list(configs)
        prints = [config_fingerprint(cfg) for cfg in configs]
        stats = SweepStats(total=len(configs), jobs=self.jobs)

        if session is None and self.durable and configs:
            # One map() call = one grid = one session. Commands that
            # sweep several grids (e.g. faults: baseline + fault grid)
            # get numbered names so name-resolution stays unambiguous.
            self._session_seq += 1
            name = self.session_name
            if name and self._session_seq > 1:
                name = f"{name}.{self._session_seq}"
            session = SweepSession.for_configs(
                configs,
                prints,
                root=self.session_root,
                name=name,
                require_existing=self.require_existing_session,
                cache_dir=self._cache_dir,
                cache=self._cache_enabled,
            )
        self.last_session = session
        cache = self.cache
        if cache is None and session is not None:
            # Durable resume needs a content-addressed home for
            # finished payloads even when the shared cache is off.
            cache = session.local_cache()
        quarantined_before = cache.quarantined if cache is not None else 0

        # Deduplicate: first occurrence of each fingerprint wins.
        representative: dict[str, RunConfig] = {}
        for cfg, fp in zip(configs, prints):
            representative.setdefault(fp, cfg)
        stats.unique = len(representative)

        payloads: dict[str, dict] = {}
        if cache is not None:
            for fp in representative:
                payload = cache.get(fp)
                if payload is not None:
                    payloads[fp] = payload
            stats.cache_hits = len(payloads)

        todo = [(fp, cfg) for fp, cfg in representative.items() if fp not in payloads]
        failures: dict[str, tuple[str, int]] = {}
        if session is not None:
            self._emit(f"session {session.id}: journal at {session.journal_path}")
            for fp in payloads:
                if session.states.get(fp) != "done":
                    session.event("run_done", fp=fp, attempt=0, s=0.0, cached=True)
            for fp, _cfg in todo:
                if session.states.get(fp) == "done":
                    # The journal says done but the result store lost
                    # the payload — demote and re-execute.
                    session.event("run_requeued", fp=fp, reason="cache miss")
        if configs:
            self._emit(
                f"sweep: {stats.total} run(s), {stats.unique} unique, "
                f"{stats.cache_hits} cached, {len(todo)} to execute "
                f"(jobs={self.jobs})"
            )
        if todo:
            self._schedule(todo, session, stats, payloads, failures, cache)
        stats.executed = len(todo) - len(failures)
        stats.failed = len(failures)
        stats.quarantined = (
            cache.quarantined - quarantined_before if cache is not None else 0
        )
        # Materialise one result object per submitted config (identical
        # configs share a payload but never an object). Permanently
        # failed cells degrade to FailedRun placeholders.
        results: list = []
        for cfg, fp in zip(configs, prints):
            payload = payloads.get(fp)
            if payload is None:
                error, attempts = failures.get(fp, ("not executed", 0))
                results.append(
                    FailedRun(
                        algorithm=cfg.algorithm,
                        fingerprint=fp,
                        error=error,
                        attempts=attempts,
                    )
                )
            else:
                results.append(_payload_to_result(payload, cfg))
        # Attribution rides along for free: traced timing results carry
        # their phase breakdown, so sweeps can report where the time
        # went without any extra simulator work.
        from repro.analysis.breakdown import aggregate_result_attribution

        stats.attribution = aggregate_result_attribution(results)
        stats.wall_time = time.perf_counter() - t0
        self.last_stats = stats
        self.total_stats.merge(stats)
        if session is not None and configs:
            session.event(
                "session_complete",
                fsync=True,
                counts=session.counts(),
                stats={
                    k: v
                    for k, v in to_jsonable(stats).items()
                    if k != "attribution"
                },
            )
            if stats.failed:
                self._emit(
                    f"session {session.id}: completed degraded — "
                    f"{stats.failed} cell(s) permanently failed"
                )
        return results

    # -- the one execution loop -----------------------------------------

    def _schedule(
        self,
        todo: list[tuple[str, RunConfig]],
        session: SweepSession | None,
        stats: SweepStats,
        payloads: dict[str, dict],
        failures: dict[str, tuple[str, int]],
        cache: RunCache | None,
    ) -> None:
        """Run ``todo`` to completion: the loop behind every ``map()``.

        Keeps two attempts in flight per pool worker, one running and
        one queued behind it, so that no worker idles for a round trip
        to this loop between cells; under a deadline only ``jobs``, so
        that the deadline never charges queue time. For each attempt
        that completes: validate, bank in ``payloads`` and ``cache``,
        journal into ``session`` (when attached), report progress (a
        queued attempt's time counts from its submission). Failed attempts
        are retried under the policy and exhausted cells land in
        ``failures`` — or, with neither policy nor session, the run's
        exception propagates unchanged. Raises
        :class:`SweepInterrupted`/:class:`SweepPreempted` after
        checkpointing the journal when a stop or preemption is
        requested; crash-killed invocations leave ``running`` records
        that resume abandons and re-queues.
        """
        policy = self.policy or RunPolicy()
        # Nobody asked for retries or degradation: artefacts index their
        # results, they must never meet a FailedRun they did not ask for.
        strict = self.policy is None and session is None
        total = len(todo)
        # Without workers a run cannot be killed at its deadline (it
        # would be our own process), so a timeout always gets a pool.
        in_process = (self.jobs == 1 or total == 1) and policy.timeout_s is None
        pool_depth = self.jobs if policy.timeout_s is not None else 2 * self.jobs
        rng = random.Random(session.id if session is not None else "repro-policy")
        # Sorted by grid index at all times: submission is FIFO.
        queue = [_Attempt(i, fp, cfg) for i, (fp, cfg) in enumerate(todo)]
        in_flight: dict[Future, _Attempt] = {}
        pool: Executor | _InlinePool | None = None
        finished = 0
        broken_streak = 0

        def journal(kind: str, **data) -> None:
            if session is not None:
                session.event(kind, **data)

        def kill_pool() -> None:
            nonlocal pool
            if pool is None:
                return
            # A hung child never returns from its run, so terminate
            # the workers outright before shutting the pool down.
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.kill()
                except Exception:
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None

        def requeue(item: _Attempt, not_before: float = 0.0) -> None:
            item.not_before = not_before
            queue.append(item)
            queue.sort(key=lambda i: i.index)

        def record_done(item: _Attempt, payload: dict, duration: float) -> None:
            nonlocal finished
            finished += 1
            payloads[item.fp] = payload
            if cache is not None:
                cache.put(item.fp, payload)
            journal("run_done", fp=item.fp, attempt=item.attempt, s=round(duration, 3))
            self._emit(
                f"  [{finished}/{total}] {_describe(item.cfg)} "
                f"done in {duration:.1f}s"
                + (f" (attempt {item.attempt})" if item.attempt > 1 else "")
            )

        def charge_failure(item: _Attempt, error: str, now: float) -> None:
            """Count one failed attempt: requeue the cell with backoff,
            or classify it as permanently failed once exhausted."""
            nonlocal finished
            if item.attempt >= policy.max_attempts:
                finished += 1
                failures[item.fp] = (error, item.attempt)
                journal(
                    "run_failed", fp=item.fp, attempt=item.attempt, error=error
                )
                self._emit(
                    f"  [{finished}/{total}] {_describe(item.cfg)} FAILED "
                    f"permanently after {item.attempt} attempt(s): {error}"
                )
                return
            delay = policy.backoff(item.attempt, rng)
            stats.retried += 1
            journal(
                "run_retry",
                fp=item.fp,
                attempt=item.attempt,
                error=error,
                backoff_s=round(delay, 3),
            )
            self._emit(
                f"  {_describe(item.cfg)} attempt {item.attempt} failed "
                f"({error}); retrying in {delay:.2f}s"
            )
            item.attempt += 1
            requeue(item, now + delay)

        def abort(reason: str, exc_cls: type) -> None:
            for item in sorted(in_flight.values(), key=lambda i: i.index):
                journal("run_abandoned", fp=item.fp, attempt=item.attempt)
            kill_pool()
            remaining = total - finished
            if session is not None:
                session.event("stopped", reason=reason, fsync=True)
                done = session.counts()["done"]
                sid = session.id
            else:
                done = len(payloads)
                sid = None
            raise exc_cls(sid, reason, done, remaining)

        def check_interrupts() -> None:
            reason = self._stop_reason
            if reason is not None:
                abort(reason, SweepInterrupted)
            if session is not None and session.preempt_requested():
                journal("preempt")
                abort("preempted by a higher-priority session", SweepPreempted)

        try:
            while queue or in_flight:
                check_interrupts()
                now = time.monotonic()
                # One run at a time in-process: each is banked, and a
                # stop honoured, before the next starts.
                room = (1 if in_process else pool_depth) - len(in_flight)
                ready = (item for item in queue if item.not_before <= now)
                for item in list(islice(ready, room)):
                    if pool is None:
                        # Created only on a miss: a warm-cache sweep
                        # never spawns workers.
                        pool = (
                            _InlinePool()
                            if in_process
                            else _process_pool(min(self.jobs, total))
                        )
                    queue.remove(item)
                    item.started = now
                    journal(
                        "run_start",
                        fp=item.fp,
                        attempt=item.attempt,
                        label=_describe(item.cfg),
                    )
                    in_flight[pool.submit(_execute_payload, item.cfg)] = item
                if not in_flight:
                    # Everything is backoff-deferred; idle one tick.
                    time.sleep(policy.poll_interval_s)
                    continue
                done_set, _ = wait(
                    in_flight,
                    timeout=policy.poll_interval_s,
                    return_when=FIRST_COMPLETED,
                )
                pool_broke = False
                for future in sorted(done_set, key=lambda f: in_flight[f].index):
                    item = in_flight.pop(future)
                    try:
                        payload = future.result()
                        _validate_payload(payload)
                    except BrokenExecutor:  # the process pool's BrokenProcessPool
                        # Pool-level mortality: no attempt charged —
                        # the victims simply re-run on a fresh pool.
                        pool_broke = True
                        requeue(item)
                        continue
                    except Exception as exc:  # noqa: BLE001 — classified below
                        if strict:
                            raise
                        charge_failure(item, repr(exc), time.monotonic())
                        continue
                    broken_streak = 0
                    record_done(item, payload, time.monotonic() - item.started)
                if pool_broke:
                    broken_streak += 1
                    for item in in_flight.values():
                        requeue(item)
                    in_flight.clear()
                    kill_pool()
                    journal("pool_recycled", reason="broken pool", streak=broken_streak)
                    if broken_streak > policy.pool_rebuilds:
                        # Slower, but immune to child-process mortality.
                        in_process = True
                        self._emit(
                            f"  worker pool died {broken_streak} time(s); "
                            f"running {len(queue)} remaining run(s) serially"
                        )
                    else:
                        self._emit(
                            f"  worker pool died; retrying {len(queue)} "
                            f"run(s) on a fresh pool "
                            f"({broken_streak}/{policy.pool_rebuilds})"
                        )
                    continue
                if policy.timeout_s is not None and in_flight:
                    now = time.monotonic()
                    expired = sorted(
                        (
                            (future, item)
                            for future, item in in_flight.items()
                            if now - item.started > policy.timeout_s
                        ),
                        key=lambda pair: pair[1].index,
                    )
                    if expired:
                        for future, item in expired:
                            del in_flight[future]
                            stats.deadline_kills += 1
                            journal(
                                "deadline_kill",
                                fp=item.fp,
                                attempt=item.attempt,
                                timeout_s=policy.timeout_s,
                            )
                            self._emit(
                                f"  {_describe(item.cfg)} exceeded its "
                                f"{policy.timeout_s:.1f}s deadline; killing worker"
                            )
                            charge_failure(
                                item, f"deadline ({policy.timeout_s:.1f}s) exceeded", now
                            )
                        # Killing the pool takes innocent in-flight
                        # runs with it; they re-run without charge.
                        for item in in_flight.values():
                            journal(
                                "run_requeued", fp=item.fp, reason="pool recycled"
                            )
                            requeue(item)
                        in_flight.clear()
                        kill_pool()
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)


# -- process-wide default ----------------------------------------------
#
# Library calls (and the tier-1 tests) default to plain serial,
# cache-free execution — exactly the pre-executor behaviour. The CLI
# (and any embedding application) opts into parallelism/caching by
# installing a configured executor here.

_default_executor: SweepExecutor | None = None


def default_executor() -> SweepExecutor:
    """The executor artefacts use when none is passed explicitly."""
    global _default_executor
    if _default_executor is None:
        _default_executor = SweepExecutor(jobs=1, cache=False)
    return _default_executor


def set_default_executor(executor: SweepExecutor | None) -> None:
    """Install (or with ``None``, reset) the process-wide default."""
    global _default_executor
    _default_executor = executor
