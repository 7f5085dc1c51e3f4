"""Durable sweep sessions: crash-safe journaled execution with resume.

A sweep of independent simulator runs is hours of wall time at paper
scale, and today's host can kill it at any instant — ``kill -9`` on
the driver, an OOM-killed pool worker, a power loss mid-write. This
module makes the *host-level* executor as fault-tolerant as PRs 3–4
made the simulated cluster:

* **Sessions** — :class:`SweepSession` identifies a sweep by the
  fingerprint of its config grid (:func:`grid_fingerprint` over the
  per-run content addresses) and owns one directory under
  ``~/.cache/repro/sessions`` (override: ``$REPRO_SESSION_DIR``)
  holding the grid manifest, the journal, and (when the shared run
  cache is disabled) a session-local result store.
* **Journal** — an append-only JSONL file of lifecycle events. Each
  run record moves through ``pending → running → done | failed |
  abandoned``. Appends are single ``write()`` calls on an
  ``O_APPEND`` handle; replay tolerates a torn or corrupt tail (the
  partial line is dropped and counted, never fatal), so the journal
  survives the same crashes the sweep does.
* **Idempotent resume** — results live in the content-addressed
  :class:`~repro.experiments.executor.RunCache`; the journal records
  progress. Resuming replays the journal, abandons in-flight
  attempts, and re-submits the grid: ``done`` cells are cache hits
  (zero re-execution), in-flight/failed cells re-execute, and the
  materialised output is bit-identical to an uninterrupted sweep.
* **Policy** — :class:`RunPolicy` hardens the executor with per-run
  wall-clock deadlines (hung runs are killed and the pool recycled),
  bounded retries with exponential backoff + deterministic jitter,
  and permanent-failure classification: after ``max_attempts`` a cell
  degrades to a :class:`FailedRun` in the results instead of aborting
  the grid.
* **Preemption hook** — a ``PREEMPT`` flag file in the session
  directory, written by another process (e.g. a higher-priority
  session sharing the host), makes the executor stop
  submitting work, checkpoint the journal, and raise
  :class:`SweepPreempted`; the session resumes later exactly like a
  crashed one.
* **Signals** — :func:`install_signal_guard` gives every CLI sweep,
  durable or not, a graceful SIGINT/SIGTERM: the first signal requests
  a clean stop (finished cells cached, journal flushed, resume command
  printed), the second hard-exits.

A session counts its journal's records by kind (``events`` in
:meth:`SweepSession.to_dict`), and the journal converts to a Perfetto
trace via :func:`repro.obs.perfetto.build_session_trace` (``repro
sweep show --trace-out``).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal as signal_module
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro import __version__
from repro.io import atomic_write_text, from_jsonable, to_jsonable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import RunConfig
    from repro.experiments.executor import RunCache, SweepExecutor

__all__ = [
    "DEFAULT_SESSION_DIR",
    "FailedRun",
    "RunPolicy",
    "SweepInterrupted",
    "SweepPreempted",
    "SweepSession",
    "describe_session",
    "grid_fingerprint",
    "install_signal_guard",
    "list_sessions",
    "replay_journal",
    "resolve_session",
]

DEFAULT_SESSION_DIR = Path.home() / ".cache" / "repro" / "sessions"

#: Run-record states a journal replay can land on.
RUN_STATES = ("pending", "running", "done", "failed", "abandoned")


def session_root(root: str | Path | None = None) -> Path:
    if root is None:
        root = os.environ.get("REPRO_SESSION_DIR") or DEFAULT_SESSION_DIR
    return Path(root).expanduser()


def grid_fingerprint(fingerprints: Sequence[str]) -> str:
    """Session id: digest of the ordered per-run content addresses.

    The same grid always maps to the same session, so re-running an
    interrupted driver command resumes it automatically; any change to
    any run (or to the grid order, which fixes output order) is a new
    session.
    """
    blob = json.dumps(list(fingerprints), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- policy --------------------------------------------------------------


@dataclass
class RunPolicy:
    """Per-run execution policy for a hardened sweep.

    ``timeout_s`` is a wall-clock deadline per attempt: a run that
    exceeds it is killed (the worker pool is recycled — a hung child
    cannot be interrupted any other way) and the attempt counts as a
    failure. Failed attempts are retried with exponential backoff and
    deterministic jitter until ``max_attempts``, after which the cell
    is classified *permanently failed*: the sweep completes with a
    :class:`FailedRun` in that slot rather than aborting the grid.
    Pool deaths (``BrokenProcessPool``) are pool-level, not run-level:
    they recycle the pool without charging the in-flight runs an
    attempt, and after ``pool_rebuilds`` consecutive deaths the
    remainder runs serially in-process.
    """

    timeout_s: float | None = None
    max_attempts: int = 3
    backoff_base_s: float = 0.25
    backoff_max_s: float = 30.0
    backoff_jitter: float = 0.5  # +/- fraction of the backoff
    poll_interval_s: float = 0.05
    pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff must be non-negative")
        if not 0 <= self.backoff_jitter <= 1:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")

    def backoff(self, attempt: int, rng) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered.

        ``rng`` is a seeded ``random.Random`` so schedules are
        reproducible per session (jitter decorrelates concurrent
        sessions, not re-runs of the same one).
        """
        base = min(self.backoff_base_s * (2.0 ** (attempt - 1)), self.backoff_max_s)
        if self.backoff_jitter:
            base *= 1.0 + self.backoff_jitter * (2.0 * rng.random() - 1.0)
        return base


@dataclass
class FailedRun:
    """Placeholder result for a permanently failed sweep cell.

    Carries enough to diagnose and re-submit; renders/serialises
    cleanly so a degraded sweep's ``--output`` JSON reports the
    failure instead of crashing.
    """

    algorithm: str
    fingerprint: str
    error: str
    attempts: int
    failed: bool = True


class SweepInterrupted(RuntimeError):
    """A sweep stopped cleanly before completing (signal or stop request).

    The journal is flushed and every in-flight run is abandoned; the
    session resumes idempotently via :attr:`resume_command`.
    """

    def __init__(
        self, session_id: str | None, reason: str, done: int, remaining: int
    ) -> None:
        self.session_id = session_id
        self.reason = reason
        self.done = done
        self.remaining = remaining
        super().__init__(
            f"sweep session {session_id or '<no journal>'} interrupted "
            f"({reason}): {done} run(s) done, {remaining} remaining"
        )

    @property
    def resume_command(self) -> str:
        if self.session_id is None:
            return "re-run the same command (no durable session was attached)"
        return f"repro sweep resume {self.session_id}"


class SweepPreempted(SweepInterrupted):
    """A sweep yielded to a higher-priority session sharing the host."""


# -- journal -------------------------------------------------------------


def replay_journal(path: str | Path) -> tuple[list[dict], dict]:
    """Read a journal, tolerating a torn or corrupt tail.

    Returns ``(records, recovery)`` where ``recovery`` counts dropped
    lines: ``torn_tail`` (an unterminated/garbled final line — the
    normal shape of a crash mid-append) and ``corrupt`` (damage
    elsewhere). A dropped record at worst re-executes a run; it never
    loses a cached result.
    """
    recovery = {"torn_tail": 0, "corrupt": 0}
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return [], recovery
    records: list[dict] = []
    lines = raw.split(b"\n")
    last = len(lines) - 1
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or "ev" not in record:
                raise ValueError("not a journal record")
        except (ValueError, UnicodeDecodeError):
            # The final non-empty line is the torn tail of a crashed
            # append; anything earlier is genuine corruption.
            key = "torn_tail" if i >= last - 1 else "corrupt"
            recovery[key] += 1
            continue
        records.append(record)
    return records, recovery


#: The run state each lifecycle record leaves its cell in.
_TRANSITIONS = {
    "run_start": "running",
    "run_done": "done",
    "run_retry": "pending",
    "run_failed": "failed",
    "run_abandoned": "abandoned",
    "run_requeued": "pending",
}


class SweepSession:
    """One durable sweep: a grid manifest, a journal, and run states.

    Create with :meth:`for_configs` (new or auto-resumed from the grid
    fingerprint) or :meth:`open` (resume by id/name, reconstructing
    the configs from the manifest). The executor drives lifecycle via
    :meth:`event`; everything else is derived from the journal.
    """

    def __init__(self, directory: Path, manifest: dict) -> None:
        self.dir = Path(directory)
        self.manifest = manifest
        self.id: str = manifest["session"]
        self.name: str | None = manifest.get("name")
        self.fingerprints: list[str] = [r["fingerprint"] for r in manifest["runs"]]
        self.states: dict[str, str] = {fp: "pending" for fp in self.fingerprints}
        self.attempts: dict[str, int] = {fp: 0 for fp in self.fingerprints}
        self.recovery = {"torn_tail": 0, "corrupt": 0}
        self._preempt = False
        self._journal_fh: Any = None
        # Journal records by kind, replayed and appended alike.
        self.events: dict[str, int] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def for_configs(
        cls,
        configs: Sequence["RunConfig"],
        fingerprints: Sequence[str],
        *,
        root: str | Path | None = None,
        name: str | None = None,
        require_existing: bool = False,
        cache_dir: str | None = None,
        cache: bool = True,
    ) -> "SweepSession":
        """Create the session for this grid, or resume it if its
        directory already exists (same grid ⇒ same id ⇒ same session)."""
        sid = grid_fingerprint(fingerprints)
        directory = session_root(root) / sid
        if (directory / "grid.json").exists():
            return cls.open(sid, root=root)
        if require_existing:
            raise FileNotFoundError(
                f"no existing session {sid} for this grid (started fresh "
                f"sweeps are rejected under --resume)"
            )
        from repro.experiments.executor import _describe

        manifest = {
            "session": sid,
            "name": name,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "repro_version": __version__,
            "cache": cache,
            "cache_dir": cache_dir,
            "runs": [
                {
                    "fingerprint": fp,
                    "label": _describe(cfg),
                    "config": to_jsonable(cfg),
                }
                for fp, cfg in zip(fingerprints, configs)
            ],
        }
        atomic_write_text(
            directory / "grid.json",
            json.dumps(manifest, separators=(",", ":")) + "\n",
        )
        session = cls(directory, manifest)
        session.event(
            "session_start", runs=len(fingerprints), repro_version=__version__
        )
        return session

    @classmethod
    def load(cls, directory: Path) -> "SweepSession":
        """The session in ``directory`` as its journal left it: read
        only, nothing is appended."""
        manifest = json.loads((directory / "grid.json").read_text())
        session = cls(directory, manifest)
        records, session.recovery = replay_journal(session.journal_path)
        for record in records:
            session._fold(record.get("ev"), record.get("fp"), record.get("attempt"))
        return session

    @classmethod
    def open(
        cls, key: str, *, root: str | Path | None = None
    ) -> "SweepSession":
        """Resume an existing session by id (or unique prefix/name).

        Replays the journal, abandons any attempt left ``running`` by
        a dead driver (the run returns to ``pending``), and logs the
        resume — all before any new work is scheduled.
        """
        session = cls.load(resolve_session(key, root=root))
        abandoned = [fp for fp, state in session.states.items() if state == "running"]
        for fp in abandoned:
            session.event("run_abandoned", fp=fp, attempt=session.attempts[fp])
            session.states[fp] = "pending"
        counts = session.counts()
        session.event(
            "session_resume",
            done=counts["done"],
            pending=counts["pending"],
            failed=counts["failed"],
            abandoned=len(abandoned),
            recovered=dict(session.recovery),
        )
        return session

    # -- paths ----------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.dir / "journal.jsonl"

    @property
    def preempt_path(self) -> Path:
        return self.dir / "PREEMPT"

    def local_cache(self) -> "RunCache":
        """Session-owned result store, used when the shared run cache
        is disabled: durable resume needs *some* content-addressed
        home for finished payloads."""
        from repro.experiments.executor import RunCache

        return RunCache(self.dir / "results")

    def load_configs(self) -> list["RunConfig"]:
        """Reconstruct the grid from the manifest, verifying that each
        decoded config still fingerprints to its recorded address."""
        from repro.core.config import RunConfig
        from repro.experiments.executor import config_fingerprint

        configs = []
        for entry in self.manifest["runs"]:
            if "__dataclass__" in entry["config"]:
                raise ValueError(
                    f"session {self.id}: its grid manifest stores configs in the "
                    "tagged format of an older repro; re-run the sweep's own "
                    "command to finish it"
                )
            config = from_jsonable(RunConfig, entry["config"])
            fp = config_fingerprint(config)
            if fp != entry["fingerprint"]:
                raise ValueError(
                    f"session {self.id}: decoded config fingerprints to "
                    f"{fp[:12]}, manifest says {entry['fingerprint'][:12]} "
                    f"(repro version drift? manifest was "
                    f"{self.manifest.get('repro_version')}, this is {__version__})"
                )
            configs.append(config)
        return configs

    # -- journal events -------------------------------------------------

    def _journal_handle(self) -> Any:
        """The session's long-lived ``O_APPEND`` journal handle.

        Each record is a single flushed ``write()`` on an append-mode
        handle, so a crash tears at most the final line — which replay
        detects and drops. One handle for the session's life, not an
        open/close per event, keeps journaling overhead negligible
        against even sub-100ms runs.
        """
        if self._journal_fh is None or self._journal_fh.closed:
            self.journal_path.parent.mkdir(parents=True, exist_ok=True)
            self._journal_fh = open(self.journal_path, "a", encoding="utf-8")
        return self._journal_fh

    def event(self, kind: str, *, fsync: bool = False, **data) -> None:
        """Append one lifecycle record and fold it into the session."""
        record = {"ev": kind, "t": round(time.time(), 6), **data}
        fh = self._journal_handle()
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
        self._fold(kind, data.get("fp"), data.get("attempt"))

    def _fold(self, kind: Any, fp: Any, attempt: Any) -> None:
        """Apply one record — just appended, or replayed from disk and
        so of unchecked shape — to the event counts and run states."""
        if isinstance(kind, str):
            self.events[kind] = self.events.get(kind, 0) + 1
        if fp not in self.states:
            return
        state = _TRANSITIONS.get(kind)
        if state is not None:
            self.states[fp] = state
        if isinstance(attempt, int):
            self.attempts[fp] = max(self.attempts[fp], attempt)

    def records(self) -> list[dict]:
        """All readable journal records (for ``sweep show`` / traces)."""
        records, _ = replay_journal(self.journal_path)
        return records

    # -- stop / preemption ----------------------------------------------

    def preempt_requested(self) -> bool:
        if self._preempt:
            return True
        if self.preempt_path.exists():
            try:
                self.preempt_path.unlink()
            except OSError:
                pass
            self._preempt = True
            return True
        return False

    # -- summaries -------------------------------------------------------

    def counts(self) -> dict[str, int]:
        counts = {state: 0 for state in RUN_STATES}
        for state in self.states.values():
            counts[state] += 1
        return counts

    @property
    def completed(self) -> bool:
        return all(state == "done" for state in self.states.values())

    def to_dict(self) -> dict:
        counts = self.counts()
        return {
            "session": self.id,
            "name": self.name,
            "created": self.manifest.get("created"),
            "runs": len(self.fingerprints),
            "counts": counts,
            "completed": self.completed,
            "recovery": dict(self.recovery),
            "events": dict(sorted(self.events.items())),
            "labels": {
                entry["fingerprint"]: entry["label"]
                for entry in self.manifest["runs"]
            },
            "states": dict(self.states),
        }

    def summary(self) -> str:
        return describe_session(self.to_dict())

    @property
    def resume_command(self) -> str:
        return f"repro sweep resume {self.id}"


# -- session directory listing ------------------------------------------


def describe_session(summary: dict, *, created: bool = False) -> str:
    """One-line human form of a :meth:`SweepSession.to_dict` summary;
    ``created`` adds the creation-time column of ``repro sweep list``."""
    counts = summary["counts"]
    bits = [f"{counts['done']}/{summary['runs']} done"]
    for state in ("running", "pending", "failed", "abandoned"):
        if counts[state]:
            bits.append(f"{counts[state]} {state}")
    status = "complete" if summary["completed"] else "resumable"
    name = f" ({summary['name']})" if summary.get("name") else ""
    middle = f"  {summary.get('created') or '?':19s}  " if created else ": "
    return f"{summary['session']}{name}{middle}{', '.join(bits)} — {status}"


def list_sessions(root: str | Path | None = None) -> list[dict]:
    """Summaries of every session under ``root``, newest first."""
    base = session_root(root)
    if not base.is_dir():
        return []
    sessions = []
    for directory in sorted(base.iterdir()):
        if not (directory / "grid.json").is_file():
            continue
        try:
            session = SweepSession.load(directory)
        except (ValueError, KeyError, TypeError):
            continue
        sessions.append(session.to_dict())
    sessions.sort(key=lambda s: (s.get("created") or "", s["session"]), reverse=True)
    return sessions


def resolve_session(key: str, *, root: str | Path | None = None) -> Path:
    """Map an id, unique id prefix, or session name to its directory."""
    base = session_root(root)
    direct = base / key
    if (direct / "grid.json").is_file():
        return direct
    matches = []
    if base.is_dir():
        for directory in sorted(base.iterdir()):
            if not (directory / "grid.json").is_file():
                continue
            if directory.name.startswith(key):
                matches.append(directory)
                continue
            try:
                manifest = json.loads((directory / "grid.json").read_text())
            except ValueError:
                continue
            if manifest.get("name") == key:
                matches.append(directory)
    if not matches:
        raise FileNotFoundError(f"no sweep session matching {key!r} under {base}")
    if len(matches) > 1:
        names = ", ".join(m.name for m in matches)
        raise ValueError(f"ambiguous session {key!r}: matches {names}")
    return matches[0]


# -- signal guard --------------------------------------------------------


class SignalGuard:
    """Two-stage SIGINT/SIGTERM handling for CLI sweeps.

    First signal: ask the executor for a clean stop — its loop abandons
    in-flight work, flushes the journal (when there is one), and raises
    :class:`SweepInterrupted` (the CLI prints how to resume).
    Second signal: hard exit with the conventional ``128 + signum``.
    """

    SIGNALS = (signal_module.SIGINT, signal_module.SIGTERM)

    def __init__(
        self,
        executor: "SweepExecutor",
        *,
        _exit: Callable[[int], None] = os._exit,
    ) -> None:
        self.executor = executor
        self.fired = 0
        self._exit = _exit
        self._previous: dict[int, Any] = {}

    def __call__(self, signum, frame) -> None:
        self.fired += 1
        if self.fired > 1:
            self._exit(128 + signum)
            return
        # Async-signal-safe-ish: a single write, no allocation-heavy IO.
        os.write(
            2,
            b"\n[signal received - stopping cleanly; signal again to hard-exit]\n",
        )
        self.executor.request_stop(f"signal {signum}")

    def install(self) -> "SignalGuard":
        for sig in self.SIGNALS:
            self._previous[sig] = signal_module.signal(sig, self)
        return self

    def uninstall(self) -> None:
        for sig, previous in self._previous.items():
            signal_module.signal(sig, previous)
        self._previous.clear()


def install_signal_guard(executor: "SweepExecutor") -> SignalGuard:
    """Install the two-stage guard; only sensible from the main thread
    of a CLI sweep (signal handlers are process-global)."""
    return SignalGuard(executor).install()
