"""Tests for durable sweep sessions: journal, codec, policy, signals.

The chaos/crash-equivalence suite lives in ``test_chaos.py``; this
file covers the session mechanics in-process:

* the manifest's config form (repro.io) round-trips every RunConfig
  (verified by re-fingerprinting);
* journal replay tolerates torn and corrupt tails;
* sessions open/resume correctly, abandoning in-flight attempts;
* RunPolicy validates its knobs and produces bounded, jittered backoff;
* the hardened executor classifies failures (retry then permanent) and
  honours stop/preemption requests;
* the two-stage signal guard stops cleanly, then hard-exits.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro.experiments.config import mini_accuracy_config, timing_config
from repro.experiments.executor import SweepExecutor, config_fingerprint
from repro.experiments.session import (
    FailedRun,
    RunPolicy,
    SignalGuard,
    SweepInterrupted,
    SweepPreempted,
    SweepSession,
    grid_fingerprint,
    list_sessions,
    replay_journal,
    resolve_session,
)
from repro.core.config import RunConfig
from repro.io import from_jsonable, to_jsonable
from repro.optimizations.dgc import DGCConfig


def tiny_timing(algo="bsp", n=1, **overrides):
    return timing_config(
        algo, num_workers=n, measure_iters=2, warmup_iters=1, **overrides
    )


def tiny_grid():
    return [tiny_timing(algo, n) for algo in ("bsp", "ad-psgd") for n in (1, 2)]


def stable(results):
    return [json.dumps(to_jsonable(r), sort_keys=True) for r in results]


def durable_executor(tmp_path, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("cache", True)
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("session_root", tmp_path / "sessions")
    kwargs.setdefault("durable", True)
    return SweepExecutor(**kwargs)


class TestConfigCodec:
    @pytest.mark.parametrize(
        "cfg",
        [
            tiny_timing(),
            tiny_timing("ad-psgd", 4, bandwidth_gbps=56.0),
            tiny_timing(dgc=True, dgc_config=DGCConfig(num_workers=1)),
            mini_accuracy_config("bsp", num_workers=2, epochs=1.0),
        ],
        ids=["timing", "adpsgd", "dgc", "full"],
    )
    def test_round_trip_preserves_fingerprint(self, cfg):
        clone = from_jsonable(RunConfig, json.loads(json.dumps(to_jsonable(cfg))))
        assert config_fingerprint(clone) == config_fingerprint(cfg)

    def test_non_repro_class_refused(self):
        # The older tagged form names a class; nothing is imported from it.
        with pytest.raises(ValueError, match="no field '__dataclass__'"):
            from_jsonable(RunConfig, {"__dataclass__": "os.path:join", "fields": {}})

    def test_unknown_field_refused(self):
        with pytest.raises(ValueError, match="RunConfig has no field 'plain'"):
            from_jsonable(RunConfig, {"algorithm": "bsp", "plain": "dict"})


class TestGridFingerprint:
    def test_same_grid_same_session(self):
        prints = [config_fingerprint(c) for c in tiny_grid()]
        assert grid_fingerprint(prints) == grid_fingerprint(prints)

    def test_order_matters(self):
        prints = [config_fingerprint(c) for c in tiny_grid()]
        assert grid_fingerprint(prints) != grid_fingerprint(prints[::-1])

    def test_any_run_matters(self):
        prints = [config_fingerprint(c) for c in tiny_grid()]
        changed = list(prints)
        changed[0] = config_fingerprint(tiny_timing(seed=7))
        assert grid_fingerprint(changed) != grid_fingerprint(prints)


class TestJournalReplay:
    def test_missing_journal_is_empty(self, tmp_path):
        records, recovery = replay_journal(tmp_path / "nope.jsonl")
        assert records == []
        assert recovery == {"torn_tail": 0, "corrupt": 0}

    def test_torn_tail_dropped_and_counted(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            '{"ev":"run_start","fp":"a","t":1.0}\n'
            '{"ev":"run_done","fp":"a","t":2.0}\n'
            '{"ev":"run_start","fp":"b","t'  # crash mid-append
        )
        records, recovery = replay_journal(journal)
        assert [r["ev"] for r in records] == ["run_start", "run_done"]
        assert recovery == {"torn_tail": 1, "corrupt": 0}

    def test_mid_file_corruption_counted_separately(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            '{"ev":"run_start","fp":"a","t":1.0}\n'
            "\x00\x00garbage\x00\n"
            '{"ev":"run_done","fp":"a","t":2.0}\n'
        )
        records, recovery = replay_journal(journal)
        assert [r["ev"] for r in records] == ["run_start", "run_done"]
        assert recovery == {"torn_tail": 0, "corrupt": 1}

    def test_non_record_json_dropped(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text('[1,2,3]\n{"ev":"run_done","fp":"a","t":1.0}\n')
        records, recovery = replay_journal(journal)
        assert len(records) == 1
        assert recovery["corrupt"] == 1


class TestSessionLifecycle:
    def test_durable_map_creates_session_and_journal(self, tmp_path):
        ex = durable_executor(tmp_path)
        grid = tiny_grid()
        results = ex.map(grid)
        session = ex.last_session
        assert session is not None
        assert session.completed
        assert session.journal_path.is_file()
        records = session.records()
        kinds = [r["ev"] for r in records]
        assert kinds[0] == "session_start"
        assert kinds[-1] == "session_complete"
        assert kinds.count("run_start") == len(grid)
        assert kinds.count("run_done") == len(grid)
        assert stable(results) == stable(
            SweepExecutor(jobs=1, cache=False).map(grid)
        )

    def test_same_grid_resumes_same_session(self, tmp_path):
        grid = tiny_grid()
        first = durable_executor(tmp_path)
        first.map(grid)
        second = durable_executor(tmp_path)
        second.map(grid)
        assert second.last_session.id == first.last_session.id
        assert second.last_stats.executed == 0
        assert second.last_stats.cache_hits == len(grid)
        kinds = [r["ev"] for r in second.last_session.records()]
        assert "session_resume" in kinds

    def test_open_abandons_inflight_runs(self, tmp_path):
        ex = durable_executor(tmp_path)
        ex.map(tiny_grid())
        session = ex.last_session
        fp = session.fingerprints[0]
        # Simulate a crash mid-run: journal a start with no terminal.
        session.event("run_start", fp=fp, attempt=2)
        reopened = SweepSession.open(session.id, root=tmp_path / "sessions")
        assert reopened.states[fp] == "pending"
        kinds = [r["ev"] for r in reopened.records()]
        assert "run_abandoned" in kinds
        assert kinds[-1] == "session_resume"

    def test_done_journal_with_lost_cache_requeues(self, tmp_path):
        ex = durable_executor(tmp_path)
        grid = tiny_grid()
        ex.map(grid)
        sid = ex.last_session.id
        # The journal says done, but the result store lost everything.
        for entry in (tmp_path / "cache").glob("*.json"):
            entry.unlink()
        again = durable_executor(tmp_path)
        results = again.map(grid)
        assert again.last_session.id == sid
        assert again.last_stats.executed == len(grid)
        kinds = [r["ev"] for r in again.last_session.records()]
        assert kinds.count("run_requeued") == len(grid)
        assert stable(results) == stable(
            SweepExecutor(jobs=1, cache=False).map(grid)
        )

    def test_require_existing_rejects_fresh_grid(self, tmp_path):
        ex = durable_executor(tmp_path, require_existing_session=True)
        with pytest.raises(FileNotFoundError, match="no existing session"):
            ex.map(tiny_grid())

    def test_no_cache_sessions_use_local_result_store(self, tmp_path):
        ex = durable_executor(tmp_path, cache=False, cache_dir=None)
        grid = tiny_grid()
        ex.map(grid)
        session = ex.last_session
        assert any((session.dir / "results").glob("*.json"))
        warm = durable_executor(tmp_path, cache=False, cache_dir=None)
        warm.map(grid)
        assert warm.last_stats.executed == 0

    def test_load_configs_verifies_fingerprints(self, tmp_path):
        ex = durable_executor(tmp_path)
        ex.map([tiny_timing()])
        session = ex.last_session
        configs = session.load_configs()
        assert [config_fingerprint(c) for c in configs] == session.fingerprints
        session.manifest["runs"][0]["fingerprint"] = "f" * 64
        with pytest.raises(ValueError, match="fingerprints to"):
            session.load_configs()

    def test_manifest_records_cache_settings(self, tmp_path):
        ex = durable_executor(tmp_path)
        ex.map([tiny_timing()])
        manifest = ex.last_session.manifest
        assert manifest["cache"] is True
        assert manifest["cache_dir"] == str(tmp_path / "cache")

    def test_session_metrics_count_lifecycle_events(self, tmp_path):
        ex = durable_executor(tmp_path)
        grid = tiny_grid()
        ex.map(grid)
        events = ex.last_session.to_dict()["events"]
        assert events["run_done"] == len(grid)
        assert events["session_complete"] == 1

    def test_reopened_and_listed_sessions_count_the_whole_journal(self, tmp_path):
        ex = durable_executor(tmp_path)
        ex.map(tiny_grid()[:3])
        root = tmp_path / "sessions"
        session = SweepSession.open(ex.last_session.id, root=root)
        journal = Counter(r["ev"] for r in session.records())
        assert {"session_start", "run_start", "run_done", "session_complete"} <= set(journal)
        assert session.to_dict()["events"] == dict(journal)
        [listed] = list_sessions(root)
        assert listed["events"] == dict(journal)

    def test_manifest_without_priority_and_old_with_it_both_load(self, tmp_path):
        ex = durable_executor(tmp_path)
        ex.map(tiny_grid()[:1])
        session = ex.last_session
        assert "priority" not in session.manifest
        grid = session.dir / "grid.json"
        grid.write_text(json.dumps({**session.manifest, "priority": 0}))
        assert SweepSession.load(session.dir).to_dict()["counts"]["done"] == 1


class TestSessionDiscovery:
    def test_list_and_resolve(self, tmp_path):
        root = tmp_path / "sessions"
        ex = durable_executor(tmp_path, session_name="alpha")
        ex.map(tiny_grid())
        sid = ex.last_session.id
        sessions = list_sessions(root)
        assert [s["session"] for s in sessions] == [sid]
        assert sessions[0]["completed"] is True
        assert resolve_session(sid, root=root).name == sid
        assert resolve_session(sid[:6], root=root).name == sid
        assert resolve_session("alpha", root=root).name == sid

    def test_resolve_unknown_and_ambiguous(self, tmp_path):
        root = tmp_path / "sessions"
        a = durable_executor(tmp_path, session_name="dup")
        a.map([tiny_timing()])
        b = durable_executor(tmp_path, session_name="dup")
        b.map([tiny_timing("ad-psgd", 2)])
        with pytest.raises(FileNotFoundError):
            resolve_session("missing", root=root)
        with pytest.raises(ValueError, match="ambiguous"):
            resolve_session("dup", root=root)


class TestRunPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunPolicy(timeout_s=0)
        with pytest.raises(ValueError):
            RunPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RunPolicy(backoff_jitter=1.5)
        with pytest.raises(ValueError):
            RunPolicy(poll_interval_s=0)

    def test_backoff_grows_and_caps(self):
        import random

        policy = RunPolicy(
            backoff_base_s=1.0, backoff_max_s=4.0, backoff_jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.backoff(a, rng) for a in (1, 2, 3, 4, 5)]
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_jitter_is_bounded_and_deterministic(self):
        import random

        policy = RunPolicy(backoff_base_s=1.0, backoff_jitter=0.5)
        a = [policy.backoff(1, random.Random("s")) for _ in range(3)]
        b = [policy.backoff(1, random.Random("s")) for _ in range(3)]
        assert a == b  # same seed, same schedule
        for delay in a:
            assert 0.5 <= delay <= 1.5


class _FlakyRuns:
    """Monkeypatchable _execute_payload: fail each fingerprint a
    scripted number of times before succeeding (or forever)."""

    def __init__(self, real, plan):
        self.real = real
        self.plan = dict(plan)  # fp-prefix -> failures to serve
        self.calls = []

    def __call__(self, cfg):
        fp = config_fingerprint(cfg)
        self.calls.append(fp)
        for prefix, remaining in self.plan.items():
            if fp.startswith(prefix) and remaining > 0:
                self.plan[prefix] = remaining - 1
                raise RuntimeError(f"transient failure ({prefix})")
        return self.real(cfg)


def fast_policy(**overrides):
    kwargs = dict(
        max_attempts=3, backoff_base_s=0.0, backoff_jitter=0.0,
        poll_interval_s=0.01,
    )
    kwargs.update(overrides)
    return RunPolicy(**kwargs)


class TestHardenedFailures:
    def _patch(self, monkeypatch, flaky):
        import repro.experiments.executor as executor_module

        monkeypatch.setattr(executor_module, "_execute_payload", flaky)

    def test_transient_failure_retried_to_success(self, tmp_path, monkeypatch):
        import repro.experiments.executor as executor_module

        grid = [tiny_timing()]
        fp = config_fingerprint(grid[0])
        flaky = _FlakyRuns(executor_module._execute_payload, {fp[:8]: 2})
        self._patch(monkeypatch, flaky)
        ex = durable_executor(tmp_path, policy=fast_policy())
        results = ex.map(grid)
        assert ex.last_stats.retried == 2
        assert ex.last_stats.failed == 0
        assert results[0].measured_images > 0
        kinds = [r["ev"] for r in ex.last_session.records()]
        assert kinds.count("run_retry") == 2

    def test_permanent_failure_degrades_not_aborts(self, tmp_path, monkeypatch):
        import repro.experiments.executor as executor_module

        grid = tiny_grid()
        bad_fp = config_fingerprint(grid[0])
        flaky = _FlakyRuns(executor_module._execute_payload, {bad_fp[:8]: 99})
        self._patch(monkeypatch, flaky)
        ex = durable_executor(tmp_path, policy=fast_policy(max_attempts=2))
        results = ex.map(grid)
        assert ex.last_stats.failed == 1
        assert isinstance(results[0], FailedRun)
        assert results[0].attempts == 2
        assert "transient failure" in results[0].error
        assert json.dumps(to_jsonable(results[0]))  # serialisable
        # The other three cells completed normally.
        assert all(r.measured_images > 0 for r in results[1:])
        assert ex.last_session.states[bad_fp] == "failed"

    def test_failed_cell_reexecuted_on_resume(self, tmp_path, monkeypatch):
        import repro.experiments.executor as executor_module

        grid = tiny_grid()
        bad_fp = config_fingerprint(grid[0])
        flaky = _FlakyRuns(executor_module._execute_payload, {bad_fp[:8]: 99})
        self._patch(monkeypatch, flaky)
        ex = durable_executor(tmp_path, policy=fast_policy(max_attempts=2))
        ex.map(grid)
        # The flake is fixed; resuming re-runs only the failed cell.
        flaky.plan[bad_fp[:8]] = 0
        again = durable_executor(tmp_path, policy=fast_policy(max_attempts=2))
        results = again.map(grid)
        assert again.last_stats.executed == 1
        assert again.last_stats.cache_hits == len(grid) - 1
        assert again.last_stats.failed == 0
        assert stable(results) == stable(
            SweepExecutor(jobs=1, cache=False).map(grid)
        )

    def test_corrupt_worker_payload_is_retryable(self, tmp_path, monkeypatch):
        import repro.experiments.executor as executor_module

        real = executor_module._execute_payload
        served = {"bad": True}

        def corrupting(cfg):
            if served.pop("bad", None):
                return {"kind": "nonsense"}
            return real(cfg)

        self._patch(monkeypatch, corrupting)
        ex = durable_executor(tmp_path, policy=fast_policy())
        results = ex.map([tiny_timing()])
        assert ex.last_stats.retried == 1
        assert results[0].measured_images > 0

    def test_policy_without_session_still_degrades(self, tmp_path, monkeypatch):
        import repro.experiments.executor as executor_module

        grid = [tiny_timing()]
        fp = config_fingerprint(grid[0])
        flaky = _FlakyRuns(executor_module._execute_payload, {fp[:8]: 99})
        self._patch(monkeypatch, flaky)
        ex = SweepExecutor(jobs=1, cache=False, policy=fast_policy(max_attempts=2))
        results = ex.map(grid)
        assert isinstance(results[0], FailedRun)
        assert ex.last_session is None


class TestStopAndPreempt:
    def test_request_stop_raises_interrupted(self, tmp_path):
        ex = durable_executor(tmp_path)
        ex.request_stop("test stop")
        with pytest.raises(SweepInterrupted) as excinfo:
            ex.map(tiny_grid())
        exc = excinfo.value
        assert exc.reason == "test stop"
        assert exc.session_id == ex.last_session.id
        assert exc.resume_command == f"repro sweep resume {exc.session_id}"
        kinds = [r["ev"] for r in ex.last_session.records()]
        assert kinds[-1] == "stopped"

    def test_stop_mid_sweep_preserves_progress(self, tmp_path):
        ex = durable_executor(tmp_path)
        grid = tiny_grid()
        seen = []

        def stop_after_two(line):
            seen.append(line)
            if sum("done in" in s for s in seen) == 2:
                ex.request_stop("enough")

        ex.progress = stop_after_two
        with pytest.raises(SweepInterrupted) as excinfo:
            ex.map(grid)
        assert excinfo.value.done == 2
        resumed = durable_executor(tmp_path)
        results = resumed.map(grid)
        assert resumed.last_stats.cache_hits == 2
        assert resumed.last_stats.executed == 2
        assert stable(results) == stable(
            SweepExecutor(jobs=1, cache=False).map(grid)
        )

    def test_preempt_file_yields_cleanly(self, tmp_path):
        ex = durable_executor(tmp_path)
        grid = tiny_grid()

        def preempt_after_one(line):
            if "done in" in line:
                ex.last_session.preempt_path.write_text("")

        ex.progress = preempt_after_one
        with pytest.raises(SweepPreempted):
            ex.map(grid)
        kinds = [r["ev"] for r in ex.last_session.records()]
        assert "preempt" in kinds

    def test_cross_process_preempt_flag(self, tmp_path):
        ex = durable_executor(tmp_path)
        ex.map([tiny_timing()])
        session = ex.last_session
        assert not session.preempt_requested()
        session.preempt_path.write_text("")
        assert session.preempt_requested()
        assert not session.preempt_path.exists()  # consumed


class TestSignalGuard:
    def test_first_signal_requests_stop(self, capfd):
        import signal as signal_module

        ex = SweepExecutor(jobs=1, cache=False)
        exits = []
        guard = SignalGuard(ex, _exit=exits.append)
        guard(signal_module.SIGINT, None)
        assert ex._stop_reason == f"signal {int(signal_module.SIGINT)}"
        assert exits == []
        assert "stopping cleanly" in capfd.readouterr().err

    def test_second_signal_hard_exits(self):
        import signal as signal_module

        exits = []
        guard = SignalGuard(SweepExecutor(jobs=1, cache=False), _exit=exits.append)
        guard(signal_module.SIGTERM, None)
        guard(signal_module.SIGTERM, None)
        assert exits == [128 + int(signal_module.SIGTERM)]

    def test_install_uninstall_restores_handlers(self):
        import signal as signal_module

        previous = signal_module.getsignal(signal_module.SIGINT)
        guard = SignalGuard(SweepExecutor(jobs=1, cache=False)).install()
        assert signal_module.getsignal(signal_module.SIGINT) is guard
        guard.uninstall()
        assert signal_module.getsignal(signal_module.SIGINT) is previous


class TestSessionTrace:
    def test_journal_exports_to_perfetto(self, tmp_path):
        from repro.obs import build_session_trace

        ex = durable_executor(tmp_path)
        ex.map(tiny_grid())
        session = ex.last_session
        labels = {
            e["fingerprint"]: e["label"] for e in session.manifest["runs"]
        }
        trace = build_session_trace(session.records(), labels=labels)
        events = trace["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == len(session.fingerprints)
        assert all(e["name"] == "attempt 1: done" for e in spans)
        names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "bsp/timing w=1" in names
        instants = {e["name"] for e in events if e["ph"] == "i"}
        assert {"session_start", "session_complete"} <= instants
        json.dumps(trace)  # must be serialisable as-is
