"""Tests for the parallel sweep executor and its run cache.

The load-bearing properties:

* parallel execution is *bit-identical* to serial execution (after
  stable serialization) for the same grid;
* a warm cache serves a sweep without spawning any worker process;
* the fingerprint changes when any ``RunConfig`` field changes,
  including fields of the nested ``CommModel``/``DGCConfig``/cluster
  dataclasses;
* corrupted cache entries are discarded, never fatal.
"""

import dataclasses
import functools
import json
import multiprocessing
import os

import pytest

import repro.experiments.executor as executor_module
from repro.core.runner import RunConfig
from repro.experiments.config import mini_accuracy_config, timing_config
from repro.experiments.executor import (
    RunCache,
    SweepExecutor,
    config_fingerprint,
    default_executor,
    run_sweep,
    set_default_executor,
)
from repro.experiments.artefact import artefact, render, run_artefact
from repro.experiments.session import RunPolicy, SweepInterrupted
from repro.io import to_jsonable
from repro.optimizations.dgc import DGCConfig
from repro.sim.costmodel import CommModel


def tiny_timing(algo="bsp", n=1, **overrides):
    return timing_config(
        algo, num_workers=n, measure_iters=2, warmup_iters=1, **overrides
    )


def tiny_grid():
    return [
        tiny_timing(algo, n) for algo in ("bsp", "ad-psgd") for n in (1, 2)
    ]


def stable(results):
    """Stable serialization used for bit-identity comparisons."""
    return [json.dumps(to_jsonable(r), sort_keys=True) for r in results]


_REAL_EXECUTE = executor_module._execute_payload


@functools.lru_cache(maxsize=None)
def _reference_results():
    """``tiny_grid()`` through the plain in-process loop, once."""
    return tuple(SweepExecutor(jobs=1, cache=False).map(tiny_grid()))


class TestFingerprint:
    def test_deterministic_across_constructions(self):
        assert config_fingerprint(tiny_timing()) == config_fingerprint(tiny_timing())

    def test_every_top_level_field_matters(self):
        base = tiny_timing()
        for override in (
            {"seed": 1},
            {"warmup_iters": 0},
            {"measure_iters": 3},
            {"batch_size": 64},
            {"profile_name": "vgg16"},
            {"wait_free_bp": True},
            {"speed_spread": 0.06},
        ):
            changed = dataclasses.replace(base, **override)
            assert config_fingerprint(changed) != config_fingerprint(base), override

    def test_nested_comm_model_matters(self):
        base = tiny_timing()
        changed = dataclasses.replace(
            base, comm_model=CommModel(agg_seconds_per_byte=2.0 / 1e9)
        )
        assert config_fingerprint(changed) != config_fingerprint(base)

    def test_nested_dgc_config_matters(self):
        base = tiny_timing(dgc=True, dgc_config=DGCConfig(num_workers=1))
        changed = dataclasses.replace(
            base, dgc_config=DGCConfig(num_workers=1, final_ratio=0.01)
        )
        assert config_fingerprint(changed) != config_fingerprint(base)

    def test_nested_cluster_matters(self):
        a = tiny_timing(bandwidth_gbps=10.0)
        b = tiny_timing(bandwidth_gbps=56.0)
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_full_mode_config_fingerprints(self):
        a = mini_accuracy_config("bsp", num_workers=2, epochs=1.0)
        b = mini_accuracy_config("bsp", num_workers=2, epochs=1.0, seed=1)
        assert config_fingerprint(a) == config_fingerprint(
            mini_accuracy_config("bsp", num_workers=2, epochs=1.0)
        )
        assert config_fingerprint(a) != config_fingerprint(b)


class TestParallelSerialParity:
    def test_parallel_bit_identical_to_serial(self):
        grid = tiny_grid()
        serial = SweepExecutor(jobs=1, cache=False).map(grid)
        parallel = SweepExecutor(jobs=4, cache=False).map(grid)
        assert stable(serial) == stable(parallel)

    def test_fig2_grid_identical_through_driver(self, tmp_path):
        kwargs = dict(
            algorithms=("bsp", "ad-psgd"),
            worker_counts=(1, 2),
            bandwidths=(10.0,),
            measure_iters=2,
        )
        fig2 = artefact("fig2")
        serial = run_artefact(fig2, executor=SweepExecutor(jobs=1, cache=False), **kwargs)
        parallel = run_artefact(fig2, executor=SweepExecutor(jobs=4, cache=False), **kwargs)
        assert stable([serial.results]) == stable([parallel.results])
        assert serial.values == parallel.values
        assert render(serial) == render(parallel)

    def test_results_align_with_submission_order(self):
        grid = [tiny_timing("bsp", n) for n in (2, 1, 4)]
        results = SweepExecutor(jobs=4, cache=False).map(grid)
        assert [r.num_workers for r in results] == [2, 1, 4]

    def test_full_mode_history_parity_and_config_reattached(self, tmp_path):
        grid = [
            mini_accuracy_config("bsp", num_workers=2, epochs=1.0, seed=s)
            for s in (0, 1)
        ]
        serial = SweepExecutor(jobs=1, cache=False).map(grid)
        parallel = SweepExecutor(jobs=2, cache=False).map(grid)
        assert stable(serial) == stable(parallel)
        for cfg, history in zip(grid, parallel):
            assert history.metadata["config"] is cfg
            assert history.metadata["total_messages"] > 0


class TestRunCache:
    def test_warm_sweep_executes_nothing(self, tmp_path):
        grid = tiny_grid()
        cold = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        cold_results = cold.map(grid)
        assert cold.last_stats.executed == len(grid)
        warm = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        warm_results = warm.map(grid)
        assert warm.last_stats.executed == 0
        assert warm.last_stats.cache_hits == len(grid)
        assert stable(cold_results) == stable(warm_results)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_run_leaves_its_config_unchanged(self, tmp_path, jobs):
        """SSP without an explicit staleness runs at its default without
        writing it into the caller's config, so a second map of the same
        config objects finds every result in the cache."""
        grid = [tiny_timing("ssp", 2, algorithm_params={})]
        fingerprints = [config_fingerprint(cfg) for cfg in grid]
        SweepExecutor(jobs=jobs, cache=True, cache_dir=tmp_path).map(grid)
        assert grid[0].algorithm_params == {}
        assert [config_fingerprint(cfg) for cfg in grid] == fingerprints
        warm = SweepExecutor(jobs=jobs, cache=True, cache_dir=tmp_path)
        warm.map(grid)
        assert (warm.last_stats.executed, warm.last_stats.cache_hits) == (0, len(grid))

    def test_cache_hit_spawns_no_worker_processes(self, tmp_path, monkeypatch):
        grid = tiny_grid()
        SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path).map(grid)

        def _forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool spawned on a fully warm cache")

        monkeypatch.setattr(executor_module, "_process_pool", _forbidden)
        warm = SweepExecutor(jobs=4, cache=True, cache_dir=tmp_path)
        results = warm.map(grid)
        assert len(results) == len(grid)
        assert warm.last_stats.executed == 0

    def test_corrupted_entry_discarded_not_fatal(self, tmp_path):
        grid = [tiny_timing()]
        ex = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        ex.map(grid)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{ this is not json")
        again = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        results = again.map(grid)
        assert again.last_stats.executed == 1  # treated as a miss
        assert results[0].measured_images > 0
        # The bad entry was replaced by a valid one.
        assert again.map(grid) and again.last_stats.cache_hits == 1

    def test_mismatched_fingerprint_entry_discarded(self, tmp_path):
        grid = [tiny_timing()]
        ex = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        ex.map(grid)
        (entry,) = tmp_path.glob("*.json")
        payload = json.loads(entry.read_text())
        payload["fingerprint"] = "0" * 64
        entry.write_text(json.dumps(payload))
        again = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        again.map(grid)
        assert again.last_stats.executed == 1

    def test_wrong_kind_entry_discarded(self, tmp_path):
        fp = config_fingerprint(tiny_timing())
        cache = RunCache(tmp_path)
        (tmp_path / f"{fp}.json").write_text(
            json.dumps({"fingerprint": fp, "kind": "bogus", "data": {}})
        )
        assert cache.get(fp) is None
        assert not (tmp_path / f"{fp}.json").exists()

    def test_bad_entries_quarantined_as_evidence(self, tmp_path):
        """Corrupt entries move to .corrupt/, they are not deleted."""
        grid = [tiny_timing()]
        ex = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        ex.map(grid)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{ this is not json")
        again = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        again.map(grid)
        assert again.last_stats.quarantined == 1
        assert again.last_stats.executed == 1
        quarantined = list((tmp_path / ".corrupt").iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].read_text() == "{ this is not json"
        # Repeated corruption of the same entry keeps distinct evidence.
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("also not json")
        third = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        third.map(grid)
        assert third.last_stats.quarantined == 1
        assert len(list((tmp_path / ".corrupt").iterdir())) == 2

    def test_quarantined_entries_never_served(self, tmp_path):
        """The sidecar sits outside the lookup path for good."""
        grid = [tiny_timing()]
        ex = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        ex.map(grid)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("junk")
        SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path).map(grid)
        warm = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        warm.map(grid)
        assert warm.last_stats.cache_hits == 1
        assert warm.last_stats.quarantined == 0

    def test_duplicate_configs_run_once_distinct_objects(self, tmp_path):
        cfg = tiny_timing()
        ex = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        a, b = ex.map([cfg, dataclasses.replace(cfg)])
        assert ex.last_stats.executed == 1
        assert ex.last_stats.total == 2
        assert a is not b
        assert stable([a]) == stable([b])

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = RunCache()
        assert cache.root == tmp_path / "envcache"


class TestExecutorPlumbing:
    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)

    def test_run_sweep_convenience(self, tmp_path):
        results = run_sweep([tiny_timing()], jobs=1, cache_dir=tmp_path)
        assert results[0].throughput > 0

    def test_default_executor_is_serial_and_cache_free(self):
        set_default_executor(None)
        ex = default_executor()
        assert ex.jobs == 1
        assert ex.cache is None

    def test_set_default_executor(self, tmp_path):
        custom = SweepExecutor(jobs=2, cache=True, cache_dir=tmp_path)
        set_default_executor(custom)
        try:
            assert default_executor() is custom
        finally:
            set_default_executor(None)

    def test_non_dataclass_rejected_by_fingerprint(self):
        with pytest.raises(TypeError):
            config_fingerprint(object())  # type: ignore[arg-type]


def test_runconfig_is_picklable_for_pools():
    import pickle

    cfg = tiny_timing(dgc=True, dgc_config=DGCConfig(num_workers=1))
    clone = pickle.loads(pickle.dumps(cfg))
    assert isinstance(clone, RunConfig)
    assert config_fingerprint(clone) == config_fingerprint(cfg)


class _FakePool:
    """Runs submissions on the spot; a subclass says which futures
    report a dead pool instead of a result."""

    instances = 0

    def __init__(self, *args, **kwargs):
        type(self).instances += 1
        self.generation = type(self).instances
        self.submitted = 0

    def broken(self) -> bool:
        raise NotImplementedError

    def submit(self, fn, *args):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        future = Future()
        self.submitted += 1
        if self.broken():
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


class TestBrokenPoolRecovery:
    """A dying worker pool must never kill a sweep: retry on a fresh
    pool, then finish in-process — in the one scheduling loop."""

    @staticmethod
    def _install(monkeypatch, pool_cls):
        """Swap the pool class in, and count the runs really executed."""
        executed = []

        def counting(cfg):
            executed.append(config_fingerprint(cfg))
            return _REAL_EXECUTE(cfg)

        monkeypatch.setattr(executor_module, "_process_pool", pool_cls)
        monkeypatch.setattr(executor_module, "_execute_payload", counting)
        return executed

    def test_serial_fallback_after_repeated_pool_death(self, monkeypatch):
        class DeadPool(_FakePool):
            instances = 0

            def broken(self):
                return True

        executed = self._install(monkeypatch, DeadPool)
        grid = tiny_grid()
        lines = []
        ex = SweepExecutor(jobs=4, cache=False, progress=lines.append)
        results = ex.map(grid)
        assert executed == [config_fingerprint(cfg) for cfg in grid]
        assert stable(results) == stable(_reference_results())
        # Two rebuilds, then the in-process pool: three dead pools in all.
        assert DeadPool.instances == 3
        assert [line for line in lines if "pool" in line] == [
            "  worker pool died; retrying 4 run(s) on a fresh pool (1/2)",
            "  worker pool died; retrying 4 run(s) on a fresh pool (2/2)",
            "  worker pool died 3 time(s); running 4 remaining run(s) serially",
        ]
        done = [line for line in lines if "done in" in line]
        assert [line.split("]")[0] for line in done] == [
            "  [1/4", "  [2/4", "  [3/4", "  [4/4",
        ]
        # Pool deaths are nobody's fault: no attempt was charged.
        assert not any("attempt" in line for line in lines)
        assert ex.last_stats.retried == 0 and ex.last_stats.failed == 0
        assert ex.last_stats.executed == len(grid)

    def test_retry_keeps_collected_results(self, monkeypatch):
        class FlakyPool(_FakePool):
            instances = 0

            def broken(self):
                # The first pool dies after delivering one result.
                return self.generation == 1 and self.submitted > 1

        executed = self._install(monkeypatch, FlakyPool)
        grid = tiny_grid()
        lines = []
        ex = SweepExecutor(jobs=4, cache=False, progress=lines.append)
        results = ex.map(grid)
        assert FlakyPool.instances == 2  # one death, one successful retry
        # The banked cell was not run again.
        assert sorted(executed) == sorted(config_fingerprint(cfg) for cfg in grid)
        assert stable(results) == stable(_reference_results())
        # One result was banked before the pool died: only the
        # remaining three runs are retried, none of them charged.
        assert [line for line in lines if "pool" in line] == [
            "  worker pool died; retrying 3 run(s) on a fresh pool (1/2)"
        ]
        assert not any("serially" in line or "attempt" in line for line in lines)
        assert ex.last_stats.retried == 0


def _fail_marked_cell(config):
    """Top-level (so a forked pool worker can unpickle it) stand-in for
    ``_execute_payload``: the cell named by the environment raises."""
    if os.environ.get("REPRO_TEST_FAILING_CELL") == config_fingerprint(config):
        raise RuntimeError("flaky cell")
    return _REAL_EXECUTE(config)


class TestOneLoop:
    """Every combination of jobs / policy / session runs the same loop
    and differs only in what it does about a failing run."""

    @pytest.mark.parametrize("durable", [False, True])
    @pytest.mark.parametrize("policy", [None, RunPolicy(max_attempts=1)])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_path_gives_the_same_results(self, tmp_path, jobs, policy, durable):
        grid = tiny_grid()
        ex = SweepExecutor(
            jobs=jobs,
            cache=False,
            policy=policy,
            durable=durable,
            session_root=tmp_path / "sessions",
        )
        results = ex.map(grid)
        assert stable(results) == stable(_reference_results())
        assert ex.last_stats.executed == len(grid)
        assert (ex.last_session is not None) == durable

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_plain_sweep_banks_each_result_and_reraises(
        self, tmp_path, monkeypatch, jobs
    ):
        """No policy, no session: the run's own exception comes out of
        map(), and what finished before it is already in the cache."""
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers inherit the stand-in through fork")
        grid = tiny_grid()
        monkeypatch.setattr(executor_module, "_execute_payload", _fail_marked_cell)
        monkeypatch.setenv("REPRO_TEST_FAILING_CELL", config_fingerprint(grid[2]))
        ex = SweepExecutor(jobs=jobs, cache=True, cache_dir=tmp_path)
        with pytest.raises(RuntimeError, match="flaky cell"):
            ex.map(grid)
        banked = len(list(tmp_path.glob("*.json")))
        # Cell 2 is submitted only once a slot frees up, i.e. after at
        # least one earlier cell was banked; in-process, after both.
        assert banked >= 1 if jobs > 1 else banked == 2
        monkeypatch.delenv("REPRO_TEST_FAILING_CELL")
        again = SweepExecutor(jobs=jobs, cache=True, cache_dir=tmp_path)
        results = again.map(grid)
        assert again.last_stats.cache_hits == banked
        assert again.last_stats.executed == len(grid) - banked
        assert stable(results) == stable(_reference_results())

    def test_plain_sweep_honours_request_stop(self, tmp_path):
        grid = tiny_grid()
        ex = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        seen = []

        def stop_after_two(line):
            seen.append(line)
            if sum("done in" in s for s in seen) == 2:
                ex.request_stop("enough")

        ex.progress = stop_after_two
        with pytest.raises(SweepInterrupted) as excinfo:
            ex.map(grid)
        assert excinfo.value.session_id is None
        assert (excinfo.value.done, excinfo.value.remaining) == (2, 2)
        assert "re-run the same command" in excinfo.value.resume_command
        again = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path)
        again.map(grid)
        assert again.last_stats.cache_hits == 2


class TestSweepTelemetry:
    def test_stats_wall_time_and_summary(self, tmp_path):
        ex = SweepExecutor(jobs=1, cache_dir=tmp_path)
        ex.map([tiny_timing()])
        stats = ex.last_stats
        assert stats.executed == 1
        assert stats.wall_time > 0
        line = stats.summary()
        assert "1 run(s)" in line and "executed" in line

    def test_stats_to_dict_round_trips_json(self, tmp_path):
        ex = SweepExecutor(jobs=1, cache_dir=tmp_path)
        ex.map([tiny_timing()])
        d = json.loads(json.dumps(to_jsonable(ex.last_stats)))
        assert d["total"] == 1 and d["executed"] == 1
        assert set(d) == {
            "total", "unique", "cache_hits", "executed", "jobs",
            "wall_time", "failed", "retried", "deadline_kills",
            "quarantined", "attribution",
        }
        # Timing runs carry breakdowns: the sweep attribution rides along.
        assert "bsp" in d["attribution"]
        assert d["attribution"]["bsp"]["runs"] == 1

    def test_total_stats_accumulate_across_sweeps(self, tmp_path):
        ex = SweepExecutor(jobs=1, cache_dir=tmp_path)
        ex.map([tiny_timing()])
        ex.map([tiny_timing()])  # warm: served from cache
        assert ex.total_stats.total == 2
        assert ex.total_stats.executed == 1
        assert ex.total_stats.cache_hits == 1
        assert ex.total_stats.wall_time >= ex.last_stats.wall_time

    def test_progress_lines_emitted(self, tmp_path):
        lines = []
        ex = SweepExecutor(jobs=1, cache_dir=tmp_path, progress=lines.append)
        ex.map([tiny_timing(), tiny_timing("ad-psgd", 2)])
        assert any(line.startswith("sweep:") for line in lines)
        per_run = [line for line in lines if "done" in line]
        assert len(per_run) == 2
        assert any("bsp/timing" in line for line in per_run)

    def test_progress_silent_on_warm_cache_runs(self, tmp_path):
        ex = SweepExecutor(jobs=1, cache_dir=tmp_path)
        ex.map([tiny_timing()])
        lines = []
        ex.progress = lines.append
        ex.map([tiny_timing()])
        assert len(lines) == 1  # the sweep header only; nothing executed
        assert "0 to execute" in lines[0]

    def test_progress_never_affects_results(self, tmp_path):
        grid = tiny_grid()
        quiet = SweepExecutor(jobs=1, cache=False).map(grid)
        chatty = SweepExecutor(
            jobs=1, cache=False, progress=lambda line: None
        ).map(grid)
        assert stable(quiet) == stable(chatty)

    def test_empty_sweep_emits_nothing(self, tmp_path):
        lines = []
        ex = SweepExecutor(jobs=1, cache_dir=tmp_path, progress=lines.append)
        assert ex.map([]) == []
        assert lines == []
