"""Observability must be invisible when off — and side-effect-free when on.

Two guarantees protect the seed results:

* **fingerprint stability** — ``ObsConfig`` lives outside
  :class:`~repro.core.runner.RunConfig`, so enabling observability can
  never change a run's content address. The pinned digests below are
  the seed values; if either changes, cached sweeps are invalidated
  and this PR broke the contract.
* **result identity** — an instrumented run must produce bit-identical
  histories/timings to the uninstrumented path (observation only,
  never perturbation).
"""

from dataclasses import fields

from repro.core.runner import DistributedRunner, RunConfig, execute_run
from repro.experiments.config import mini_accuracy_config, timing_config
from repro.experiments.executor import config_fingerprint
from repro.io import to_jsonable
from repro.obs import ObsConfig

from tests.conftest import small_full_config, small_timing_config

def _two_racks():
    from repro.sim.cluster import hierarchical_cluster

    return hierarchical_cluster(
        machines=8, machines_per_rack=4, bandwidth_gbps=10
    )


# Seed fingerprints pinned before the observability layer existed.
PINNED = {
    "timing": (
        lambda: timing_config(
            "bsp", num_workers=4, bandwidth_gbps=10.0, measure_iters=5
        ),
        "10622258f562719a54592269510312fb5b085f908a653e16c67a3f53438a5288",
    ),
    "accuracy": (
        lambda: mini_accuracy_config("asp", num_workers=4, epochs=2.0),
        "54129b05a069b43896c86d64ef5dc686d8d44a08816afe0cf6cd7ea1568acb31",
    ),
}


class TestFingerprintStability:
    def test_run_config_has_no_obs_field(self):
        names = {f.name for f in fields(RunConfig)}
        assert not any("obs" in name for name in names)

    def test_pinned_seed_fingerprints(self):
        for make, expected in PINNED.values():
            assert config_fingerprint(make()) == expected

    def test_faults_none_is_omitted_from_fingerprint(self):
        """``faults=None`` (the default) must hash identically to a
        config minted before the faults field existed — otherwise the
        fault-injection PR silently invalidates every cached sweep."""
        make, expected = PINNED["timing"]
        cfg = make()
        assert cfg.faults is None
        assert config_fingerprint(cfg) == expected

    def test_fault_config_changes_fingerprint(self):
        from dataclasses import replace

        from repro.faults.config import FaultConfig, FaultEvent

        make, expected = PINNED["timing"]
        faulted = replace(
            make(),
            faults=FaultConfig(
                events=(FaultEvent(time=1.0, kind="crash", worker=0),)
            ),
        )
        fp = config_fingerprint(faulted)
        assert fp != expected
        # ...and the schedule itself is part of the address.
        refaulted = replace(
            make(),
            faults=FaultConfig(
                events=(FaultEvent(time=2.0, kind="crash", worker=0),)
            ),
        )
        assert config_fingerprint(refaulted) != fp

    def test_rack_none_is_omitted_from_event_fingerprint(self):
        """``FaultEvent.rack=None`` (the default) must hash identically
        to an event minted before the fabric-fault kinds existed — the
        rack-failure-domain PR must not invalidate any cached faulted
        sweep. The digest below was pinned before ``rack`` was added."""
        from repro.faults.config import FaultConfig, FaultEvent

        faulted = timing_config(
            "bsp",
            num_workers=8,
            measure_iters=5,
            faults=FaultConfig(
                events=(
                    FaultEvent(time=0.05, kind="crash", worker=3),
                    FaultEvent(time=0.02, kind="partition", machine=1,
                               duration=0.01),
                ),
                seed=7,
                heartbeat_interval=0.01,
                heartbeat_timeout=0.02,
                backoff_factor=1.0,
                max_suspect_rounds=0,
            ),
        )
        assert config_fingerprint(faulted) == (
            "0c2fff6805ca8a70888caf12c52c6b9986c8395253477be8d5ede8c7048b01e6"
        )

    def test_rack_changes_event_fingerprint(self):
        from repro.faults.config import FaultConfig, FaultEvent

        def fp(rack):
            return config_fingerprint(
                timing_config(
                    "bsp",
                    num_workers=32,
                    faults=FaultConfig(
                        events=(
                            FaultEvent(time=0.1, kind="rack_outage",
                                       rack=rack),
                        ),
                    ),
                    cluster=_two_racks(),
                )
            )

        assert fp(0) != fp(1)

    def test_robust_none_is_omitted_from_fingerprint(self):
        """``robust=None`` (the default) must hash identically to a
        config minted before the robust field existed — the robustness
        PR must not invalidate any cached sweep."""
        for make, expected in PINNED.values():
            cfg = make()
            assert cfg.robust is None
            assert config_fingerprint(cfg) == expected

    def test_robust_config_changes_fingerprint(self):
        from dataclasses import replace

        from repro.robust.config import RobustConfig

        make, expected = PINNED["timing"]
        protected = replace(make(), robust=RobustConfig(aggregator="median"))
        fp = config_fingerprint(protected)
        assert fp != expected
        # ...and the rule itself is part of the address.
        reprotected = replace(make(), robust=RobustConfig(aggregator="krum"))
        assert config_fingerprint(reprotected) != fp


class TestResultIdentity:
    def test_observer_absent_unless_enabled(self):
        cfg = small_timing_config("bsp")
        assert DistributedRunner(cfg).observer is None
        assert DistributedRunner(cfg, obs=ObsConfig(enabled=False)).observer is None
        assert DistributedRunner(cfg, obs=ObsConfig(enabled=True)).observer is not None

    def test_timing_run_identical_with_obs_on(self):
        cfg = small_timing_config("bsp")
        plain = to_jsonable(execute_run(cfg))
        observed = to_jsonable(DistributedRunner(cfg, obs=ObsConfig(enabled=True)).run())
        assert observed == plain

    def test_full_run_identical_with_obs_on(self):
        cfg = small_full_config("asp")
        plain = to_jsonable(execute_run(cfg))
        observed = to_jsonable(DistributedRunner(cfg, obs=ObsConfig(enabled=True)).run())
        assert observed == plain

    def test_plain_mean_robust_layer_changes_no_outcome(self):
        """``RobustConfig(aggregator="mean")`` with no screening and no
        guard arms only passive accounting: the learning trajectory must
        match the unprotected run exactly."""
        from dataclasses import replace

        from repro.robust.config import RobustConfig

        cfg = small_full_config("bsp")
        plain = execute_run(cfg)
        passive = execute_run(replace(cfg, robust=RobustConfig(aggregator="mean")))
        assert passive.final_test_accuracy == plain.final_test_accuracy
        assert passive.train_loss == plain.train_loss
        assert passive.test_accuracy == plain.test_accuracy
        assert passive.metadata["robust"]["rejections"] == {}
