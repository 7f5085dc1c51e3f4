"""Rack-scale failure domains: fabric faults, correlated crashes, recovery.

The ISSUE acceptance criteria, one class each:

* **validation** — fabric events are rejected on flat fabrics and when
  they target machines/workers/racks the cluster does not have; no
  silent no-op events;
* **rack link model** — ToR partitions and flapping uplinks hit only
  traffic that crosses the rack boundary;
* **survival** — a worker crash, a rack-leader crash and a full rack
  outage each let AR-SGD (tree and hring) and BSP (ps_topology=tree)
  complete with shrunk membership, at N=32 and (rack outage) N=64;
* **determinism** — a rack-outage schedule replays byte-identically,
  fabric schedules survive JSON save/load bit-identically, and the
  pre-fabric *flat* fault digests below are pinned: a change there
  means the rack-aware code leaked into flat runs.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.runner import execute_run
from repro.experiments.config import timing_config
from repro.faults.config import FaultConfig, FaultEvent
from repro.faults.netfaults import LinkFaultModel
from repro.io import from_jsonable, to_jsonable
from repro.sim.cluster import hierarchical_cluster

# Fast failure detection sized for the short test runs.
DETECTION = dict(
    heartbeat_interval=0.01,
    heartbeat_timeout=0.02,
    backoff_factor=1.0,
    max_suspect_rounds=0,
)

# The three hierarchical protocol variants the tentpole must keep alive.
HIER_CELLS = (
    ("ar-sgd/tree", "ar-sgd", {"collective": "tree"}),
    ("ar-sgd/hring", "ar-sgd", {"collective": "hring"}),
    ("bsp/tree", "bsp", {"ps_topology": "tree"}),
)


def hier_config(algorithm, *, num_workers=32, machines_per_rack=4, faults=None,
                **overrides):
    """Timing config on a leaf/spine cluster (4 workers per machine)."""
    cluster = hierarchical_cluster(
        machines=num_workers // 4,
        machines_per_rack=machines_per_rack,
        oversubscription=4.0,
        bandwidth_gbps=10,
    )
    return timing_config(
        algorithm,
        num_workers=num_workers,
        cluster=cluster,
        measure_iters=3,
        warmup_iters=1,
        trace=False,
        faults=faults,
        **overrides,
    )


_baseline_cache: dict[str, float] = {}


def baseline_time(label: str, algorithm: str, overrides: dict,
                  num_workers: int = 32) -> float:
    key = f"{label}@{num_workers}"
    if key not in _baseline_cache:
        cfg = hier_config(algorithm, num_workers=num_workers, **overrides)
        _baseline_cache[key] = execute_run(cfg).measured_time
    return _baseline_cache[key]


# ---------------------------------------------------------------------------
# validation: no silent no-op events


# case -> (event, on a hierarchical cluster, the error it raises)
TARGET_CASES = {
    "worker": (
        FaultEvent(time=0.1, kind="crash", worker=99),
        False,
        "targets worker 99, but the run has 8 workers",
    ),
    "machine": (
        FaultEvent(time=0.1, kind="partition", machine=64, duration=0.1),
        False,
        "targets machine 64, but the cluster has",
    ),
    "fabric-on-flat": (
        FaultEvent(time=0.1, kind="tor_outage", rack=0, duration=0.1),
        False,
        "tor_outage fault events need a hierarchical cluster",
    ),
    "rack": (
        FaultEvent(time=0.1, kind="rack_outage", rack=7),
        True,
        "targets rack 7, but the cluster has 2 racks",
    ),
}


class TestFabricEventValidation:
    @pytest.mark.parametrize("route", ["config", "controller"])
    @pytest.mark.parametrize("case", list(TARGET_CASES))
    def test_each_target_check_on_both_routes(self, case, route):
        """RunConfig and the fault controller run the same four checks:
        at construction, and at start for a schedule swapped in after."""
        event, hierarchical, message = TARGET_CASES[case]

        def build(faults):
            if hierarchical:
                return hier_config("bsp", faults=faults)
            return timing_config("bsp", num_workers=8, faults=faults)

        bad = FaultConfig(events=(event,), **DETECTION)
        if route == "config":
            with pytest.raises(ValueError, match=message):
                build(bad)
        else:
            cfg = build(FaultConfig(**DETECTION))
            cfg.faults = bad
            with pytest.raises(ValueError, match=message):
                execute_run(cfg)

    def test_fabric_kinds_rejected_on_flat_cluster(self):
        event = FaultEvent(time=0.1, kind="tor_outage", rack=0, duration=0.1)
        with pytest.raises(ValueError, match="hierarchical"):
            timing_config(
                "bsp", num_workers=8, faults=FaultConfig(events=(event,))
            )

    def test_rack_out_of_range_rejected(self):
        event = FaultEvent(time=0.1, kind="rack_outage", rack=7)
        with pytest.raises(ValueError, match="rack"):
            hier_config("bsp", faults=FaultConfig(events=(event,)))

    def test_worker_out_of_range_rejected(self):
        bad = FaultConfig(
            events=(FaultEvent(time=0.1, kind="crash", worker=99),),
            **DETECTION,
        )
        with pytest.raises(ValueError, match="worker"):
            timing_config("bsp", num_workers=8, faults=bad)
        # A schedule smuggled past RunConfig validation (internals may
        # swap configs without re-validating) is re-checked at start.
        cfg = timing_config(
            "bsp", num_workers=8, faults=FaultConfig(**DETECTION)
        )
        cfg.faults = bad
        with pytest.raises(ValueError, match="worker"):
            execute_run(cfg)

    def test_machine_out_of_range_rejected(self):
        bad = FaultConfig(
            events=(
                FaultEvent(time=0.1, kind="partition", machine=64,
                           duration=0.1),
            ),
            **DETECTION,
        )
        with pytest.raises(ValueError, match="machine"):
            timing_config("bsp", num_workers=8, faults=bad)
        cfg = timing_config(
            "bsp", num_workers=8, faults=FaultConfig(**DETECTION)
        )
        cfg.faults = bad
        with pytest.raises(ValueError, match="machine"):
            execute_run(cfg)

    def test_outage_of_workerless_scope_rejected(self):
        """8 workers fill machines 0–1 of an 8-machine fabric: an outage
        of empty rack 1 (or empty machine 5) would silently no-op."""
        cluster = hierarchical_cluster(
            machines=8, machines_per_rack=4, bandwidth_gbps=10
        )

        def cfg(event):
            return timing_config(
                "bsp",
                num_workers=8,
                cluster=cluster,
                faults=FaultConfig(events=(event,), **DETECTION),
            )

        with pytest.raises(ValueError, match="no workers"):
            execute_run(cfg(FaultEvent(time=0.1, kind="rack_outage", rack=1)))
        with pytest.raises(ValueError, match="no workers"):
            execute_run(
                cfg(FaultEvent(time=0.1, kind="machine_outage", machine=5))
            )


# ---------------------------------------------------------------------------
# rack-scoped link windows


class TestRackLinkModel:
    def make(self):
        model = LinkFaultModel(np.random.default_rng(0))
        model.rack_of = lambda machine: machine // 2  # racks of two machines
        return model

    def test_tor_partition_delays_cross_rack_only(self):
        model = self.make()
        model.rack_partition(1, until=5.0)
        # machine 0 (rack 0) -> machine 2 (rack 1): held until heal + rto
        assert model.delivery_delay(0, 2, 100, now=2.0, rto=0.5) == pytest.approx(
            5.0 - 2.0 + 0.5
        )
        # machines 2 -> 3 stay inside rack 1: the leaf backplane is up
        assert model.delivery_delay(2, 3, 100, now=2.0, rto=0.5) == 0.0

    def test_expired_rack_window_purged(self):
        model = self.make()
        model.rack_partition(1, until=5.0)
        assert model.delivery_delay(0, 2, 100, now=6.0, rto=0.5) == 0.0
        assert 1 not in model.rack_partitioned_until

    def test_rack_drop_retransmits_cross_rack_only(self):
        model = self.make()
        model.set_rack_drop(0, until=10.0, prob=0.95)
        delay = model.delivery_delay(0, 2, 100, now=1.0, rto=0.25)
        assert delay > 0.0
        assert model.retransmits == round(delay / 0.25)
        assert model.delivery_delay(0, 1, 100, now=1.0, rto=0.25) == 0.0

    def test_rack_windows_arm_the_fast_path(self):
        model = self.make()
        assert model.armed_until == float("-inf")
        model.rack_partition(0, until=3.0)
        model.set_rack_drop(1, until=7.0, prob=0.5)
        assert model.armed_until == 7.0

    def test_unresolvable_racks_are_ignored(self):
        """Without a rack resolver (flat fabric) rack windows are inert —
        they can only be armed through validated fabric events anyway."""
        model = LinkFaultModel(np.random.default_rng(0))
        model.rack_partition(1, until=5.0)
        assert model.delivery_delay(0, 2, 100, now=2.0, rto=0.5) == 0.0


# ---------------------------------------------------------------------------
# survival: crashes anywhere in the hierarchy


class TestHierarchicalSurvival:
    """N=32 over racks of 4 machines: rack 1 hosts workers 16–31, its
    positional leader is worker 16; worker 4 leads machine 1's group in
    the leader ring/tree."""

    def survivors_run(self, label, algorithm, overrides, events):
        t0 = baseline_time(label, algorithm, overrides)
        faults = FaultConfig(
            events=tuple(e(t0) for e in events), **DETECTION
        )
        cfg = hier_config(algorithm, faults=faults, **overrides)
        return execute_run(cfg)

    @pytest.mark.parametrize("label,algorithm,overrides", HIER_CELLS)
    def test_member_crash_completes(self, label, algorithm, overrides):
        result = self.survivors_run(
            label, algorithm, overrides,
            [lambda t0: FaultEvent(time=0.4 * t0, kind="crash", worker=5)],
        )
        summary = result.metadata["faults"]
        assert [e["worker"] for e in summary["evictions"]] == [5]
        assert summary["final_live_workers"] == [
            w for w in range(32) if w != 5
        ]
        assert result.throughput > 0

    @pytest.mark.parametrize("label,algorithm,overrides", HIER_CELLS)
    def test_leader_crash_completes(self, label, algorithm, overrides):
        """Worker 4 is machine 1's positional leader — its crash forces a
        mid-run leader re-election in the ring/tree (worker 5 takes
        over) and a re-parent in the PS tree."""
        result = self.survivors_run(
            label, algorithm, overrides,
            [lambda t0: FaultEvent(time=0.4 * t0, kind="crash", worker=4)],
        )
        summary = result.metadata["faults"]
        assert [e["worker"] for e in summary["evictions"]] == [4]
        assert result.throughput > 0

    @pytest.mark.parametrize("label,algorithm,overrides", HIER_CELLS)
    def test_rack_outage_completes_with_survivors(self, label, algorithm,
                                                  overrides):
        """A full rack (16 of 32 workers) dies at once; the survivors
        re-form a one-rack hierarchy and finish."""
        result = self.survivors_run(
            label, algorithm, overrides,
            [lambda t0: FaultEvent(time=0.4 * t0, kind="rack_outage", rack=1)],
        )
        summary = result.metadata["faults"]
        assert sorted(e["worker"] for e in summary["evictions"]) == list(
            range(16, 32)
        )
        assert summary["final_live_workers"] == list(range(16))
        assert result.throughput > 0

    @pytest.mark.parametrize("label,algorithm,overrides", HIER_CELLS)
    def test_rack_outage_at_64_workers(self, label, algorithm, overrides):
        """The ISSUE's scale floor: killing one of four racks mid-run at
        N=64 completes with positive throughput on every hierarchical
        protocol variant — no hang, no cascade."""
        t0 = baseline_time(label, algorithm, overrides, num_workers=64)
        faults = FaultConfig(
            events=(FaultEvent(time=0.4 * t0, kind="rack_outage", rack=2),),
            **DETECTION,
        )
        cfg = hier_config(
            algorithm, num_workers=64, faults=faults, **overrides
        )
        result = execute_run(cfg)
        summary = result.metadata["faults"]
        assert sorted(e["worker"] for e in summary["evictions"]) == list(
            range(32, 48)
        )
        assert result.throughput > 0


class TestFabricDegradeFaults:
    """The non-fatal fabric kinds perturb timing, not membership."""

    def run_with(self, make_event):
        label, algorithm, overrides = ("ar-sgd/hring", "ar-sgd",
                                       {"collective": "hring"})
        t0 = baseline_time(label, algorithm, overrides)
        cfg = hier_config(
            algorithm,
            faults=FaultConfig(events=(make_event(t0),), **DETECTION),
            **overrides,
        )
        return execute_run(cfg)

    def test_uplink_degrade_slows_but_evicts_nobody(self):
        result = self.run_with(
            lambda t0: FaultEvent(
                time=0.3 * t0, kind="uplink_degrade", rack=1,
                duration=0.3 * t0, rate_fraction=0.1,
            )
        )
        summary = result.metadata["faults"]
        assert summary["evictions"] == []
        assert summary["final_live_workers"] == list(range(32))
        assert result.throughput > 0

    def test_spine_degrade_slows_but_evicts_nobody(self):
        result = self.run_with(
            lambda t0: FaultEvent(
                time=0.3 * t0, kind="spine_degrade",
                duration=0.3 * t0, rate_fraction=0.25,
            )
        )
        assert result.metadata["faults"]["evictions"] == []
        assert result.throughput > 0

    def test_tor_outage_evicts_the_partitioned_rack(self):
        """Severing rack 1's uplink silences its heartbeats: the monitor
        (rack 0) evicts the whole rack — a correlated failure domain,
        not an isolated crash."""
        result = self.run_with(
            lambda t0: FaultEvent(
                time=0.3 * t0, kind="tor_outage", rack=1, duration=2.0 * t0
            )
        )
        summary = result.metadata["faults"]
        assert sorted(e["worker"] for e in summary["evictions"]) == list(
            range(16, 32)
        )
        assert result.throughput > 0


# ---------------------------------------------------------------------------
# determinism: replay, round-trip, and the flat bit-identical gate


def fabric_chaos_config(t0: float) -> FaultConfig:
    """Every fabric kind at once on a two-rack cluster."""
    return FaultConfig(
        events=(
            FaultEvent(time=0.40 * t0, kind="rack_outage", rack=1),
            FaultEvent(time=0.10 * t0, kind="tor_outage", rack=1,
                       duration=0.05 * t0),
            FaultEvent(time=0.20 * t0, kind="uplink_degrade", rack=0,
                       duration=0.1 * t0, rate_fraction=0.5),
            FaultEvent(time=0.25 * t0, kind="uplink_flap", rack=1,
                       duration=0.1 * t0, drop_prob=0.2),
            FaultEvent(time=0.30 * t0, kind="spine_degrade",
                       duration=0.1 * t0, rate_fraction=0.5),
        ),
        seed=11,
        **DETECTION,
    )


class TestFabricDeterminism:
    def test_rack_outage_replay_is_byte_identical(self):
        label, algorithm, overrides = ("bsp/tree", "bsp",
                                       {"ps_topology": "tree"})
        t0 = baseline_time(label, algorithm, overrides)
        faults = FaultConfig(
            events=(FaultEvent(time=0.4 * t0, kind="rack_outage", rack=1),),
            **DETECTION,
        )
        cfg = hier_config(algorithm, faults=faults, **overrides)
        assert to_jsonable(execute_run(cfg)) == to_jsonable(execute_run(cfg))

    def test_fabric_chaos_replay_is_byte_identical(self):
        label, algorithm, overrides = ("ar-sgd/tree", "ar-sgd",
                                       {"collective": "tree"})
        t0 = baseline_time(label, algorithm, overrides)
        cfg = hier_config(
            algorithm, faults=fabric_chaos_config(t0), **overrides
        )
        first = to_jsonable(execute_run(cfg))
        second = to_jsonable(execute_run(cfg))
        assert first == second
        assert first["metadata"]["faults"]["events_applied"] == 5

    def test_fabric_schedule_json_round_trip(self, tmp_path):
        cfg = fabric_chaos_config(1.0)
        path = tmp_path / "fabric.json"
        cfg.save(path)
        loaded = FaultConfig.load(path)
        assert loaded == cfg
        # Byte-identical re-serialisation: save(load(x)) == x.
        resaved = tmp_path / "fabric2.json"
        loaded.save(resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_rack_field_round_trips_in_dict(self):
        cfg = FaultConfig(
            events=(
                FaultEvent(time=1.0, kind="uplink_flap", rack=3,
                           duration=0.5, drop_prob=0.1),
            ),
        )
        restored = from_jsonable(FaultConfig, to_jsonable(cfg))
        assert restored == cfg
        assert restored.events[0].rack == 3


def run_digest(cfg) -> str:
    # The pins predate metadata["worker_iterations"] (checked in
    # tests/core/test_worker_iterations.py) and metadata["aggregations"]
    # (tests/core/test_ps_pull.py, tests/core/test_adpsgd_exchanges.py);
    # both are left out of the hash.
    document = to_jsonable(execute_run(cfg))
    document["metadata"].pop("worker_iterations")
    document["metadata"].pop("aggregations", None)
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


class TestFlatFaultsStayBitIdentical:
    """Pinned *before* the fabric-fault layer existed: flat fault runs
    must not notice the rack-aware code (RNG draw order, eviction
    cadence, summaries — everything). A change here is a regression in
    the zero-overhead contract, not a number to re-pin."""

    def test_flat_crash_plus_partition_digest(self):
        faults = FaultConfig(
            events=(
                FaultEvent(time=0.05, kind="crash", worker=3),
                FaultEvent(time=0.02, kind="partition", machine=1,
                           duration=0.01),
            ),
            seed=7,
            **DETECTION,
        )
        cfg = timing_config(
            "bsp", num_workers=8, measure_iters=5, faults=faults
        )
        assert run_digest(cfg) == (
            "1ccf4d3cd20813cdfe31d643be4c2504d26844ec99d462920b635666b727b390"
        )

    def test_flat_machine_outage_digest(self):
        """machine_outage predates rack_outage and shares its correlated
        kill-and-respawn path — its cadence must be untouched."""
        faults = FaultConfig(
            events=(
                FaultEvent(time=0.05, kind="machine_outage", machine=1),
            ),
            seed=3,
            heartbeat_interval=0.005,
            heartbeat_timeout=0.01,
            backoff_factor=1.0,
            max_suspect_rounds=0,
        )
        cfg = timing_config(
            "asp", num_workers=8, measure_iters=5, faults=faults
        )
        assert run_digest(cfg) == (
            "0a1a6d0a31e7d6c49070ff4dbc12a9d25f637b19d0abd6a641f2e830e9beda20"
        )
