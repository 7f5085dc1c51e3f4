"""Training-loop guard: NaN detection, rollback, quarantine.

The guarded failure story, end to end: a ``nan_inject`` fault poisons
one worker's gradient; the robust layer detects it at the production
hook, and depending on configuration either

* quarantines the offender immediately (``quarantine_strikes=1``) —
  the poisoned gradient is fenced by the membership epoch and never
  reaches the parameter server; or
* lets the NaN poison the PS (``quarantine_strikes=0`` — counters
  only) and recovers via loss-guard rollback to the last good
  checkpoint.

Either way the run completes with finite losses and accuracy, and the
whole trajectory replays byte-identically.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.runner import execute_run
from repro.faults.config import FaultConfig, FaultEvent
from repro.io import to_jsonable
from repro.robust.config import RobustConfig
from repro.robust.runtime import RobustRuntime

from tests.conftest import small_full_config


@pytest.fixture(scope="module")
def nan_time():
    """Virtual time 30% into the fault-free run — mid-training."""
    base = small_full_config("bsp", local_aggregation=False, epochs=4.0)
    return 0.3 * execute_run(base).total_virtual_time


def guarded_config(nan_time, *, quarantine_strikes):
    base = small_full_config("bsp", local_aggregation=False, epochs=4.0)
    return replace(
        base,
        faults=FaultConfig(
            events=(FaultEvent(time=nan_time, kind="nan_inject", worker=3),)
        ),
        robust=RobustConfig(
            aggregator="mean",
            guard=True,
            checkpoint_interval=10,
            quarantine_strikes=quarantine_strikes,
        ),
    )


class TestQuarantinePath:
    def test_offender_evicted_and_run_finite(self, nan_time):
        res = execute_run(guarded_config(nan_time, quarantine_strikes=1))
        robust = res.metadata["robust"]
        faults = res.metadata["faults"]
        assert robust["quarantines_requested"] == [3]
        assert robust["rejections_by_worker"] == {3: 1}
        assert [q["worker"] for q in faults["quarantines"]] == [3]
        assert faults["final_live_workers"] == [0, 1, 2]
        assert math.isfinite(res.final_test_accuracy)
        # The poisoned gradient was fenced before touching the PS: no
        # rollback was ever needed.
        assert robust["rollbacks"] == 0

    def test_replays_byte_identically(self, nan_time):
        cfg = guarded_config(nan_time, quarantine_strikes=1)
        assert to_jsonable(execute_run(cfg)) == to_jsonable(execute_run(cfg))


class TestRollbackPath:
    def test_nan_detected_rolled_back_and_recovered(self, nan_time):
        res = execute_run(guarded_config(nan_time, quarantine_strikes=0))
        robust = res.metadata["robust"]
        # Quarantine disabled: the NaN reached the PS, the guard
        # detected the poisoned losses and rolled back (possibly more
        # than once while in-flight poison drained).
        assert robust["quarantines_requested"] == []
        assert robust["rollbacks"] >= 1
        assert robust["checkpoints"] >= 1
        assert res.metadata["faults"]["final_live_workers"] == [0, 1, 2, 3]
        assert math.isfinite(res.final_test_accuracy)
        assert all(math.isfinite(x) for x in res.train_loss[-3:])

    def test_replays_byte_identically(self, nan_time):
        cfg = guarded_config(nan_time, quarantine_strikes=0)
        assert to_jsonable(execute_run(cfg)) == to_jsonable(execute_run(cfg))


class TestScreenPeerUnit:
    """screen_peer() on a bare RobustRuntime (no simulator needed)."""

    @pytest.fixture()
    def robust(self):
        class _Engine:
            now = 0.0

            def _immediate(self, fn, args):  # pragma: no cover - not hit
                pass

        class _Runtime:
            engine = _Engine()
            init_params = None
            obs = None
            faults = None

        return RobustRuntime(
            _Runtime(), None, RobustConfig(screen_factor=2.0, quarantine_strikes=0)
        )

    def test_accepts_nearby_peer(self, robust):
        ref = np.array([1.0, 0.0])
        assert robust.screen_peer(None, np.array([1.1, 0.1]), 1, "t", reference=ref)

    def test_rejects_distant_peer(self, robust):
        ref = np.array([1.0, 0.0])
        far = np.array([100.0, 0.0])
        assert not robust.screen_peer(None, far, 1, "t", reference=ref)
        assert robust.rejections == {"t": 1}
        assert robust.rejections_by_worker == {1: 1}

    def test_rejects_non_finite_always(self, robust):
        bad = np.array([np.nan, 0.0])
        assert not robust.screen_peer(None, bad, 2, "t", reference=None)

    def test_none_vector_passes(self, robust):
        assert robust.screen_peer(None, None, 1, "t")

    def test_no_reference_passes_distance_screen(self, robust):
        assert robust.screen_peer(None, np.array([1e9]), 1, "t", reference=None)
