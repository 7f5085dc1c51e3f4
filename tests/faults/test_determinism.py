"""Fault injection is deterministic and fault-free runs are untouched.

Two contracts:

* **replay** — the same (run seed, fault seed, schedule) reproduces a
  byte-identical result, even for a chaotic schedule mixing crashes,
  rejoins, degrades, partitions and probabilistic drops;
* **isolation** — fault randomness lives on its own RNG stream, so a
  run with ``faults=None`` is bit-identical to the pre-fault simulator
  (pinned digests in tests/obs/test_zero_overhead.py) and an *empty*
  fault config perturbs nothing but the heartbeat traffic.
"""

from repro.core.runner import execute_run
from repro.faults.config import FaultConfig, FaultEvent
from repro.io import to_jsonable

from tests.conftest import small_full_config, small_timing_config

# Detection parameters fast enough for the ~0.2s-virtual-time mini runs.
DETECTION = dict(
    heartbeat_interval=0.002,
    heartbeat_timeout=0.01,
    backoff_factor=1.5,
    max_suspect_rounds=1,
)


def chaos_config(t0: float, seed: int = 0) -> FaultConfig:
    """Every fault kind at once, timed as fractions of the fault-free
    runtime ``t0`` so each one lands mid-run."""
    return FaultConfig(
        events=(
            FaultEvent(
                time=0.30 * t0, kind="crash", worker=3, rejoin_after=0.2 * t0
            ),
            FaultEvent(
                time=0.15 * t0,
                kind="link_degrade",
                machine=1,
                duration=0.2 * t0,
                rate_fraction=0.25,
            ),
            FaultEvent(
                time=0.55 * t0, kind="partition", machine=1, duration=0.05 * t0
            ),
            FaultEvent(
                time=0.70 * t0, kind="drop", machine=1, duration=0.2 * t0,
                drop_prob=0.3,
            ),
        ),
        seed=seed,
        **DETECTION,
    )


class TestReplay:
    def test_full_mode_chaos_is_byte_identical(self):
        t0 = execute_run(small_full_config("bsp")).total_virtual_time
        cfg = small_full_config("bsp", faults=chaos_config(t0))
        first = to_jsonable(execute_run(cfg))
        second = to_jsonable(execute_run(cfg))
        assert first == second
        assert first["metadata"]["faults"]["events_applied"] == 4

    def test_timing_mode_crash_is_byte_identical(self):
        t0 = execute_run(small_timing_config("asp")).measured_time
        faults = FaultConfig(
            events=(FaultEvent(time=0.4 * t0, kind="crash", worker=7),),
            heartbeat_interval=0.01,
            heartbeat_timeout=0.02,
            backoff_factor=1.0,
            max_suspect_rounds=0,
        )
        cfg = small_timing_config("asp", faults=faults)
        assert to_jsonable(execute_run(cfg)) == to_jsonable(execute_run(cfg))


class TestIsolation:
    def test_fault_free_rerun_is_byte_identical(self):
        cfg = small_full_config("gosgd")
        assert to_jsonable(execute_run(cfg)) == to_jsonable(execute_run(cfg))

    def test_empty_schedule_changes_no_training_outcome(self):
        """Heartbeats ride the out-of-band network and fault RNG draws
        come from a dedicated stream: an empty schedule must leave the
        learning trajectory untouched."""
        plain = execute_run(small_full_config("bsp"))
        guarded = execute_run(
            small_full_config("bsp", faults=FaultConfig(**DETECTION))
        )
        assert guarded.metadata["faults"]["evictions"] == []
        assert guarded.final_test_accuracy == plain.final_test_accuracy
        assert guarded.train_loss == plain.train_loss
        assert guarded.test_accuracy == plain.test_accuracy
