"""FaultConfig / FaultEvent / FaultSchedule validation and round-trips."""

import pytest

from repro.faults.config import (
    FABRIC_FAULT_KINDS,
    FAULT_KINDS,
    GRAD_FAULT_KINDS,
    FaultConfig,
    FaultEvent,
    FaultSchedule,
)
from repro.io import from_jsonable, to_jsonable


class TestFaultEventValidation:
    def test_known_kinds(self):
        assert set(FAULT_KINDS) == {
            "crash",
            "machine_outage",
            "link_degrade",
            "partition",
            "drop",
        } | set(GRAD_FAULT_KINDS) | set(FABRIC_FAULT_KINDS)
        assert set(GRAD_FAULT_KINDS) == {
            "bitflip",
            "grad_scale",
            "sign_flip",
            "nan_inject",
            "byzantine",
        }
        assert set(FABRIC_FAULT_KINDS) == {
            "rack_outage",
            "tor_outage",
            "uplink_degrade",
            "uplink_flap",
            "spine_degrade",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(time=1.0, kind="gremlin")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-0.1, kind="crash", worker=0)

    def test_crash_needs_worker(self):
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, kind="crash")
        FaultEvent(time=1.0, kind="crash", worker=2)  # ok

    def test_machine_faults_need_machine(self):
        for kind in ("machine_outage", "link_degrade", "partition", "drop"):
            with pytest.raises(ValueError):
                FaultEvent(time=1.0, kind=kind, duration=1.0,
                           rate_fraction=0.5, drop_prob=0.5)

    def test_degrade_needs_valid_fraction(self):
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, kind="link_degrade", machine=0, duration=1.0,
                       rate_fraction=0.0)
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, kind="link_degrade", machine=0, duration=1.0,
                       rate_fraction=1.5)

    def test_drop_needs_valid_prob(self):
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, kind="drop", machine=0, duration=1.0, drop_prob=1.5)

    def test_rejoin_only_for_crash(self):
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, kind="partition", machine=0, duration=1.0,
                       rejoin_after=2.0)


class TestFaultConfigValidation:
    def test_timeout_must_cover_two_intervals(self):
        with pytest.raises(ValueError):
            FaultConfig(heartbeat_interval=0.1, heartbeat_timeout=0.15)

    def test_backoff_at_least_one(self):
        with pytest.raises(ValueError):
            FaultConfig(backoff_factor=0.5)

    def test_events_coerced_to_tuple(self):
        cfg = FaultConfig(events=[FaultEvent(time=1.0, kind="crash", worker=0)])
        assert isinstance(cfg.events, tuple)

    def test_with_seed(self):
        cfg = FaultConfig(seed=0)
        assert cfg.with_seed(7).seed == 7
        assert cfg.seed == 0  # frozen original untouched


class TestRoundTrip:
    def _config(self):
        return FaultConfig(
            events=(
                FaultEvent(time=2.0, kind="crash", worker=1, rejoin_after=1.0),
                FaultEvent(time=1.0, kind="link_degrade", machine=0,
                           duration=0.5, rate_fraction=0.25),
                FaultEvent(time=3.0, kind="drop", machine=1, duration=0.5,
                           drop_prob=0.3),
            ),
            seed=42,
            heartbeat_interval=0.01,
            heartbeat_timeout=0.05,
            backoff_factor=1.5,
            max_suspect_rounds=2,
            max_virtual_time=100.0,
        )

    def test_dict_round_trip(self):
        cfg = self._config()
        assert from_jsonable(FaultConfig, to_jsonable(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = self._config()
        path = tmp_path / "faults.json"
        cfg.save(path)
        assert FaultConfig.load(path) == cfg

    def test_schedule_sorts_by_time(self):
        schedule = FaultSchedule.from_config(self._config())
        times = [e.time for e in schedule.events]
        assert times == sorted(times)
        assert schedule.horizon == 3.0
