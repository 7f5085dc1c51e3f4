"""FaultConfig / FaultEvent / FaultSchedule validation and round-trips."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize(
        "kind,fields,ignored",
        [
            ("crash", dict(worker=0), dict(duration=1.0)),
            ("partition", dict(machine=0, duration=1.0), dict(worker=1)),
            ("link_degrade", dict(machine=0, duration=1.0, rate_fraction=0.5), dict(drop_prob=0.1)),
            ("tor_outage", dict(rack=0, duration=1.0), dict(machine=1)),
            ("bitflip", dict(worker=0), dict(duration=1.0)),
            ("machine_outage", dict(machine=0), dict(duration=1.0)),
            ("drop", dict(machine=0, duration=1.0, drop_prob=0.1), dict(rate_fraction=0.5)),
            ("uplink_flap", dict(rack=0, duration=1.0, drop_prob=0.1), dict(rate_fraction=0.5)),
            ("spine_degrade", dict(duration=1.0, rate_fraction=0.5), dict(machine=0)),
            ("byzantine", dict(worker=0), dict(drop_prob=0.1)),
        ],
    )
    def test_field_the_kind_ignores_rejected(self, kind, fields, ignored):
        FaultEvent(time=1.0, kind=kind, **fields)  # ok
        (name,) = ignored
        with pytest.raises(ValueError, match=f"{kind} events take no {name}"):
            FaultEvent(time=1.0, kind=kind, **fields, **ignored)


# The validator's contract, written out by hand (not read from the kind
# table): kind -> (fields it needs, fields it may leave unset). Any other
# field set is an error.
TAKES = {
    "crash": ({"worker"}, {"rejoin_after"}),
    "machine_outage": ({"machine"}, set()),
    "link_degrade": ({"machine", "duration", "rate_fraction"}, set()),
    "partition": ({"machine", "duration"}, set()),
    "drop": ({"machine", "duration", "drop_prob"}, set()),
    "rack_outage": ({"rack"}, set()),
    "tor_outage": ({"rack", "duration"}, set()),
    "uplink_degrade": ({"rack", "duration", "rate_fraction"}, set()),
    "uplink_flap": ({"rack", "duration", "drop_prob"}, set()),
    "spine_degrade": ({"duration", "rate_fraction"}, set()),
    "bitflip": ({"worker"}, set()),
    "nan_inject": ({"worker"}, set()),
    "grad_scale": ({"worker", "duration"}, {"scale"}),
    "sign_flip": ({"worker", "duration"}, set()),
    "byzantine": ({"worker"}, {"duration", "scale"}),
}

# field -> (values in range, values out of range). Worker, machine and
# rack ranges belong to the run (check_fault_targets), not to the event.
VALUES = {
    "worker": ([0, 3], []),
    "machine": ([0, 2], []),
    "rack": ([0, 1], []),
    "duration": ([1e-9, 0.5, 30.0], [0.0, -1.0, math.nan]),
    "rate_fraction": ([1e-9, 0.25, 1.0], [0.0, 1.5, -0.5, math.nan]),
    "drop_prob": ([0.0, 0.5, 0.999], [1.0, -0.1, math.nan]),
    "rejoin_after": ([0.1, 5.0], [0.0, -1.0, math.nan]),
    "scale": ([-3.0, 1e-9, 100.0], [0.0, math.inf, -math.inf, math.nan]),
}


def test_contract_covers_every_kind():
    assert set(TAKES) == set(FAULT_KINDS)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(kind=st.sampled_from(sorted(TAKES)), data=st.data())
def test_validator_accepts_exactly_the_contract(kind, data):
    """Kind x any subset of the eight optional fields x in- and
    out-of-range values: an event is built exactly when the hand-written
    contract accepts it."""
    required, optional = TAKES[kind]
    chosen = required | {name for name in sorted(optional) if data.draw(st.booleans())}
    # Some events stay inside the contract; the others may leave out
    # needed fields, set foreign ones and take out-of-range values.
    perturb = data.draw(st.booleans())
    if perturb:
        chosen = set(data.draw(st.sets(st.sampled_from(sorted(VALUES)))))
    fields, in_range = {}, True
    for name in sorted(chosen):
        good, bad = VALUES[name]
        ok = not (perturb and bad) or data.draw(st.booleans())
        fields[name] = data.draw(st.sampled_from(good if ok else bad))
        in_range &= ok
    expected = in_range and required <= chosen <= required | optional
    try:
        FaultEvent(time=1.0, kind=kind, **fields)
    except ValueError:
        assert not expected, fields
    else:
        assert expected, fields


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
