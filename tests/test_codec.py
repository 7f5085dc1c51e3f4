"""The one JSON codec: ``from_jsonable`` inverts ``to_jsonable``.

* Valid ``RunConfig``s of every shape round-trip to equal configs with
  the same fingerprint, as do results with non-finite losses and nested
  metadata (compared by ``repr``, which tells a tuple from a list and a
  NaN from a null).
* Every config the artefacts' default grids submit fingerprints the
  same after a pass through the codec.
* Files written by the codecs this one replaced (``old_formats/``): a
  cached run payload with a NaN loss is still a cache hit, a
  ``--fault-spec`` file loads and re-saves byte for byte, and a session
  manifest in the older tagged form is refused in one line, never
  mis-read.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.config import DGCConfig, RunConfig
from repro.core.history import ThroughputResult, TrainingHistory
from repro.experiments.artefact import artefact, run_artefact
from repro.experiments.config import mini_accuracy_config
from repro.experiments.executor import RunCache, SweepExecutor, _execute_payload, config_fingerprint
from repro.faults.config import FABRIC_FAULT_KINDS, FaultConfig, FaultEvent
from repro.io import from_jsonable, to_jsonable
from repro.robust.config import AGGREGATORS, RobustConfig
from repro.sim.cluster import hierarchical_cluster, paper_cluster

from tests.experiments.test_artefacts import DEFAULTS, _Recorder

OLD = Path(__file__).parent / "old_formats"


def through_json(cls, value):
    return from_jsonable(cls, json.loads(json.dumps(to_jsonable(value))))


# -- configs --------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
json_dicts = st.dictionaries(st.text(max_size=6), json_values, max_size=3)


@st.composite
def fault_events(draw, num_workers: int, cluster) -> FaultEvent:
    time = draw(st.floats(0, 10))
    duration = draw(st.floats(0.01, 5))
    kinds = ["crash", "partition", "drop", "grad_scale"]
    if cluster.hierarchical:
        kinds += ["rack_outage", "uplink_flap", "uplink_degrade", "spine_degrade"]
    kind = draw(st.sampled_from(kinds))
    rack = draw(st.integers(0, cluster.num_racks - 1))
    machine = draw(st.integers(0, cluster.machines - 1))
    worker = draw(st.integers(0, num_workers - 1))
    if kind == "crash":
        rejoin_after = draw(st.none() | st.floats(0.01, 5))
        return FaultEvent(time, kind, worker=worker, rejoin_after=rejoin_after)
    if kind in ("partition", "drop"):
        drop_prob = 0.1 if kind == "drop" else None
        return FaultEvent(time, kind, machine=machine, duration=duration, drop_prob=drop_prob)
    if kind == "grad_scale":
        scale = draw(st.floats(0.5, 100))
        return FaultEvent(time, kind, worker=worker, duration=duration, scale=scale)
    assert kind in FABRIC_FAULT_KINDS
    return FaultEvent(
        time,
        kind,
        rack=None if kind == "spine_degrade" else rack,
        duration=None if kind == "rack_outage" else duration,
        drop_prob=0.2 if kind == "uplink_flap" else None,
        rate_fraction=0.5 if kind in ("uplink_degrade", "spine_degrade") else None,
    )


@st.composite
def run_configs(draw) -> RunConfig:
    bandwidth = draw(st.sampled_from([10.0, 56.0]))
    if draw(st.booleans()):
        cluster = hierarchical_cluster(
            machines=8, machines_per_rack=draw(st.sampled_from([2, 4, 8])), bandwidth_gbps=bandwidth
        )
    else:
        cluster = paper_cluster(bandwidth_gbps=bandwidth, machines=draw(st.integers(1, 6)))
    algorithm = draw(st.sampled_from(["bsp", "asp", "ssp", "easgd", "ar-sgd", "gosgd", "ad-psgd"]))
    num_workers = draw(st.integers(1, cluster.total_gpus))
    dgc = draw(st.booleans())
    dgc_config = draw(st.none() | st.builds(DGCConfig, final_ratio=st.floats(1e-4, 0.2)))
    robust = draw(
        st.none()
        | st.builds(
            RobustConfig,
            aggregator=st.sampled_from(AGGREGATORS),
            krum_f=st.none() | st.integers(0, 3),
            screen_factor=st.none() | st.floats(0.5, 10),
            guard=st.booleans(),
        )
    )
    plain = not dgc and robust is None
    collectives = [None, "ring"] + (["tree", "hring"] if algorithm == "ar-sgd" and plain else [])
    topologies = [None, "flat"] + (["tree"] if algorithm == "bsp" and plain else [])
    faults = draw(
        st.none()
        | st.builds(
            FaultConfig,
            events=st.lists(fault_events(num_workers, cluster), max_size=3).map(tuple),
            seed=st.integers(0, 9),
            max_virtual_time=st.none() | st.floats(1, 100),
        )
    )
    return RunConfig(
        algorithm=algorithm,
        algorithm_params=draw(json_dicts),
        mode=draw(st.sampled_from(["full", "timing"])),
        cluster=cluster,
        num_workers=num_workers,
        model_kwargs=draw(json_dicts),
        epochs=draw(st.floats(0.1, 90)),
        base_lr=draw(finite),
        milestone_fractions=draw(st.lists(st.floats(0, 1), max_size=3).map(tuple)),
        profile_name=draw(st.sampled_from(["resnet50", "vgg16"])),
        dgc=dgc,
        dgc_config=dgc_config if dgc else None,
        collective=draw(st.sampled_from(collectives)),
        ps_topology=draw(st.sampled_from(topologies)),
        compute_time_override=draw(st.none() | st.floats(1e-4, 1.0)),
        seed=draw(st.integers(0, 2**40)),
        faults=faults,
        robust=robust,
    )


@settings(max_examples=200, deadline=None)
@given(run_configs())
def test_every_valid_config_round_trips(cfg):
    back = through_json(RunConfig, cfg)
    assert back == cfg
    assert repr(back) == repr(cfg)
    assert config_fingerprint(back) == config_fingerprint(cfg)


def test_the_property_tells_a_tuple_from_a_list():
    """A decoder that handed back lists for tuple fields would fail the
    property above: config equality sees the difference."""
    cfg = RunConfig(
        algorithm="bsp",
        faults=FaultConfig(events=(FaultEvent(0.1, "crash", worker=0),)),
    )
    back = through_json(RunConfig, cfg)
    assert type(back.milestone_fractions) is tuple and type(back.faults.events) is tuple
    assert dataclasses.replace(cfg, milestone_fractions=list(cfg.milestone_fractions)) != cfg


class _ConfigRecorder(_Recorder):
    def __init__(self) -> None:
        super().__init__()
        self.configs: list[RunConfig] = []

    def map(self, configs):
        self.configs += configs
        return super().map(configs)


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_every_artefact_grid_fingerprints_through_the_codec(key):
    name, shape = DEFAULTS[key]
    recorder = _ConfigRecorder()
    run_artefact(artefact(name), executor=recorder, **shape)
    assert recorder.configs
    for cfg in recorder.configs:
        assert config_fingerprint(through_json(RunConfig, cfg)) == config_fingerprint(cfg)


# -- results --------------------------------------------------------------

any_float = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
metadata = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        st.none() | st.booleans() | st.integers() | any_float | st.text(max_size=4),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=4), children, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)
float_lists = st.lists(any_float, max_size=4)
results = st.builds(
    TrainingHistory,
    algorithm=st.text(max_size=6),
    num_workers=st.integers(0, 64),
    epochs=float_lists,
    times=float_lists,
    test_accuracy=float_lists,
    train_loss=float_lists,
    total_iterations=st.integers(0, 10**9),
    total_virtual_time=any_float,
    metadata=metadata,
) | st.builds(
    ThroughputResult,
    algorithm=st.text(max_size=6),
    num_workers=st.integers(0, 64),
    model=st.text(max_size=6),
    bandwidth_gbps=any_float,
    iterations_per_worker=st.integers(0, 100),
    batch_size=st.integers(0, 256),
    measured_time=any_float,
    measured_images=st.integers(0, 10**9),
    breakdown=st.dictionaries(st.text(max_size=6), any_float, max_size=4),
    metadata=metadata,
)


@settings(max_examples=200, deadline=None)
@given(results)
def test_results_round_trip_with_non_finite_floats(result):
    assert repr(through_json(type(result), result)) == repr(result)


def test_a_nan_loss_and_nested_metadata_round_trip():
    history = TrainingHistory(
        algorithm="BSP",
        epochs=[0.0, 1.0],
        train_loss=[1.5, math.nan],
        total_virtual_time=math.inf,
        metadata={"worker_iterations": {"min": 3, "max": 5}, "norms": [[-math.inf, 0.5]]},
    )
    back = through_json(TrainingHistory, history)
    assert math.isnan(back.train_loss[1]) and back.total_virtual_time == math.inf
    assert back.metadata == {"worker_iterations": {"min": 3, "max": 5}, "norms": [[-math.inf, 0.5]]}


# -- what the replaced codecs wrote ----------------------------------------


def test_an_old_cache_payload_with_a_nan_loss_is_a_hit(tmp_path):
    shutil.copytree(OLD / "cache", tmp_path / "cache")
    cfg = mini_accuracy_config("bsp", num_workers=2, epochs=0.5, base_lr=1e6)
    executor = SweepExecutor(jobs=1, cache=True, cache_dir=tmp_path / "cache")
    [history] = executor.map([cfg])
    assert (executor.last_stats.cache_hits, executor.last_stats.executed) == (1, 0)
    assert history.train_loss[0] == 1.771906851600206 and math.isnan(history.train_loss[1])
    assert history.metadata["config"] is cfg
    # What the codec writes for the same run has the old shape.
    fingerprint = config_fingerprint(cfg)
    RunCache(tmp_path / "new").put(fingerprint, _execute_payload(cfg))
    new = json.loads((tmp_path / "new" / f"{fingerprint}.json").read_text())
    old = json.loads((tmp_path / "cache" / f"{fingerprint}.json").read_text())
    assert new.keys() == old.keys() and new["data"].keys() == old["data"].keys()
    # Results gained metadata["aggregations"] after these files were written.
    assert new["data"]["metadata"].keys() == old["data"]["metadata"].keys() | {"aggregations"}


def test_an_old_fault_spec_loads_and_saves_byte_for_byte(tmp_path):
    spec = FaultConfig.load(OLD / "fault_spec.json")
    assert [e.kind for e in spec.events] == [
        "crash", "partition", "grad_scale", "uplink_flap", "spine_degrade"
    ]
    assert spec.events[3].rack == 1 and spec.max_virtual_time == 60.0
    spec.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (OLD / "fault_spec.json").read_bytes()


def test_an_old_session_manifest_is_refused_in_one_line(tmp_path, monkeypatch):
    shutil.copytree(OLD / "sessions", tmp_path / "sessions")
    monkeypatch.setenv("REPRO_SESSION_DIR", str(tmp_path / "sessions"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    with pytest.raises(SystemExit) as refused:
        main(["sweep", "resume", "3c708930550144df", "--jobs", "1"])
    message = str(refused.value.code)
    assert "\n" not in message
    assert "session 3c708930550144df" in message and "tagged format" in message
    assert not (tmp_path / "cache").exists()
