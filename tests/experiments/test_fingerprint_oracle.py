"""The fingerprint's canonical text against its reference encoding.

``config_fingerprint`` writes the canonical JSON text of a config tree
directly. The reference below encodes it in two steps: reduce the tree
to a tagged JSON document, then ``json.dumps(sort_keys=True,
separators=(",", ":"))``. Every cached run and session manifest is
addressed by those bytes, so the two must agree byte for byte on every
config anything builds — the ledger's workloads, every ``repro run``
grid — and on arbitrary field values.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.executor as executor
from repro import __version__
from repro.core.runner import RunConfig
from repro.experiments.config import mini_accuracy_config, timing_config
from repro.experiments.executor import SweepExecutor, config_fingerprint
from repro.faults.config import FaultConfig, FaultEvent
from repro.obs.config import ObsConfig
from repro.optimizations.dgc import DGCConfig
from repro.robust.config import AGGREGATORS, RobustConfig
from repro.sim.cluster import hierarchical_cluster

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"


# -- the reference encoding ---------------------------------------------


@functools.lru_cache(maxsize=None)
def _fingerprint_fields(cls: type) -> tuple[tuple[str, bool], ...]:
    return tuple(
        (f.name, f.metadata.get("fingerprint") == "omit-if-none")
        for f in dataclasses.fields(cls)
    )


def _canonical(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        document = {}
        for name, omit_if_none in _fingerprint_fields(type(obj)):
            value = getattr(obj, name)
            if not (omit_if_none and value is None):
                document[name] = _canonical(value)
        return {"__dataclass__": type(obj).__name__, "fields": document}
    if isinstance(obj, dict):
        return {
            "__dict__": [
                [str(k), _canonical(v)]
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
            ]
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(repr(v) for v in obj)}
    return {"__repr__": repr(obj)}


def reference_fingerprint(config) -> str:
    document = {"repro_version": __version__, "config": _canonical(config)}
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def assert_same_fingerprints(configs) -> None:
    """Each config's fingerprint, written once and again (when frozen
    sub-configs' texts are remembered), is the reference's."""
    configs = list(configs)
    assert configs
    for cfg in configs:
        expected = reference_fingerprint(cfg)
        assert config_fingerprint(cfg) == config_fingerprint(cfg) == expected, cfg


# -- every config the repository builds ---------------------------------


@functools.lru_cache(maxsize=None)
def load_ledger_workloads():
    """``benchmarks/ledger/workloads.py`` as a module (it imports only
    ``repro`` and the standard library)."""
    spec = importlib.util.spec_from_file_location(
        "ledger_workloads", LEDGER / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", ["timing_grid", "accuracy_grid", "conv_train", "scale_hier", "sweep_ops"]
)
def test_every_ledger_config(name, tmp_path):
    workload = load_ledger_workloads().make_workload(name, 0, "full", tmp_path)
    assert_same_fingerprints(workload.configs + getattr(workload, "ladder", []))


class _Captured(Exception):
    pass


class _GridRecorder(SweepExecutor):
    """Records the grid a driver submits instead of running it."""

    def __init__(self) -> None:
        super().__init__(jobs=1, cache=False)
        self.grid: list[RunConfig] = []

    def map(self, configs, *, session=None):
        self.grid = list(configs)
        raise _Captured


def _run_grids():
    yield pytest.param("table2", {}, id="table2-fig1")
    yield pytest.param("table3", {}, id="table3")
    yield pytest.param("table4", {}, id="table4")
    for model in ("resnet50", "vgg16"):
        yield pytest.param("fig2", dict(model=model), id=f"fig2-{model}")
        for gbps in (10.0, 56.0):
            yield pytest.param(
                "fig4", dict(model=model, bandwidth_gbps=gbps), id=f"fig4-{model}-{gbps:g}"
            )
    yield pytest.param("fig3", {}, id="fig3")


@pytest.mark.parametrize("name, shape", list(_run_grids()))
def test_every_repro_run_grid(name, shape):
    from repro.experiments.artefact import artefact, run_artefact

    recorder = _GridRecorder()
    with pytest.raises(_Captured):
        run_artefact(artefact(name), executor=recorder, **shape)
    assert_same_fingerprints(recorder.grid)


# -- arbitrary field values ---------------------------------------------

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300, 5.0 / 90.0]
)
numpy_scalars = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
numpy_arrays = st.one_of(
    st.lists(st.integers(-(2**31), 2**31 - 1), max_size=6).map(np.array),
    st.lists(floats, max_size=6).map(lambda xs: np.array(xs, dtype=float)),
    st.lists(st.lists(floats, min_size=2, max_size=2), max_size=3).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, 2)
    ),
)
hashables = st.one_of(st.integers(), st.text(max_size=6), floats, st.booleans())
fault_events = st.one_of(
    st.builds(
        FaultEvent,
        time=st.floats(0, 10),
        kind=st.just("crash"),
        worker=st.integers(0, 7),
        rejoin_after=st.none() | st.floats(0.01, 5),
    ),
    st.builds(
        FaultEvent,
        time=st.floats(0, 10),
        kind=st.sampled_from(["partition", "drop"]),
        machine=st.integers(0, 3),
        duration=st.floats(0.01, 5),
        drop_prob=st.just(0.1),
    ),
    st.builds(
        FaultEvent,
        time=st.floats(0, 10),
        kind=st.just("grad_scale"),
        worker=st.integers(0, 7),
        duration=st.floats(0.01, 5),
        scale=st.floats(0.5, 100),
    ),
    st.builds(
        FaultEvent,
        time=st.floats(0, 10),
        kind=st.sampled_from(["uplink_flap", "uplink_degrade"]),
        rack=st.integers(0, 3),
        duration=st.floats(0.01, 5),
        drop_prob=st.just(0.2),
        rate_fraction=st.just(0.5),
    ),
)
dgc_configs = st.builds(
    DGCConfig, final_ratio=st.floats(1e-4, 0.2), num_workers=st.integers(1, 64)
)
fault_configs = st.builds(
    FaultConfig,
    events=st.lists(fault_events, max_size=3).map(tuple),
    seed=st.integers(0, 9),
    max_virtual_time=st.none() | st.floats(1, 100),
)
robust_configs = st.builds(
    RobustConfig,
    aggregator=st.sampled_from(AGGREGATORS),
    krum_f=st.none() | st.integers(0, 3),
    screen_factor=st.none() | st.floats(0.5, 10),
)
obs_configs = st.builds(ObsConfig, enabled=st.booleans())
sub_configs = st.one_of(dgc_configs, fault_configs, robust_configs, obs_configs)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    st.text(max_size=8),
    numpy_scalars,
    numpy_arrays,
    sub_configs,
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(hashables, children, max_size=4),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4),
    ),
    max_leaves=12,
)
kwargs_dicts = st.dictionaries(
    st.one_of(st.text(max_size=6), st.integers()), values, max_size=4
)
float_lists = st.lists(floats, max_size=4)

#: Field name -> values it may take. ``setattr`` on the built config
#: bypasses validation: the fingerprint encodes whatever the tree holds.
FIELD_VALUES = {
    "algorithm_params": kwargs_dicts,
    "model_kwargs": kwargs_dicts,
    "dataset_kwargs": kwargs_dicts,
    "milestone_fractions": float_lists | float_lists.map(tuple),
    "epochs": floats | numpy_scalars,
    "base_lr": floats,
    "jitter_sigma": floats,
    "compute_time_override": st.none() | floats | numpy_scalars,
    "seed": st.integers() | numpy_scalars,
    "collective": st.none() | st.sampled_from(["ring", "tree", "hring"]),
    "ps_topology": st.none() | st.sampled_from(["flat", "tree"]),
    "dgc_config": st.none() | dgc_configs,
    "faults": st.none() | fault_configs,
    "robust": st.none() | robust_configs,
    "cluster": st.builds(
        hierarchical_cluster, machines=st.just(8), machines_per_rack=st.integers(1, 8)
    ),
    "profile_name": st.text(max_size=8),
    "trace": st.booleans(),
}

BASES = (
    lambda: timing_config("bsp", num_workers=4, measure_iters=5),
    lambda: mini_accuracy_config("ar-sgd", num_workers=4, epochs=1.0),
)


@st.composite
def run_configs(draw):
    cfg = draw(st.sampled_from(BASES))()
    for name in sorted(draw(st.sets(st.sampled_from(sorted(FIELD_VALUES))))):
        setattr(cfg, name, draw(FIELD_VALUES[name]))
    return cfg


@settings(max_examples=300, deadline=None)
@given(run_configs())
def test_arbitrary_configs(cfg):
    assert_same_fingerprints([cfg])


def test_each_optional_sub_config_and_value_kind():
    """One config holding every kind of value at once, so no kind
    depends on what the generator happens to draw."""
    cfg = timing_config("bsp", num_workers=4, measure_iters=5)
    cfg.dgc_config = DGCConfig(num_workers=4)
    cfg.faults = FaultConfig(
        events=(
            FaultEvent(time=0.1, kind="crash", worker=1, rejoin_after=0.5),
            FaultEvent(time=0.2, kind="grad_scale", worker=2, duration=1.0, scale=-3.0),
        ),
        max_virtual_time=9.0,
    )
    cfg.robust = RobustConfig(aggregator="krum", krum_f=1)
    cfg.algorithm_params = {
        2: "int key",
        "2": "same str, later",
        "nested": {"a": [1, (2.0, -0.0)], 1.5: {float("nan"), "x", 3}},
        "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 0.1],
        "numpy": [np.int32(-7), np.float32(0.1), np.float64("nan"), np.bool_(True)],
        "array": np.arange(6, dtype=float).reshape(2, 3),
        "obs": ObsConfig(enabled=True),
        "frozen": frozenset({"b", "a\n", "é"}),
        "text": 'quote " back \\ tab \t unicode ☃',
        "type": RunConfig,
    }
    cfg.milestone_fractions = [0.25, 0.5]
    assert_same_fingerprints([cfg])
    as_tuple = copy.copy(cfg)
    as_tuple.milestone_fractions = (0.25, 0.5)
    assert config_fingerprint(as_tuple) == config_fingerprint(cfg)


def test_mutating_a_dict_field_changes_the_next_fingerprint():
    cfg = timing_config("ssp", num_workers=4, measure_iters=5)
    cfg.model_kwargs = {"layers": {"depth": 2}}
    first = config_fingerprint(cfg)
    cfg.algorithm_params["window"] = 7
    second = config_fingerprint(cfg)
    cfg.model_kwargs["layers"]["depth"] = 3
    third = config_fingerprint(cfg)
    assert len({first, second, third}) == 3
    assert third == reference_fingerprint(cfg)
    del cfg.algorithm_params["window"]
    cfg.model_kwargs["layers"]["depth"] = 2
    assert config_fingerprint(cfg) == first


@dataclasses.dataclass(frozen=True)
class FrozenHolder:
    params: dict
    label: str = "holder"


def test_a_frozen_config_holding_a_dict_is_written_every_time():
    cfg = timing_config("bsp", num_workers=4, measure_iters=5)
    holder = FrozenHolder({"depth": 2})
    cfg.algorithm_params = {"holder": holder}
    first = config_fingerprint(cfg)
    holder.params["depth"] = 3
    assert config_fingerprint(cfg) != first
    assert config_fingerprint(cfg) == reference_fingerprint(cfg)
    assert id(holder) not in executor._frozen_texts


def test_a_frozen_config_is_remembered_while_it_lives():
    cluster = hierarchical_cluster(machines=8, machines_per_rack=4)
    grid = [timing_config("bsp", num_workers=n, cluster=cluster) for n in (4, 8)]
    assert all(cfg.cluster is cluster for cfg in grid)
    assert_same_fingerprints(grid)
    key = id(cluster)
    assert key in executor._frozen_texts and id(cluster.machine) in executor._frozen_texts
    del grid, cluster
    assert key not in executor._frozen_texts
