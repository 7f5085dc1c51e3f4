"""Tests for result serialization (repro.io)."""

import math

import numpy as np
import pytest

from repro.core.history import ThroughputResult, TrainingHistory
from repro.experiments.config import mini_accuracy_config
from repro.experiments.executor import SweepExecutor, _execute_payload
from repro.io import atomic_write_text, from_jsonable, load_json, save_json, to_jsonable


class TestToJsonable:
    def test_numpy_scalars(self):
        assert to_jsonable(np.int64(5)) == 5
        assert to_jsonable(np.float64(2.5)) == 2.5
        assert isinstance(to_jsonable(np.float64(2.5)), float)

    def test_numpy_arrays(self):
        assert to_jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_tuple_keys_flattened(self):
        out = to_jsonable({(10.0, 24): 1.5})
        assert out == {"10.0|24": 1.5}

    def test_nested_structures(self):
        out = to_jsonable({"a": [np.int32(1), {"b": (2, 3)}]})
        assert out == {"a": [1, {"b": [2, 3]}]}

    def test_unserialisable_becomes_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert to_jsonable(Opaque()) == "<opaque>"

    def test_non_finite_floats_survive(self):
        # The cache and the session keep a diverged loss exactly; only
        # save_json's strict files turn it into null (below).
        assert math.isnan(to_jsonable(float("nan")))
        assert to_jsonable(float("inf")) == float("inf")
        assert to_jsonable(np.float64("-inf")) == float("-inf")
        assert math.isnan(to_jsonable(np.array([np.nan, 1.0]))[0])

    def test_booleans_survive(self):
        assert to_jsonable(True) is True
        assert to_jsonable({"flag": False}) == {"flag": False}


class TestJsonRoundtrip:
    def test_save_and_load(self, tmp_path):
        path = save_json({"x": np.float64(1.5)}, tmp_path / "out.json")
        assert load_json(path) == {"x": 1.5}

    def test_creates_parent_dirs(self, tmp_path):
        path = save_json([1, 2], tmp_path / "a" / "b" / "out.json")
        assert path.exists()

    def test_nan_values_saved_as_null(self, tmp_path):
        # A diverged loss or faulted gradient norm must yield valid,
        # strictly-parseable JSON — never a bare NaN/Infinity token.
        history = TrainingHistory(train_loss=[1.0, float("nan")])
        history.metadata["norms"] = {"max": float("inf"), "min": -float("inf")}
        path = save_json({"loss": float("nan"), "history": history}, tmp_path / "out.json")
        assert "NaN" not in path.read_text() and "Infinity" not in path.read_text()
        document = load_json(path)
        assert document["loss"] is None
        assert document["history"]["train_loss"] == [1.0, None]
        assert document["history"]["metadata"]["norms"] == {"max": None, "min": None}


class TestAtomicWrite:
    def test_writes_and_returns_path(self, tmp_path):
        path = atomic_write_text(tmp_path / "x.txt", "hello")
        assert path.read_text() == "hello"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "x.txt"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_creates_parent_dirs(self, tmp_path):
        path = atomic_write_text(tmp_path / "a" / "b" / "x.txt", "deep")
        assert path.read_text() == "deep"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "x.txt", "data")
        assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]


class TestHistoryRoundtrip:
    def test_roundtrip(self, tmp_path):
        history = TrainingHistory(algorithm="BSP", num_workers=8)
        history.record(epoch=0, time=0.0, test_accuracy=0.2, train_loss=1.6)
        history.record(epoch=1, time=5.0, test_accuracy=0.6, train_loss=0.9)
        history.total_iterations = 100
        history.total_virtual_time = 5.0
        history.metadata["total_messages"] = 42
        path = save_json(history, tmp_path / "h.json")
        back = from_jsonable(TrainingHistory, load_json(path))
        assert back.algorithm == "BSP"
        assert back.final_test_accuracy == pytest.approx(0.6)
        assert back.times == [0.0, 5.0]
        assert back.total_iterations == 100
        assert back.metadata == {"total_messages": 42}

    def test_metadata_config_excluded(self):
        # The executor attaches the config after decoding; the payload
        # it caches never holds one.
        cfg = mini_accuracy_config("bsp", num_workers=2, epochs=0.25)
        [history] = SweepExecutor(jobs=1, cache=False).map([cfg])
        assert history.metadata["config"] is cfg
        assert "config" not in _execute_payload(cfg)["data"]["metadata"]


class TestThroughputRoundtrip:
    def test_roundtrip(self, tmp_path):
        result = ThroughputResult(
            algorithm="ASP",
            num_workers=24,
            model="vgg16",
            bandwidth_gbps=10.0,
            measured_time=2.0,
            measured_images=1000,
            breakdown={"compute": 0.5, "comm": 0.5},
        )
        path = save_json(result, tmp_path / "t.json")
        back = from_jsonable(ThroughputResult, load_json(path))
        assert back.throughput == pytest.approx(500.0)
        assert back.breakdown["comm"] == 0.5
        assert back.model == "vgg16"
