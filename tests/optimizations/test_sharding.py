"""Tests for parameter sharding plans."""

import numpy as np
import pytest

from repro.nn.zoo import LayerProfile, ModelProfile, resnet50_profile, vgg16_profile
from repro.optimizations.sharding import make_sharding_plan


class TestPlanValidity:
    @pytest.mark.parametrize("strategy", ["layerwise-rr", "layerwise-greedy", "element-balanced"])
    @pytest.mark.parametrize("shards", [1, 2, 6, 8])
    def test_plan_is_partition(self, strategy, shards):
        plan = make_sharding_plan(resnet50_profile(), shards, strategy=strategy)
        plan.validate()  # raises on overlap/gap
        assert sum(s.num_elements for s in plan.shards) == plan.total_elements

    @pytest.mark.parametrize("strategy", ["layerwise-rr", "layerwise-greedy", "element-balanced"])
    def test_builds_no_shard_it_cannot_fill(self, strategy):
        """At most one shard per layer (layer-wise) or per element."""
        layers = (LayerProfile("a", "fc", 2, 4), LayerProfile("b", "fc", 3, 6))
        plan = make_sharding_plan(ModelProfile("tiny", layers), 10, strategy=strategy)
        assert plan.num_shards == len(plan.shards) == (5 if strategy == "element-balanced" else 2)
        assert all(shard.num_elements > 0 for shard in plan.shards)

    def test_single_shard_owns_everything(self):
        plan = make_sharding_plan(resnet50_profile(), 1)
        assert plan.shards[0].num_elements == resnet50_profile().total_params

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            make_sharding_plan(resnet50_profile(), 2, strategy="random")

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            make_sharding_plan(resnet50_profile(), 0)


class TestGatherScatter:
    def test_roundtrip(self):
        plan = make_sharding_plan(resnet50_profile(), 4)
        rng = np.random.default_rng(0)
        flat = rng.normal(size=plan.total_elements)
        rebuilt = np.zeros_like(flat)
        for shard in plan.shards:
            rebuilt_slice = shard.gather(flat)
            shard.scatter(rebuilt, rebuilt_slice)
        assert np.array_equal(rebuilt, flat)

    def test_scatter_size_mismatch(self):
        plan = make_sharding_plan(resnet50_profile(), 4)
        with pytest.raises(ValueError):
            plan.shards[0].scatter(np.zeros(plan.total_elements), np.zeros(3))

    def test_scatter_sparse(self):
        plan = make_sharding_plan(resnet50_profile(), 4)
        shard = plan.shards[1]
        flat = np.zeros(plan.total_elements)
        local_idx = np.array([0, 5, shard.num_elements - 1])
        shard.scatter_sparse(flat, local_idx, np.array([1.0, 2.0, 3.0]))
        gathered = shard.gather(flat)
        assert gathered[0] == 1.0
        assert gathered[5] == 2.0
        assert gathered[-1] == 3.0
        assert np.count_nonzero(flat) == 3

    def test_global_indices_consistent_with_gather(self):
        plan = make_sharding_plan(vgg16_profile(), 3, strategy="layerwise-rr")
        shard = plan.shards[2]
        flat = np.arange(plan.total_elements, dtype=np.float64)
        assert np.array_equal(shard.gather(flat), flat[shard.global_indices()])


class TestSkew:
    def test_vgg_layerwise_sharding_is_skewed(self):
        """fc6 pins one shard: max shard ≥ 74 % of the model no matter
        how many shards — the paper's §VI-C bottleneck."""
        for shards in (2, 4, 8):
            plan = make_sharding_plan(vgg16_profile(), shards, strategy="layerwise-greedy")
            assert plan.max_shard_fraction() > 0.70

    def test_resnet_layerwise_sharding_balances(self):
        plan = make_sharding_plan(resnet50_profile(), 8, strategy="layerwise-greedy")
        assert plan.max_shard_fraction() < 0.25

    def test_element_balanced_fixes_vgg_skew(self):
        """The 'fine-grained sharding' the paper's conclusion calls for."""
        plan = make_sharding_plan(vgg16_profile(), 8, strategy="element-balanced")
        assert plan.max_shard_fraction() == pytest.approx(1 / 8, rel=0.01)

    def test_greedy_no_worse_than_rr(self):
        profile = resnet50_profile()
        greedy = make_sharding_plan(profile, 6, strategy="layerwise-greedy")
        rr = make_sharding_plan(profile, 6, strategy="layerwise-rr")
        assert greedy.max_shard_fraction() <= rr.max_shard_fraction() + 1e-9

    def test_shard_bytes(self):
        plan = make_sharding_plan(resnet50_profile(), 2)
        assert sum(plan.shard_bytes()) == plan.total_elements * 4
