"""Every comm-plan entry states where it lives, and the statements agree.

The engine, the PS shards and the predictor read an entry's flat
``ranges``, its ``shard_offset`` inside its shard's gathered slice and
the plan's ``entries_per_shard`` instead of deriving them. The property:
over both timing profiles and the mini models, every sharding strategy
and shard counts up to three times the layer count (so more are asked
for than a layer-wise plan builds), a shard's entries taken in
``shard_offset`` order are exactly its ranges, and their offsets and
sizes tile its slice.
"""

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.ps import place_shards
from repro.core.runner import timing_profile
from repro.nn.models import build_model
from repro.nn.zoo import mini_profile_from_model
from repro.optimizations.sharding import make_sharding_plan
from repro.optimizations.waitfree import make_comm_plan

STRATEGIES = ("layerwise-rr", "layerwise-greedy", "element-balanced")


def mini_profile(name="mlp", **kwargs):
    return mini_profile_from_model(build_model(name, seed=0, **kwargs))


PROFILES = {
    "resnet50": lambda: timing_profile("resnet50"),
    "vgg16": lambda: timing_profile("vgg16"),
    "mlp": lambda: mini_profile(in_features=2, hidden=(16, 8), num_classes=4),
    "miniresnet": lambda: mini_profile("miniresnet"),
    "minivgg": lambda: mini_profile("minivgg"),
}


@st.composite
def plans(draw):
    profile = PROFILES[draw(st.sampled_from(sorted(PROFILES)))]()
    strategy = draw(st.sampled_from(STRATEGIES))
    num_shards = draw(st.integers(1, 3 * len(profile.layers)))
    wait_free = draw(st.booleans())
    return profile, make_sharding_plan(profile, num_shards, strategy=strategy), wait_free


@settings(max_examples=120, derandomize=True, deadline=None)
@given(case=plans())
def test_entries_tile_their_shards(case):
    profile, sharding, wait_free = case
    if wait_free and sharding.strategy == "element-balanced":
        with pytest.raises(ValueError, match="layer-aligned"):
            make_comm_plan(profile, sharding, wait_free=True)
        return
    plan = make_comm_plan(profile, sharding, wait_free=wait_free)
    assert len(plan.entries_per_shard) == sharding.num_shards
    for entry in plan.entries:
        assert entry.num_elements == sum(stop - start for start, stop in entry.ranges)
        assert entry.nbytes == entry.num_elements * sharding.bytes_per_param
    for shard in sharding.shards:
        own = sorted(
            (e for e in plan.entries if e.shard_id == shard.shard_id),
            key=lambda e: e.shard_offset,
        )
        assert plan.entries_per_shard[shard.shard_id] == len(own)
        assert tuple(r for e in own for r in e.ranges) == shard.ranges
        pos = 0
        for entry in own:
            assert entry.shard_offset == pos
            pos += entry.num_elements
        assert pos == shard.num_elements


def owners_over_all_shards(profile, num_shards, strategy):
    """Layer-wise assignment over every one of ``num_shards`` shards,
    surplus shards left empty (greedy as a linear min-scan, first
    least-loaded shard wins), with the empty shards dropped: shard id ->
    (its layer indices, their flat ranges)."""
    layers = profile.layers
    stops = list(accumulate(layer.params for layer in layers))
    owned = [[] for _ in range(num_shards)]
    if strategy == "layerwise-rr":
        for idx in range(len(layers)):
            owned[idx % num_shards].append(idx)
    else:
        loads = [0] * num_shards
        for idx in sorted(range(len(layers)), key=lambda i: layers[i].params, reverse=True):
            target = loads.index(min(loads))
            owned[target].append(idx)
            loads[target] += layers[idx].params
    return {
        shard: (idx, tuple((stops[i] - layers[i].params, stops[i]) for i in sorted(idx)))
        for shard, idx in enumerate(owned)
        if idx
    }


@st.composite
def layerwise_cases(draw):
    profile = PROFILES[draw(st.sampled_from(sorted(PROFILES)))]()
    strategy = draw(st.sampled_from(("layerwise-rr", "layerwise-greedy")))
    num_shards = draw(st.integers(1, 3 * len(profile.layers) + 1))
    return profile, strategy, num_shards, draw(st.integers(1, 64))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=layerwise_cases())
def test_a_layerwise_plan_builds_only_the_shards_that_own_a_layer(case):
    """At most one shard per layer: the plan is the full assignment's
    owning shards (ids, layers, ranges, machines), and none is empty."""
    profile, strategy, num_shards, machines = case
    plan = make_sharding_plan(profile, num_shards, strategy=strategy)
    assert all(shard.num_elements > 0 for shard in plan.shards)
    owners = owners_over_all_shards(profile, num_shards, strategy)
    assert plan.num_shards == len(plan.shards) == len(owners)
    assert [shard.shard_id for shard in plan.shards] == list(owners)
    for shard in plan.shards:
        layers, ranges = owners[shard.shard_id]
        assert list(shard.layer_indices) == sorted(layers)
        assert shard.ranges == ranges
    placed = place_shards(num_shards, machines)
    assert place_shards(plan.num_shards, machines) == [placed[s] for s in owners]
