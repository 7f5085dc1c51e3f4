"""Every comm-plan entry states where it lives, and the statements agree.

The engine, the PS shards and the predictor read an entry's flat
``ranges``, its ``shard_offset`` inside its shard's gathered slice and
the plan's ``entries_per_shard`` instead of deriving them. The property:
over both timing profiles and a mini model, every sharding strategy and
shard counts up to three times the layer count (so some shards own no
layer), a shard's entries taken in ``shard_offset`` order are exactly its
ranges, and their offsets and sizes tile its slice.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import timing_profile
from repro.nn.models import build_model
from repro.nn.zoo import mini_profile_from_model
from repro.optimizations.sharding import make_sharding_plan
from repro.optimizations.waitfree import make_comm_plan

STRATEGIES = ("layerwise-rr", "layerwise-greedy", "element-balanced")


def mini_profile():
    model = build_model("mlp", seed=0, in_features=2, hidden=(16, 8), num_classes=4)
    return mini_profile_from_model(model)


PROFILES = {
    "resnet50": lambda: timing_profile("resnet50"),
    "vgg16": lambda: timing_profile("vgg16"),
    "mlp": mini_profile,
}


@st.composite
def plans(draw):
    profile = PROFILES[draw(st.sampled_from(sorted(PROFILES)))]()
    strategy = draw(st.sampled_from(STRATEGIES))
    num_shards = draw(st.integers(1, 3 * len(profile.layers)))
    wait_free = draw(st.booleans())
    return profile, make_sharding_plan(profile, num_shards, strategy=strategy), wait_free


def nonempty(ranges):
    return [(start, stop) for start, stop in ranges if start < stop]


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
        assert [r for e in own for r in nonempty(e.ranges)] == nonempty(shard.ranges)
        pos = 0
        for entry in own:
            assert entry.shard_offset == pos
            pos += entry.num_elements
        assert pos == shard.num_elements
