"""Tests for the wait-free BP communication plan."""

import pytest

from repro.nn.zoo import resnet50_profile, vgg16_profile
from repro.optimizations.sharding import make_sharding_plan
from repro.optimizations.waitfree import make_comm_plan


class TestDensePlan:
    def test_one_entry_per_shard_at_end(self):
        profile = resnet50_profile()
        plan = make_sharding_plan(profile, 4)
        comm = make_comm_plan(profile, plan, wait_free=False)
        assert len(comm.entries) == 4
        assert all(e.ready_offset == 1.0 for e in comm.entries)
        assert comm.total_bytes == profile.total_bytes

    def test_bytes_to_shard(self):
        profile = resnet50_profile()
        plan = make_sharding_plan(profile, 4)
        comm = make_comm_plan(profile, plan, wait_free=False)
        for shard in plan.shards:
            sent = sum(e.nbytes for e in comm.entries if e.shard_id == shard.shard_id)
            assert sent == shard.num_elements * 4


class TestWaitFreePlan:
    def test_one_entry_per_parameterised_layer(self):
        profile = resnet50_profile()
        plan = make_sharding_plan(profile, 4)
        comm = make_comm_plan(profile, plan, wait_free=True)
        assert len(comm.entries) == len(profile.layers)
        assert comm.total_bytes == profile.total_bytes

    def test_offsets_sorted_and_bounded(self):
        profile = vgg16_profile()
        plan = make_sharding_plan(profile, 4)
        comm = make_comm_plan(profile, plan, wait_free=True)
        offsets = [e.ready_offset for e in comm.entries]
        assert offsets == sorted(offsets)
        assert all(1.0 / 3.0 < o <= 1.0 for o in offsets)

    def test_last_layer_ready_first(self):
        """Backward runs output-to-input: the classifier layer's
        gradient must be available before conv1's."""
        profile = resnet50_profile()
        plan = make_sharding_plan(profile, 1)
        comm = make_comm_plan(profile, plan, wait_free=True)
        by_label = {e.label: e.ready_offset for e in comm.entries}
        assert by_label["fc"] < by_label["conv1"]
        assert by_label["conv1"] == pytest.approx(1.0)

    def test_first_send_soon_after_backward_starts(self):
        profile = vgg16_profile()
        plan = make_sharding_plan(profile, 1)
        comm = make_comm_plan(profile, plan, wait_free=True, backward_fraction=2 / 3)
        # fc8 is tiny: ready almost exactly when backward begins (1/3).
        assert comm.entries[0].ready_offset < 0.34

    def test_element_balanced_rejected(self):
        profile = resnet50_profile()
        plan = make_sharding_plan(profile, 4, strategy="element-balanced")
        with pytest.raises(ValueError, match="layer-aligned"):
            make_comm_plan(profile, plan, wait_free=True)

    def test_entry_shards_match_layer_owners(self):
        profile = resnet50_profile()
        plan = make_sharding_plan(profile, 4, strategy="layerwise-rr")
        comm = make_comm_plan(profile, plan, wait_free=True)
        owner = {}
        for shard in plan.shards:
            for idx in shard.layer_indices:
                owner[profile.layers[idx].name] = shard.shard_id
        for entry in comm.entries:
            assert entry.shard_id == owner[entry.label]

    def test_invalid_backward_fraction(self):
        profile = resnet50_profile()
        plan = make_sharding_plan(profile, 1)
        with pytest.raises(ValueError):
            make_comm_plan(profile, plan, wait_free=True, backward_fraction=0.0)
