"""Unit tests for the PS shard infrastructure (via a real runtime)."""

import numpy as np
import pytest

from repro.comm.messages import Message
from repro.comm.ps import place_shards
from repro.core.runner import DistributedRunner
from repro.optimizations.dgc import DGCConfig

from tests.conftest import small_full_config


def make_runner(**overrides):
    cfg = small_full_config("asp", num_ps_shards=2, **overrides)
    return DistributedRunner(cfg)


def first_entry_idx(rt, shard):
    """Plan index of the first comm-plan entry aimed at ``shard``."""
    return next(
        i for i, e in enumerate(rt.comm_plan.entries) if e.shard_id == shard.shard_id
    )


class TestPlacement:
    def test_round_robin(self):
        assert place_shards(5, 3) == [0, 1, 2, 0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            place_shards(0, 3)


class TestShardState:
    def test_params_partition_initial_model(self):
        runner = make_runner()
        rt = runner.runtime
        rebuilt = np.zeros(rt.total_elements)
        for shard in rt.ps_nodes:
            shard.assignment.scatter(rebuilt, shard.params)
        np.testing.assert_array_equal(rebuilt, rt.init_params)

    def test_entries_per_sender_dense_vs_waitfree(self):
        dense = make_runner()
        wf = make_runner(wait_free_bp=True)
        for shard in dense.runtime.ps_nodes:
            assert shard.entries_per_sender == 1
        total_wf = sum(s.entries_per_sender for s in wf.runtime.ps_nodes)
        assert total_wf == len(wf.runtime.profile.layers)


class TestAccumulateEntry:
    def test_dense_accumulation(self):
        runner = make_runner()
        shard = runner.runtime.ps_nodes[0]
        n = shard.assignment.num_elements
        msg = Message(
            src=0, dst=1, kind="req", nbytes=n * 4,
            payload=np.ones(n), meta={"entry_idx": first_entry_idx(runner.runtime, shard)},
        )
        acc = shard.accumulate_entry(None, msg)
        acc = shard.accumulate_entry(acc, msg)
        assert np.allclose(acc, 2.0)

    def test_sparse_accumulation(self):
        runner = make_runner(dgc=True)
        shard = runner.runtime.ps_nodes[0]
        n = shard.assignment.num_elements
        msg = Message(
            src=0, dst=1, kind="req", nbytes=16,
            payload=(np.array([0, 2]), np.array([1.0, 3.0])),
            meta={"entry_idx": first_entry_idx(runner.runtime, shard)},
        )
        acc = shard.accumulate_entry(None, msg)
        assert acc[0] == 1.0 and acc[2] == 3.0
        assert acc.sum() == 4.0
        assert acc.size == n

    def test_timing_payload_ignored(self):
        runner = make_runner()
        shard = runner.runtime.ps_nodes[0]
        msg = Message(src=0, dst=1, kind="req", nbytes=10, payload=None, meta={})
        assert shard.accumulate_entry(None, msg) is None


class TestApplyGradient:
    def test_flat_sgd_path_moves_all_coords(self):
        runner = make_runner()
        shard = runner.runtime.ps_nodes[0]
        before = shard.params.copy()
        shard.apply_gradient(np.ones_like(shard.params), 0.1)
        assert shard.updates_applied == 1
        assert not np.allclose(shard.params, before)
        assert np.all(shard._last_modified == shard._version)

    def test_dgc_path_sparse_and_tracked(self):
        runner = make_runner(dgc=True)
        shard = runner.runtime.ps_nodes[0]
        grad = np.zeros_like(shard.params)
        grad[3] = 2.0
        before = shard.params.copy()
        shard.apply_gradient(grad, 0.5)
        moved = np.flatnonzero(shard.params != before)
        assert list(moved) == [3]
        assert shard._last_modified[3] == shard._version
        assert shard._last_modified[0] == 0

    def test_timing_mode_counts_only(self):
        from tests.conftest import small_timing_config

        runner = DistributedRunner(small_timing_config("asp", num_ps_shards=2))
        shard = runner.runtime.ps_nodes[0]
        shard.apply_gradient(None, 0.1)
        assert shard.updates_applied == 1
        assert shard.params is None


class TestDeltaPull:
    def test_reply_contains_only_changed_coords(self):
        runner = make_runner(dgc=True)
        rt = runner.runtime
        rt.stopping = True  # park the live workers; drive the shard manually
        shard = rt.ps_nodes[0]
        worker = rt.workers[0]
        grad = np.zeros_like(shard.params)
        grad[[1, 4]] = 1.0
        shard.apply_gradient(grad, 0.1)
        shard.reply_params(worker.node, meta={"trace_worker": 0})
        rt.engine.run(until=1.0)
        box = worker.node.mailbox("reply")
        assert len(box) == 1
        msg = box._items[0]
        tag, idx, values = msg.payload
        assert tag == "delta"
        assert sorted(idx.tolist()) == [1, 4]
        assert msg.nbytes == 2 * 8

    def test_second_pull_is_empty_without_updates(self):
        runner = make_runner(dgc=True)
        rt = runner.runtime
        rt.stopping = True
        shard = rt.ps_nodes[0]
        worker = rt.workers[0]
        grad = np.zeros_like(shard.params)
        grad[2] = 1.0
        shard.apply_gradient(grad, 0.1)
        shard.reply_params(worker.node, meta={"trace_worker": 0})
        shard.reply_params(worker.node, meta={"trace_worker": 0})
        rt.engine.run(until=1.0)
        box = worker.node.mailbox("reply")
        first, second = box._items
        assert first.payload[1].size == 1
        assert second.payload[1].size == 0


class TestEntryReplies:
    def test_layerwise_reply_slice(self):
        runner = make_runner(wait_free_bp=True)
        rt = runner.runtime
        rt.stopping = True
        shard = rt.ps_nodes[0]
        worker = rt.workers[0]
        idx = first_entry_idx(rt, shard)
        shard.reply_entry_params(worker.node, idx, trace_worker=0)
        rt.engine.run(until=1.0)
        msg = worker.node.mailbox("reply")._items[0]
        assert msg.meta["entry_idx"] == idx
        entry = rt.comm_plan.entries[idx]
        offset, length = entry.shard_offset, entry.num_elements
        np.testing.assert_array_equal(msg.payload, shard.params[offset : offset + length])
