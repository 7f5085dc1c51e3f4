"""The PS pull (``core/worker.py:ps_pull``): ASP, SSP, EASGD and BSP's
leaders wait on the shards that own a layer, and count each pull.

Layer-wise sharding cannot split a layer, so S shards over L < S layers
leave S − L shards empty. They receive no gradient and reply to
nothing; a worker that waited on them would block forever. A fault-free
full run whose processes all block fails loudly instead of returning a
history that stopped short of its epochs.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.comm.endpoints import Node
from repro.core import asp, bsp, easgd, ssp
from repro.core.base import AlgorithmInfo, TrainingAlgorithm
from repro.core.runner import DistributedRunner
from repro.experiments.config import mini_accuracy_config, timing_config

from tests.conftest import small_full_config, small_timing_config

PULLING = {"asp": asp, "ssp": ssp, "easgd": easgd, "bsp": bsp}


@pytest.mark.parametrize("algorithm", ["asp", "ssp"])
def test_more_shards_than_layers_completes_a_timing_run(algorithm):
    """VGG-16 at N = 96 puts 24 shards on 16 layers."""
    cfg = timing_config(algorithm, num_workers=96, model="vgg16", measure_iters=20)
    runner = DistributedRunner(cfg)
    result = runner.run()
    assert cfg.num_ps_shards == 24
    assert len(runner.runtime.active_shards) == 16
    assert result.measured_images > 0


@pytest.mark.parametrize("algorithm", ["asp", "ssp", "easgd", "bsp"])
def test_more_shards_than_layers_reaches_the_epochs_in_full_mode(algorithm):
    """Eight shards on the mini MLP's layers, fault-free."""
    cfg = dataclasses.replace(
        mini_accuracy_config(algorithm, num_workers=4, epochs=0.5), num_ps_shards=8
    )
    runner = DistributedRunner(cfg)
    history = runner.run()
    active = runner.runtime.active_shards
    assert 0 < len(active) < 8
    assert history.epochs[-1] >= cfg.epochs
    idle = [shard for shard in runner.runtime.ps_nodes if shard not in active]
    # Nobody sends an empty shard anything, EASGD's pushes included.
    assert all(shard.updates_applied == 0 for shard in idle)
    assert all(shard.pending("req") == 0 for shard in idle)


class _Blocked(TrainingAlgorithm):
    """Every worker waits on a mailbox nobody writes to."""

    info = AlgorithmInfo(
        name="Blocked", centralized=False, synchronous=False, sends_gradients=False
    )

    def worker_factory(self, runtime, wids):
        def worker(slot):
            yield slot.node.recv("nobody-writes-here")

        return worker


def test_a_deadlocked_full_run_fails_loudly():
    cfg = small_full_config("ad-psgd", epochs=0.5)
    with pytest.raises(RuntimeError, match=r"full run drained at epoch 0\.000 of 0\.5"):
        DistributedRunner(cfg, _Blocked()).run()


def counted_pulls(monkeypatch) -> Counter:
    """Wrap each algorithm module's ``ps_pull``; count completed pulls."""
    pulls: Counter = Counter()
    for module in PULLING.values():
        pull = module.ps_pull

        def counting(rt, slot, *args, pull=pull):
            replies = yield from pull(rt, slot, *args)
            pulls[slot.wid] += 1
            return replies

        monkeypatch.setattr(module, "ps_pull", counting)
    return pulls


@pytest.mark.parametrize("mode", ["timing", "full"])
@pytest.mark.parametrize("algorithm", list(PULLING))
def test_aggregations_match_an_outside_count(algorithm, mode, monkeypatch):
    """Over the workers that pulled, the fewest and most pulls per
    iteration; BSP's peers take the leader's broadcast and never pull."""
    params = {"tau": 2} if algorithm == "easgd" else {}
    if mode == "timing":
        cfg = small_timing_config(algorithm, num_ps_shards=2, algorithm_params=params)
    else:
        cfg = small_full_config(algorithm, num_ps_shards=2, epochs=1.0, algorithm_params=params)
    pulls = counted_pulls(monkeypatch)
    runner = DistributedRunner(cfg)
    result = runner.run()
    workers = runner.runtime.workers
    rates = [pulls[wid] / workers[wid].iterations for wid in sorted(pulls)]
    assert result.metadata["aggregations"] == {"min": min(rates), "max": max(rates)}
    assert all(pulls[slot.wid] == slot.aggregations for slot in workers)
    if algorithm in ("asp", "bsp"):
        assert min(rates) == max(rates) == 1.0
    if algorithm == "bsp":
        assert sorted(pulls) == [group[0] for group in bsp.aggregation_groups(runner.runtime)]


def test_a_pull_waits_on_one_reply_per_active_shard(monkeypatch):
    """Every pull takes one reply from each active shard; a pull cut off
    by the stop flag may have taken some of its replies."""
    replies: Counter = Counter()
    deliver = Node._deliver

    def counted(self, msg, epoch, dst, trace_worker):
        if msg.kind == "reply":
            replies[msg.meta["shard"]] += 1
        deliver(self, msg, epoch, dst, trace_worker)

    monkeypatch.setattr(Node, "_deliver", counted)
    cfg = dataclasses.replace(
        mini_accuracy_config("easgd", num_workers=4, epochs=0.5), num_ps_shards=8
    )
    runner = DistributedRunner(cfg)
    runner.run()
    active = [shard.shard_id for shard in runner.runtime.active_shards]
    assert sorted(replies) == active
    pulls = sum(slot.aggregations for slot in runner.runtime.workers)
    assert pulls <= min(replies.values()) <= max(replies.values()) <= pulls + cfg.num_workers
