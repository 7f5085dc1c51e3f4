"""The PS pull (``core/worker.py:ps_pull``): ASP, SSP, EASGD and BSP's
leaders wait on every PS shard, and count each pull.

Layer-wise sharding cannot split a layer, so a plan asked for more
shards than the model has layers builds one per layer; a shard that
owned nothing would receive no gradient and reply to nothing, and a
worker that waited on it would block forever. A fault-free full run
whose processes all block fails loudly instead of returning a history
that stopped short of its epochs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter

import pytest

from repro.comm.endpoints import Node
from repro.core import asp, bsp, easgd, ssp
from repro.core.base import AlgorithmInfo, TrainingAlgorithm
from repro.core.runner import DistributedRunner
from repro.experiments.config import mini_accuracy_config, timing_config
from repro.io import to_jsonable

from tests.conftest import small_full_config, small_timing_config

PULLING = {"asp": asp, "ssp": ssp, "easgd": easgd, "bsp": bsp}

# Result digests of the runs below, recorded while their plans still
# built a shard for every requested one, the surplus idle. Building only
# the shards that own a layer moved none of them.
DIGESTS = {
    "timing/asp": "62f981ba6e233c66efc40d926ce93a8e071396e9bb689aba844bdc73340b4a38",
    "timing/ssp": "db4ed469249d70c3a36ea0d9a5a84afc6aeccc438af0dedd50c3ea8a0da82d04",
    "full/asp": "d659deaf410140aa337c15abb999f62e267ce1c37b0fcd72b70a19938a68aa51",
    "full/ssp": "c0256fc3c5b0572b5715ffbf3cfb8663b4782e32e1aefbc2501d37f6444dbda2",
    "full/easgd": "17fc526495760e0a3b31dcc74fbbb336c2564afbb4851327989c5918f4ebfe8a",
    "full/bsp": "f5be1835f7a3fb14fd0492abfa18b84a4e050cd186400947cd22dc49ca8d00b6",
}


def result_digest(result) -> str:
    document = json.dumps(to_jsonable(result), sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


@pytest.mark.parametrize("algorithm", ["asp", "ssp"])
def test_more_shards_than_layers_completes_a_timing_run(algorithm):
    """VGG-16 at N = 96 puts 24 shards on 16 layers."""
    cfg = timing_config(algorithm, num_workers=96, model="vgg16", measure_iters=20)
    runner = DistributedRunner(cfg)
    result = runner.run()
    assert cfg.num_ps_shards == 24
    assert len(runner.runtime.ps_nodes) == 16
    assert result.measured_images > 0
    assert result_digest(result) == DIGESTS[f"timing/{algorithm}"]


@pytest.mark.parametrize("algorithm", ["asp", "ssp", "easgd", "bsp"])
def test_more_shards_than_layers_reaches_the_epochs_in_full_mode(algorithm):
    """Eight shards on the mini MLP's layers, fault-free."""
    cfg = dataclasses.replace(
        mini_accuracy_config(algorithm, num_workers=4, epochs=0.5), num_ps_shards=8
    )
    runner = DistributedRunner(cfg)
    history = runner.run()
    assert history.epochs[-1] >= cfg.epochs
    # One shard per layer (weights and biases of three dense layers),
    # every one of them updated, EASGD's pushes included.
    assert len(runner.runtime.ps_nodes) == 6
    assert all(shard.updates_applied > 0 for shard in runner.runtime.ps_nodes)
    assert result_digest(history) == DIGESTS[f"full/{algorithm}"]


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
    """Every pull takes one reply from each shard; a pull cut off by the
    stop flag may have taken some of its replies."""
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
    assert sorted(replies) == [shard.shard_id for shard in runner.runtime.ps_nodes]
    pulls = sum(slot.aggregations for slot in runner.runtime.workers)
    assert pulls <= min(replies.values()) <= max(replies.values()) <= pulls + cfg.num_workers
