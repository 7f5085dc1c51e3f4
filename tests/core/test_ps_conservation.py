"""Under link faults that evict no one, the PS algorithms fold exactly
the gradients their workers sent: none lost, none folded twice.

Every gradient message addressed to a shard ends the run in exactly one
of three places: folded into the shard's parameters, still queued in the
shard's ``req`` mailbox after the graceful stop, or held in an
incomplete set (a sender's partial set; for BSP, the shard's open
round). The messages are counted by wrappers installed here, not by
counters in the source. Cells: BSP, ASP (per-layer and whole-set) and
SSP, in timing and full mode, under flaky, degrade and a healing
partition.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest

from repro.comm import endpoints
from repro.comm.messages import Message
from repro.comm.ps import PSShard
from repro.core.bsp import BSPShard
from repro.core.runner import DistributedRunner
from repro.experiments.config import mini_accuracy_config, timing_config
from repro.faults.config import FaultConfig, FaultEvent
from repro.sim.cluster import paper_cluster

#: label -> (algorithm, config overrides)
CELLS = {
    "bsp": ("bsp", {}),
    "asp/per-layer": ("asp", {"wait_free_bp": True}),
    "asp/whole-set": ("asp", {"wait_free_bp": False}),
    # Wait-free BP: one message per layer, so sets can be left partial.
    "ssp/per-layer": ("ssp", {"wait_free_bp": True}),
}

#: schedule -> (FaultEvent kind, severity field); machine 1, mid-run.
SCHEDULES = {
    "flaky": ("drop", "drop_prob"),
    "degrade": ("link_degrade", "rate_fraction"),
    "partition": ("partition", None),
}


def config(mode, algorithm, overrides, faults=None):
    if mode == "timing":
        return timing_config(
            algorithm, num_workers=8, measure_iters=6, warmup_iters=1, trace=False,
            faults=faults, **overrides,
        )
    cluster = paper_cluster(bandwidth_gbps=10, machines=2, gpus_per_machine=2)
    return mini_accuracy_config(
        algorithm, num_workers=4, epochs=0.5, cluster=cluster, faults=faults, **overrides
    )


@functools.lru_cache(maxsize=None)
def fault_free_end(mode, label):
    algorithm, overrides = CELLS[label]
    runner = DistributedRunner(config(mode, algorithm, overrides))
    runner.run()
    return runner.engine.now


class Ledger:
    """Where every shard-bound gradient message went."""

    def __init__(self):
        self.sent: list[Message] = []
        self.folded: list[Message] = []
        # (shard id, sender wid or "round") -> messages of an incomplete set
        self.open: dict[tuple, list[Message]] = {}
        # (shard id, sender wid) -> complete sets awaiting their fold
        self.ready: dict[tuple, list[list[Message]]] = {}

    def install(self, monkeypatch):
        def message(*args):
            msg = Message(*args)
            if msg.kind == "req" and msg.meta.get("op") == "grad":
                self.sent.append(msg)
            return msg

        collect = PSShard.collect_sender_entry
        fold = PSShard.fold_gradient
        apply_entry = PSShard.apply_entry_gradient
        accumulate = PSShard.accumulate_entry
        apply_round = PSShard.apply_gradient

        def collect_sender_entry(shard, wid, msg):
            complete, acc = collect(shard, wid, msg)
            key = (shard.shard_id, wid)
            self.open.setdefault(key, []).append(msg)
            if complete:
                self.ready.setdefault(key, []).append(self.open.pop(key))
            return complete, acc

        def fold_gradient(shard, wid, acc):
            self.folded.extend(self.ready[shard.shard_id, wid].pop(0))
            fold(shard, wid, acc)

        def apply_entry_gradient(shard, msg, lr):
            self.folded.append(msg)
            apply_entry(shard, msg, lr)

        def accumulate_entry(shard, acc, msg, weight=1.0):
            self.open.setdefault((shard.shard_id, "round"), []).append(msg)
            return accumulate(shard, acc, msg, weight)

        def apply_gradient(shard, grad_slice, lr):
            self.folded.extend(self.open.pop((shard.shard_id, "round"), []))
            apply_round(shard, grad_slice, lr)

        monkeypatch.setattr(endpoints, "Message", message)
        monkeypatch.setattr(PSShard, "collect_sender_entry", collect_sender_entry)
        monkeypatch.setattr(PSShard, "fold_gradient", fold_gradient)
        monkeypatch.setattr(PSShard, "apply_entry_gradient", apply_entry_gradient)
        monkeypatch.setattr(BSPShard, "accumulate_entry", accumulate_entry)
        monkeypatch.setattr(BSPShard, "apply_gradient", apply_gradient)


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("label", list(CELLS))
@pytest.mark.parametrize("mode", ["timing", "full"])
def test_ps_folds_every_sent_gradient_exactly_once(monkeypatch, mode, label, schedule):
    t0 = fault_free_end(mode, label)
    algorithm, overrides = CELLS[label]
    kind, severity_field = SCHEDULES[schedule]
    fields = {severity_field: 0.25} if severity_field else {}
    event = FaultEvent(time=0.3 * t0, kind=kind, machine=1, duration=0.1 * t0, **fields)
    faults = FaultConfig(
        events=(event,),
        heartbeat_interval=0.01 * t0,
        heartbeat_timeout=0.5 * t0,
        max_virtual_time=50 * t0,
    )
    ledger = Ledger()
    ledger.install(monkeypatch)
    runner = DistributedRunner(config(mode, algorithm, overrides, faults))
    result = runner.run()
    assert result.metadata["faults"]["evictions"] == []
    assert runner.engine.now < 50 * t0  # drained: nothing left in flight

    shards = runner.runtime.ps_nodes
    shard_ids = {shard.node_id for shard in shards}
    sent = [msg for msg in ledger.sent if msg.dst in shard_ids]
    queued = [
        msg for shard in shards for msg in shard.mailbox("req")._items
        if msg.meta.get("op") == "grad"
    ]
    for (shard_id, sender), msgs in ledger.open.items():
        if sender != "round":  # a partial set is the shard's own count
            assert len(msgs) == shards[shard_id]._partial[sender][0]
    partial = [msg for msgs in ledger.open.values() for msg in msgs]
    assert not any(ledger.ready.values())  # every complete set was folded
    assert ledger.folded
    assert Counter(map(id, ledger.folded + queued + partial)) == Counter(map(id, sent))
