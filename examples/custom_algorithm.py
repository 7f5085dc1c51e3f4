#!/usr/bin/env python
"""Extending the framework with a *new* distributed training algorithm.

Implements **Local SGD / post-local averaging**: every worker trains
locally and all workers synchronously average their parameters every
``period`` iterations via the same ring AllReduce substrate AR-SGD
uses. This sits between BSP (period=1, gradient-space) and EASGD
(elastic, PS-based) in the design space — exactly the kind of
algorithm the paper's guidance section is meant to inform.

The example shows the full extension surface:

* subclass :class:`~repro.core.base.TrainingAlgorithm`,
* declare the Table-I-style classification via ``AlgorithmInfo``,
* spawn worker processes from ``spawn_workers`` — through
  ``runtime.spawn(..., owner=wid)``, like the in-tree algorithms — that
  combine the provided building blocks (``compute_iteration`` + ring
  messaging),
* register with ``@register_algorithm`` and run through the standard
  :class:`~repro.core.runner.DistributedRunner`.

Usage::

    python examples/custom_algorithm.py [period]
"""

import sys

import numpy as np

from repro.comm.collectives import chunk_slices, ring_allreduce_plan, ring_neighbors
from repro.core.base import AlgorithmInfo, TrainingAlgorithm, register_algorithm
from repro.core.runner import DistributedRunner, RunConfig, Runtime
from repro.core.worker import WorkerSlot, compute_iteration
from repro.sim.cluster import paper_cluster


def _ring_average_params(rt: Runtime, slot: WorkerSlot):
    """Synchronously average all workers' parameters over the ring."""
    world = rt.config.num_workers
    vec = slot.comp.get_params() if slot.comp is not None else None
    if world == 1:
        return
    _, right = ring_neighbors(slot.wid, world)
    right_node = rt.workers[right].node
    n = rt.total_elements
    slices = chunk_slices(n, world)
    buf = vec.copy() if vec is not None else None
    bpp = rt.sharding.bytes_per_param
    for step in ring_allreduce_plan(slot.wid, world):
        send_slice = slices[step.send_chunk]
        nbytes = max((send_slice.stop - send_slice.start) * bpp, 1)
        payload = buf[send_slice].copy() if buf is not None else None
        slot.node.send(right_node, "lsgd-ring", nbytes=nbytes, payload=payload)
        msg = yield slot.node.recv("lsgd-ring")
        if buf is not None and msg.payload is not None:
            recv_slice = slices[step.recv_chunk]
            if step.reduce:
                buf[recv_slice] += msg.payload
            else:
                buf[recv_slice] = msg.payload
    if slot.comp is not None and buf is not None:
        slot.comp.set_params(buf / world)


def _local_sgd_worker(rt: Runtime, slot: WorkerSlot, period: int):
    local_iter = 0
    while not rt.stopping:
        grad = yield from compute_iteration(rt, slot)
        if slot.comp is not None and grad is not None:
            # Post-local SGD uses the scaled rate: frequent full
            # averaging restores the effective large batch.
            slot.comp.apply_gradient(grad, rt.lr())
        local_iter += 1
        if local_iter % period == 0:
            yield from _ring_average_params(rt, slot)
        rt.on_iteration(slot)


@register_algorithm
class LocalSGD(TrainingAlgorithm):
    """Synchronous periodic model averaging over a ring."""

    info = AlgorithmInfo(
        name="LocalSGD",
        centralized=False,
        synchronous=True,
        sends_gradients=False,
        hyperparameters=("period",),
    )

    def __init__(self, **hyperparams):
        super().__init__(**hyperparams)
        self.period = int(self.hyperparams.get("period", 4))
        if self.period <= 0:
            raise ValueError("period must be positive")

    def setup(self, runtime: Runtime) -> None:
        self.runtime = runtime
        self.spawn_workers(runtime, runtime.live_worker_ids())

    def spawn_workers(self, runtime: Runtime, wids: list[int]) -> None:
        for wid in wids:
            worker = _local_sgd_worker(runtime, runtime.workers[wid], self.period)
            runtime.spawn(worker, name=f"localsgd-w{wid}", owner=wid)

    def global_params(self) -> np.ndarray | None:
        return self._average_worker_params()


def main() -> None:
    period = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    config = RunConfig(
        algorithm="localsgd",
        algorithm_params={"period": period},
        mode="full",
        cluster=paper_cluster(bandwidth_gbps=56, machines=2, gpus_per_machine=4),
        num_workers=8,
        batch_size=16,
        model_name="mlp",
        model_kwargs=dict(in_features=2, hidden=(64, 64), num_classes=5),
        dataset_name="spirals",
        dataset_kwargs=dict(num_samples=3000, num_classes=5),
        epochs=15.0,
        base_lr=0.0125,
        warmup_fraction=0.2,
        compute_time_override=0.05,
        seed=0,
    )
    runner = DistributedRunner(config)
    print(f"Training with custom algorithm {runner.algorithm.describe()}...")
    history = runner.run()
    print(f"Final test accuracy (period={period}): {history.final_test_accuracy:.4f}")
    print(
        "Try different averaging periods: period=1 behaves like AR-SGD in "
        "parameter space; large periods drift like EASGD/GoSGD."
    )


if __name__ == "__main__":
    main()
