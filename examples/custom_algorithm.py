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
* give ``worker_factory`` — the base class spawns one process per live
  worker from it (``runtime.spawn(..., owner=wid)``, like the in-tree
  algorithms) and evaluates the average of the replicas — whose workers
  combine the provided building blocks (``compute_iteration`` +
  ``ring_allreduce``),
* register with ``@register_algorithm`` and run through the standard
  :class:`~repro.core.runner.DistributedRunner`.

The ring is the ``wids`` the workers were spawned with, not
``config.num_workers``: after a crash the base class respawns the
survivors over a shorter ring, and that is all the fault tolerance
this algorithm needs.

Usage::

    python examples/custom_algorithm.py [period]
"""

import sys

from repro.core.base import AlgorithmInfo, TrainingAlgorithm, register_algorithm
from repro.core.runner import DistributedRunner, RunConfig, Runtime
from repro.core.worker import WorkerSlot, compute_iteration, ring_allreduce
from repro.sim.cluster import paper_cluster


def _local_sgd_worker(rt: Runtime, slot: WorkerSlot, ring: list[int], period: int):
    local_iter = 0
    while not rt.stopping:
        grad = yield from compute_iteration(rt, slot)
        if slot.comp is not None and grad is not None:
            # Post-local SGD uses the scaled rate: frequent full
            # averaging restores the effective large batch.
            slot.comp.apply_gradient(grad, rt.lr())
        local_iter += 1
        if local_iter % period == 0:
            # Synchronously average the ring's parameters.
            params = slot.comp.get_params() if slot.comp is not None else None
            total = yield from ring_allreduce(
                rt, slot, ring, "lsgd-ring", params, rt.total_elements
            )
            if total is not None:
                slot.comp.set_params(total / len(ring))
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

    def worker_factory(self, runtime: Runtime, wids: list[int]):
        return lambda slot: _local_sgd_worker(runtime, slot, wids, self.period)


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
