"""repro — a unified framework and cluster simulator for distributed
DNN training algorithms.

This library reproduces *An In-Depth Analysis of Distributed Training
of Deep Neural Networks* (Ko, Choi, Seo, Kim — IPDPS 2021). It
implements, on a single unified substrate:

* the seven distributed training algorithms the paper evaluates —
  **BSP, ASP, SSP, EASGD** (centralized / parameter-server) and
  **AR-SGD, GoSGD, AD-PSGD** (decentralized) — in :mod:`repro.core`;
* the three optimization techniques — **parameter sharding,
  wait-free backpropagation, deep gradient compression (DGC)** — in
  :mod:`repro.optimizations`;
* a pure-numpy DNN substrate (:mod:`repro.nn`), synthetic datasets and
  worker partitioning (:mod:`repro.data`);
* a discrete-event cluster simulator (:mod:`repro.sim`) and
  communication substrate (:mod:`repro.comm`) that reproduce the
  paper's 6-machine × 4-GPU testbed, its 10/56 Gbps networks, PS
  bottlenecks, stragglers, and collectives;
* experiment artefacts and report rendering (:mod:`repro.experiments`,
  :mod:`repro.analysis`) regenerating every table and figure of the
  paper's evaluation section.

Quick start::

    from repro.core import make_algorithm
    from repro.experiments.config import mini_accuracy_config
    from repro.core.runner import DistributedRunner

    config = mini_accuracy_config(num_workers=4, epochs=4)
    runner = DistributedRunner.from_config(config, algorithm="bsp")
    history = runner.run()
    print(history.final_test_accuracy)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
