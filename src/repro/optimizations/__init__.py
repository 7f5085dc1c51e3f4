"""The three optimization techniques of §V.

* :mod:`repro.optimizations.sharding` — parameter sharding across
  multiple PS shards (layer-wise, as TensorFlow does; plus ablation
  strategies);
* :mod:`repro.optimizations.waitfree` — wait-free backpropagation:
  layer-gradient communication overlapped with the remaining backward
  computation;
* :mod:`repro.optimizations.dgc` — deep gradient compression (Lin et
  al., ICLR'18): top-0.1 % sparsification with local gradient
  accumulation, momentum correction, gradient clipping, momentum
  factor masking, and warm-up.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "sharding": ("ShardingPlan", "ShardAssignment", "make_sharding_plan"),
        "waitfree": ("CommPlan", "CommPlanEntry", "make_comm_plan"),
        "dgc": ("DGCConfig", "DGCCompressor", "SparseGradient"),
    },
)
