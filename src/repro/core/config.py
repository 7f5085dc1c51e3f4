"""What one run is: :class:`RunConfig` and the values its validation reads.

:func:`repro.io.from_jsonable` rebuilds a ``RunConfig`` from its field
annotations, so every class they name is importable from here —
``DGCConfig`` included, whose compressor (:mod:`repro.optimizations.dgc`)
only runs that compress load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.faults.config import FaultConfig, check_fault_targets
from repro.nn.zoo import resnet50_profile, vgg16_profile
from repro.robust.config import RobustConfig
from repro.sim.cluster import ClusterSpec, paper_cluster
from repro.sim.costmodel import CommModel

__all__ = ["RunConfig", "DGCConfig", "DATASETS", "PROFILES"]

#: Dataset names; ``name`` is built by ``repro.data.synthetic.make_<name>``.
DATASETS = ("gaussian_blobs", "spirals", "synthetic_images")

PROFILES = {
    "resnet50": resnet50_profile,
    "vgg16": vgg16_profile,
}


@dataclass(frozen=True)
class DGCConfig:
    """DGC hyperparameters (defaults follow Lin et al.)."""

    final_ratio: float = 0.001  # keep top 0.1 %
    warmup_epochs: float = 4.0
    warmup_start_ratio: float = 0.25
    momentum: float = 0.9
    clip_norm: float = 2.5  # local gradient clipping threshold
    num_workers: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.final_ratio <= 1:
            raise ValueError("final_ratio must be in (0, 1]")
        if not 0 < self.warmup_start_ratio <= 1:
            raise ValueError("warmup_start_ratio must be in (0, 1]")
        if self.final_ratio > self.warmup_start_ratio:
            raise ValueError("warm-up must start denser than the final ratio")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be non-negative")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")

    def ratio_at(self, epoch: float) -> float:
        """Exponential sparsity ramp during warm-up.

        At epoch 0 the keep-ratio is ``warmup_start_ratio``; it decays
        geometrically to ``final_ratio`` at ``warmup_epochs`` and stays
        there.
        """
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        if self.warmup_epochs == 0 or epoch >= self.warmup_epochs:
            return self.final_ratio
        t = epoch / self.warmup_epochs
        log_start = np.log(self.warmup_start_ratio)
        log_final = np.log(self.final_ratio)
        return float(np.exp(log_start + (log_final - log_start) * t))


@dataclass
class RunConfig:
    """Complete description of one run (one table cell / figure point)."""

    algorithm: str
    algorithm_params: dict[str, Any] = field(default_factory=dict)
    mode: str = "full"  # "full" | "timing"
    cluster: ClusterSpec = field(default_factory=paper_cluster)
    num_workers: int = 4
    batch_size: int = 32

    # full-mode training setup
    model_name: str = "mlp"
    model_kwargs: dict[str, Any] = field(default_factory=dict)
    dataset_name: str = "spirals"
    dataset_kwargs: dict[str, Any] = field(default_factory=dict)
    epochs: float = 10.0
    base_lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    warmup_fraction: float = 5.0 / 90.0
    milestone_fractions: tuple[float, ...] = (30.0 / 90.0, 60.0 / 90.0, 80.0 / 90.0)
    test_fraction: float = 0.2
    eval_every_epochs: float = 1.0

    # timing-mode setup
    profile_name: str = "resnet50"
    measure_iters: int = 30
    warmup_iters: int = 5

    # optimizations
    num_ps_shards: int = 1
    sharding_strategy: str = "layerwise-greedy"
    wait_free_bp: bool = False
    dgc: bool = False
    dgc_config: DGCConfig | None = None
    local_aggregation: bool = True  # BSP within-machine reduction
    # Hierarchical scale-out selectors. ``collective`` picks AR-SGD's
    # allreduce schedule: None/"ring" = flat ring (paper behaviour),
    # "tree" = k-ary reduce+broadcast tree over machine leaders,
    # "hring" = ring-of-rings (intra-machine reduce → inter-machine
    # ring → broadcast). ``ps_topology`` picks the PS fan-in for BSP:
    # None/"flat" = leaders talk to shards directly, "tree" = per-rack
    # aggregators between machine leaders and shards. Both vanish from
    # fingerprints when unset.
    collective: str | None = field(
        default=None, metadata={"fingerprint": "omit-if-none"}
    )
    ps_topology: str | None = field(
        default=None, metadata={"fingerprint": "omit-if-none"}
    )

    # cost-model knobs
    speed_spread: float = 0.05
    jitter_sigma: float = 0.02
    compute_time_override: float | None = None  # seconds per iteration
    comm_model: CommModel = field(default_factory=CommModel)

    seed: int = 0
    trace: bool = False

    # Fault injection (repro.faults). None = fault-free, zero-overhead.
    # Omitted from the cache fingerprint when None so every pre-fault
    # content address stays valid.
    faults: FaultConfig | None = field(
        default=None, metadata={"fingerprint": "omit-if-none"}
    )

    # Byzantine-robust aggregation / guards (repro.robust). None =
    # unprotected, zero-overhead; same omit-if-none discipline.
    robust: RobustConfig | None = field(
        default=None, metadata={"fingerprint": "omit-if-none"}
    )

    def __post_init__(self) -> None:
        if self.mode not in ("full", "timing"):
            raise ValueError("mode must be 'full' or 'timing'")
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.num_workers > self.cluster.total_gpus:
            raise ValueError(
                f"{self.num_workers} workers exceed the cluster's "
                f"{self.cluster.total_gpus} GPUs"
            )
        if self.mode == "timing" and self.profile_name not in PROFILES:
            raise ValueError(f"unknown profile {self.profile_name!r}")
        if self.mode == "full" and self.dataset_name not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset_name!r}")
        if self.num_ps_shards <= 0:
            raise ValueError("num_ps_shards must be positive")
        if self.dgc_config is not None and not self.dgc:
            # The runner reads dgc_config only when dgc is on; accepted,
            # it would fingerprint apart from the same uncompressed run.
            raise ValueError("dgc_config given without dgc=True")
        algo = self.algorithm.lower().replace("_", "-")
        if self.collective not in (None, "ring", "tree", "hring"):
            raise ValueError("collective must be one of 'ring', 'tree', 'hring'")
        if self.collective in ("tree", "hring"):
            if algo != "ar-sgd":
                raise ValueError(
                    "hierarchical collectives (tree/hring) apply to ar-sgd only"
                )
            if self.dgc or self.robust is not None:
                raise ValueError(
                    "hierarchical collectives are incompatible with "
                    "dgc/robust (those paths use their own schedules)"
                )
        if self.ps_topology not in (None, "flat", "tree"):
            raise ValueError("ps_topology must be 'flat' or 'tree'")
        if self.ps_topology == "tree":
            if algo != "bsp":
                raise ValueError("ps_topology='tree' applies to bsp only")
            if self.dgc or self.robust is not None:
                raise ValueError(
                    "ps_topology='tree' is incompatible with dgc/robust"
                )
        if self.measure_iters <= 0 or self.warmup_iters < 0:
            raise ValueError("invalid timing-mode iteration counts")
        if self.faults is not None:
            check_fault_targets(self.faults.events, self.num_workers, self.cluster)
