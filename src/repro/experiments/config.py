"""Canonical experiment configurations (the DESIGN.md §6 scale mapping).

Accuracy experiments run at "mini" scale: a small MLP on the spirals
dataset stands in for ResNet-50 on ImageNet-1K (the convergence-shape
findings depend on the aggregation semantics, not the architecture).
The paper's training recipe is preserved structurally:

* learning rate η = base·N (linear scaling), warm-up over the first
  5/90 of training, 10× decays at 30/90, 60/90, 80/90;
* momentum 0.9, weight decay 1e-4, per-worker batch;
* the authors' hyperparameter choices: SSP s=10, EASGD τ=8, GoSGD
  p=0.01 (Table II), plus the Table III sweep grids.

The virtual-time axis is calibrated so that the compute/communication
time ratio of a mini run matches the paper's ResNet-50 runs on the
chosen fabric (``full_mode_cluster``), which is what makes Fig 1(b)'s
time-wise convergence comparison meaningful.

Timing experiments need no scaling: they use the true ResNet-50 /
VGG-16 layer profiles on the paper's exact cluster.
"""

from __future__ import annotations

import math

from repro.core.base import is_centralized
from repro.core.config import DGCConfig, RunConfig
from repro.faults.config import FaultConfig
from repro.sim.cluster import ClusterSpec, MachineSpec, paper_cluster

__all__ = [
    "PAPER_HYPERPARAMS",
    "MINI_MODEL",
    "MINI_DATASET",
    "full_mode_cluster",
    "mini_accuracy_config",
    "mini_dgc_config",
    "timing_config",
    "representative_config",
    "set_default_faults",
]

# Process-wide default fault configuration. The CLI's ``--fault-spec``
# installs one here so that every config the experiment factories build
# afterwards carries it (explicit ``faults=`` overrides still win).
_DEFAULT_FAULTS: FaultConfig | None = None


def set_default_faults(faults: FaultConfig | None) -> None:
    """Install (or clear, with ``None``) the process-wide default
    :class:`~repro.faults.config.FaultConfig`."""
    global _DEFAULT_FAULTS
    _DEFAULT_FAULTS = faults

# The authors' recommended settings used in Table II / Fig 1 (§VI-A).
PAPER_HYPERPARAMS: dict[str, dict] = {
    "bsp": {},
    "asp": {},
    "ssp": {"staleness": 10},
    "easgd": {"tau": 8},
    "ar-sgd": {},
    "gosgd": {"p": 0.01},
    "ad-psgd": {},
}

# Mini-scale stand-ins (see DESIGN.md §2 substitution table).
MINI_MODEL = dict(
    model_name="mlp",
    model_kwargs=dict(in_features=2, hidden=(64, 64), num_classes=5),
)
MINI_DATASET = dict(
    dataset_name="spirals",
    dataset_kwargs=dict(num_samples=6000, num_classes=5, noise=0.08),
)
MINI_BATCH = 16
MINI_EPOCHS = 30.0
MINI_COMPUTE_TIME = 0.05  # virtual seconds per iteration
# The mini problem's stability region is narrower than ImageNet's, so
# the scaling rule applies to a smaller base rate, and warm-up covers a
# comparable *fraction of update steps* (20 % of the shortened run).
MINI_BASE_LR = 0.0125
MINI_WARMUP_FRACTION = 0.2

# Paper-measured compute/communication ratios for ResNet-50 at batch
# 128 (one full-model transfer time ÷ one iteration's compute time).
_COMM_COMPUTE_RATIO = {"56g": 0.025, "10g": 0.142}


def _mini_model_bytes() -> int:
    """Flat size of the default mini model (float32 wire format)."""
    d_in = MINI_MODEL["model_kwargs"]["in_features"]
    hidden = MINI_MODEL["model_kwargs"]["hidden"]
    classes = MINI_MODEL["model_kwargs"]["num_classes"]
    widths = [d_in, *hidden, classes]
    params = sum(a * b + b for a, b in zip(widths, widths[1:]))
    return params * 4


def full_mode_cluster(num_workers: int, *, fabric: str = "56g") -> ClusterSpec:
    """A mini cluster whose bandwidth gives the paper's ResNet-50
    communication/compute time ratio for the chosen fabric."""
    if fabric not in _COMM_COMPUTE_RATIO:
        raise ValueError(f"fabric must be one of {sorted(_COMM_COMPUTE_RATIO)}")
    machines = max(1, math.ceil(num_workers / 4))
    gpus = min(4, num_workers)
    transfer_time = _COMM_COMPUTE_RATIO[fabric] * MINI_COMPUTE_TIME
    bytes_per_s = _mini_model_bytes() / transfer_time
    gbps = bytes_per_s * 8 / 1e9 / 0.9  # invert the goodput factor
    return ClusterSpec(
        machines=machines,
        machine=MachineSpec(gpus=gpus),
        network_bandwidth_gbps=gbps,
        network_latency_s=50e-6,
        name=f"mini-{fabric}",
    )


def mini_accuracy_config(
    algorithm: str,
    *,
    num_workers: int = 24,
    epochs: float = MINI_EPOCHS,
    seed: int = 0,
    fabric: str = "56g",
    algorithm_params: dict | None = None,
    **overrides,
) -> RunConfig:
    """Full-mode config reproducing the §VI-A accuracy setup at mini
    scale. ``algorithm_params=None`` selects the authors' recommended
    hyperparameters (PAPER_HYPERPARAMS)."""
    key = algorithm.lower().replace("_", "-")
    params = (
        dict(PAPER_HYPERPARAMS.get(key, {}))
        if algorithm_params is None
        else dict(algorithm_params)
    )
    centralized = is_centralized(key)
    defaults = dict(
        algorithm=algorithm,
        algorithm_params=params,
        mode="full",
        cluster=full_mode_cluster(num_workers, fabric=fabric),
        num_workers=num_workers,
        batch_size=MINI_BATCH,
        epochs=epochs,
        base_lr=MINI_BASE_LR,
        warmup_fraction=MINI_WARMUP_FRACTION,
        seed=seed,
        compute_time_override=MINI_COMPUTE_TIME,
        num_ps_shards=2 if centralized else 1,
        eval_every_epochs=max(1.0, epochs / 20.0),
        faults=_DEFAULT_FAULTS,
        **MINI_MODEL,
        **MINI_DATASET,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def mini_dgc_config(num_workers: int) -> DGCConfig:
    """DGC settings rescaled to the mini model (DESIGN.md §6).

    The paper's 0.1 % keep-ratio is meaningless for a ~5 k-parameter
    model (it would send 5 scalars); the mini equivalent keeps the
    compression *pressure* (≈8× fewer bytes than dense) while staying
    above the degeneracy floor.
    """
    return DGCConfig(
        final_ratio=0.125,
        warmup_start_ratio=0.5,
        warmup_epochs=2.0,
        # Lin et al. pick clip_norm for ImageNet-scale gradient norms;
        # the mini problem's per-batch norms are ~5x larger relative to
        # the threshold, so the mini mapping scales it up to keep
        # clipping as rare as in the paper's runs.
        clip_norm=12.0,
        num_workers=num_workers,
    )


def timing_config(
    algorithm: str,
    *,
    num_workers: int,
    bandwidth_gbps: float = 10.0,
    model: str = "resnet50",
    num_ps_shards: int | None = None,
    measure_iters: int = 25,
    warmup_iters: int = 5,
    seed: int = 0,
    algorithm_params: dict | None = None,
    **overrides,
) -> RunConfig:
    """Timing-mode config on the paper's cluster (§VI "System setting").

    Workers pack 4 per VM as in the paper; runs below 4 workers use a
    single VM ("the training with 1 to 4 workers is done on a virtual
    machine"). The PS:worker ratio defaults to the paper's profiled
    optimum of 1 PS per 4 workers (§VI-D), min 1.
    """
    key = algorithm.lower().replace("_", "-")
    machines = max(1, math.ceil(num_workers / 4))
    cluster = paper_cluster(
        bandwidth_gbps=bandwidth_gbps,
        machines=machines,
        gpus_per_machine=min(4, num_workers),
    )
    centralized = is_centralized(key)
    if num_ps_shards is None:
        num_ps_shards = max(1, num_workers // 4) if centralized else 1
    params = (
        dict(PAPER_HYPERPARAMS.get(key, {}))
        if algorithm_params is None
        else dict(algorithm_params)
    )
    defaults = dict(
        algorithm=algorithm,
        algorithm_params=params,
        mode="timing",
        cluster=cluster,
        num_workers=num_workers,
        batch_size=128 if model == "resnet50" else 96,
        profile_name=model,
        measure_iters=measure_iters,
        warmup_iters=warmup_iters,
        num_ps_shards=num_ps_shards,
        seed=seed,
        trace=True,
        faults=_DEFAULT_FAULTS,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


# One representative run per experiment — the config ``repro trace``
# (and ``repro run --trace-out``) instruments. Timing experiments pick
# their largest default scale; accuracy experiments pick the headline
# algorithm of the table.
_REPRESENTATIVE = {
    "table2": ("accuracy", "bsp"),
    "fig1": ("accuracy", "bsp"),
    "table3": ("accuracy", "ssp"),
    "table4": ("accuracy", "asp"),
    "fig2": ("timing", "bsp"),
    "fig3": ("timing", "bsp"),
    "fig4": ("timing", "asp"),
}


def representative_config(
    experiment: str,
    *,
    workers: int | None = None,
    iters: int | None = None,
    epochs: float | None = None,
    model: str = "resnet50",
    bandwidth_gbps: float = 10.0,
    seed: int = 0,
) -> RunConfig:
    """One representative :class:`RunConfig` for a paper experiment.

    Used by trace export: rather than tracing a whole sweep, the CLI
    re-runs this single run with observability enabled. Raises
    ``ValueError`` for experiments with no simulator runs (table1).
    """
    if experiment not in _REPRESENTATIVE:
        raise ValueError(
            f"no representative run for {experiment!r}; "
            f"choose from {sorted(_REPRESENTATIVE)}"
        )
    kind, algorithm = _REPRESENTATIVE[experiment]
    if kind == "timing":
        return timing_config(
            algorithm,
            num_workers=workers if workers is not None else (8 if experiment == "fig2" else 24),
            bandwidth_gbps=bandwidth_gbps,
            model=model,
            measure_iters=iters if iters is not None else 15,
            seed=seed,
        )
    return mini_accuracy_config(
        algorithm,
        num_workers=workers if workers is not None else 8,
        epochs=epochs if epochs is not None else 2.0,
        seed=seed,
    )
