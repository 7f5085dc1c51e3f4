"""Byzantine-resilience experiment — robust aggregation under attack.

The paper's algorithms assume honest workers; this artefact measures
what each training protocol retains when some are not. For every
(algorithm × aggregator) cell it

1. runs the attack-free baseline (``faults=None, robust=None`` — the
   cached, fingerprint-stable run the other experiments share),
2. re-runs with ``b`` persistent Byzantine workers (each sends
   ``−scale·g`` instead of its gradient ``g`` — the sign-flipped,
   amplified inner-product attack) and the cell's aggregation rule,
3. reports accuracy retained (faulty final accuracy ÷ baseline final
   accuracy) plus the corruption/rejection/quarantine counters.

Cell semantics:

* ``mean`` — the unprotected baseline-vulnerability cell: the attack
  runs with no robust layer at all (``robust=None``);
* ``median`` / ``trimmed_mean`` / ``norm_clip`` / ``krum`` /
  ``multi_krum`` — the rule is applied at the algorithm's
  gradient-combining point (PS shards for BSP/ASP/SSP, a dense
  allgather for AR-SGD);
* for the pairwise-mixing algorithms (AD-PSGD, GoSGD) and EASGD the
  non-mean cells arm per-peer norm screening instead — a pairwise
  exchange has no quorum to take a median over, so
  distance-from-local-reference is the defense, backed by strike
  quarantine of repeat offenders.

BSP cells run with ``local_aggregation=False`` (baseline and faulty
alike, so the ratio compares identical math): robust rules need one
row per worker, and machine-level pre-aggregation would let a single
Byzantine worker hide inside its group mean.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.experiments.artefact import Artefact, recovery_notes
from repro.experiments.config import mini_accuracy_config
from repro.experiments.session import FailedRun
from repro.faults.config import FaultConfig, FaultEvent
from repro.robust.config import AGGREGATORS, RobustConfig

__all__ = [
    "ARTEFACTS",
    "ROBUST_ALGORITHMS",
    "DEFAULT_AGGREGATORS",
    "byzantine_fault_config",
    "robust_config_for",
]

ROBUST_ALGORITHMS = ("bsp", "asp", "ssp", "easgd", "ar-sgd", "ad-psgd", "gosgd")

#: Default column set: the vulnerability baseline plus the three
#: classic robust rules.
DEFAULT_AGGREGATORS = ("mean", "median", "trimmed_mean", "krum")

#: Algorithms whose defense is per-peer screening, not a quorum rule.
_SCREENING_ALGORITHMS = ("easgd", "ad-psgd", "gosgd")

DEFAULT_BYZANTINE_SCALE = 10.0
DEFAULT_SCREEN_FACTOR = 3.0


def byzantine_fault_config(
    num_workers: int,
    count: int,
    *,
    scale: float = DEFAULT_BYZANTINE_SCALE,
    seed: int = 0,
) -> FaultConfig:
    """``count`` persistent Byzantine workers from t=0 — the highest
    worker ids, so worker 0 (BSP's leader-of-first-group, AR-SGD's
    rank 0) stays honest in every cell."""
    if not 0 < count < num_workers:
        raise ValueError("byzantine count must be in (0, num_workers)")
    events = tuple(
        FaultEvent(
            time=0.0, kind="byzantine", worker=num_workers - 1 - i, scale=scale
        )
        for i in range(count)
    )
    return FaultConfig(events=events, seed=seed)


def robust_config_for(
    algorithm: str, aggregator: str, byzantine: int = 1
) -> RobustConfig | None:
    """The robust layer one grid cell runs with (None = unprotected)."""
    if aggregator == "mean":
        return None
    key = algorithm.lower().replace("_", "-")
    if key in _SCREENING_ALGORITHMS:
        # Pairwise mixing: the rule label selects the cell, the actual
        # defense is norm screening + strike quarantine.
        return RobustConfig(
            aggregator=aggregator,
            screen_factor=DEFAULT_SCREEN_FACTOR,
            quarantine_strikes=3,
        )
    return RobustConfig(aggregator=aggregator, krum_f=byzantine)


def _byzantine_config(c):
    cfg = mini_accuracy_config(c.algorithm, num_workers=c.num_workers, epochs=c.epochs, seed=c.seed)
    if c.algorithm.lower().replace("_", "-") == "bsp":
        cfg = replace(cfg, local_aggregation=False)
    if c.base is None:
        return cfg
    return replace(
        cfg,
        faults=byzantine_fault_config(c.num_workers, c.byzantine, scale=c.scale, seed=c.fault_seed),
        robust=robust_config_for(c.algorithm, c.aggregator, c.byzantine),
    )


def _retained(result, config, base) -> float:
    base_acc = base.final_test_accuracy
    return result.final_test_accuracy / base_acc if base_acc > 0 else float("nan")


def _baseline_accuracy(table, row: dict) -> list[float]:
    runs = [table.baselines[(row["algorithm"], seed)] for seed in table.seeds]
    ran = [run.final_test_accuracy for run in runs if not isinstance(run, FailedRun)]
    return [float(np.mean(ran)) if ran else float("nan")]


ARTEFACTS = {
    "byzantine": Artefact(
        "byzantine",
        title=(
            "Byzantine resilience — accuracy retained with {byzantine} "
            "hostile worker(s), attack scale {scale:g}"
        ),
        axes={"algorithm": "algorithms", "aggregator": "aggregators"},
        shape=dict(
            algorithms=ROBUST_ALGORITHMS, aggregators=DEFAULT_AGGREGATORS, num_workers=8,
            byzantine=1, scale=DEFAULT_BYZANTINE_SCALE, epochs=20.0, fault_seed=0,
        ),
        config=_byzantine_config,
        metric=_retained,
        baseline="algorithm",
        rows=("algorithm",),
        columns="aggregator",
        headers=("algorithm", "baseline acc"),
        labels={"algorithm": str.upper},
        lead=_baseline_accuracy,
        float_format="{:.2f}",
        notes=recovery_notes("robust-layer events", "robust", (7, 12)),
        cli=("workers", "byzantine", "scale", "epochs", "fault_seed", "algorithms", "aggregators"),
        choices={"algorithms": ROBUST_ALGORITHMS, "aggregators": AGGREGATORS},
    ),
}
