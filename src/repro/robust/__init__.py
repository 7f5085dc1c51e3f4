"""Byzantine-robust aggregation, screening, and training-loop guards.

``robust=None`` on a :class:`~repro.core.runner.RunConfig` is the
zero-overhead path (bit-identical to the unprotected simulator);
attaching a :class:`RobustConfig` swaps the configured aggregation
rule into every gradient-combining point, arms per-peer screening for
the decentralized algorithms, and optionally guards the training loop
with NaN/loss-spike rollback and offender quarantine.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": ("AGGREGATORS", "RobustConfig"),
        "aggregators": ("AGGREGATOR_FNS", "aggregate_rows", "krum_scores"),
        "runtime": ("RobustRuntime",),
    },
)
