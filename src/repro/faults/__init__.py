"""Fault injection & failure-aware training protocols.

``faults=None`` on a :class:`~repro.core.runner.RunConfig` is the
zero-overhead path (bit-identical to the fault-free simulator);
attaching a :class:`FaultConfig` arms heartbeats, failure detection,
membership eviction, and elastic rejoin.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": (
            "FAULT_KINDS",
            "GRAD_FAULT_KINDS",
            "FaultConfig",
            "FaultEvent",
            "FaultSchedule",
        ),
        "controller": ("FaultController",),
        "gradfaults": ("GradFaultModel",),
        "membership": ("Membership",),
        "netfaults": ("LinkFaultModel",),
        "checkpoint": ("Snapshot", "capture_snapshot", "restore_snapshot"),
    },
)
