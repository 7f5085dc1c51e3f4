"""Fault model: seeded, virtual-time-stamped fault events.

A :class:`FaultConfig` is part of :class:`~repro.core.config.RunConfig`
(and therefore of the sweep cache's content address): the same config +
seed always reproduces the same failures at the same virtual times.
Fault randomness (retransmission draws for probabilistic message drops)
comes from a dedicated RNG stream derived from ``(run seed, fault
seed)`` so it never perturbs the data/compute/jitter streams.

Fault taxonomy (``FaultEvent.kind``):

* ``crash``          — one worker process dies; with ``rejoin_after``
                       it later restores a snapshot and re-enters.
* ``machine_outage`` — every worker on a machine crashes at once.
* ``link_degrade``   — a machine's NIC drops to ``rate_fraction`` of
                       nominal bandwidth for ``duration`` seconds.
* ``partition``      — a machine is unreachable for ``duration``
                       seconds; in-flight and new messages are held up
                       until the partition heals (plus one RTO).
* ``drop``           — messages touching ``machine`` are each lost with
                       ``drop_prob`` and retransmitted, for ``duration``
                       seconds. Loss manifests as TCP-style
                       retransmission latency, never as silent
                       disappearance.

Fabric faults — rack- and spine-scoped events for hierarchical
clusters (``ClusterSpec.machines_per_rack`` set). They model the
correlated failure domains a leaf/spine deployment actually has: the
blast radius of a ToR is its whole rack, and intra-rack traffic rides
the non-blocking leaf backplane, so it keeps flowing while the rack's
*uplink* misbehaves:

* ``rack_outage``    — the ToR's power domain dies: every worker on
                       every machine of ``rack`` crashes at once (the
                       correlated analogue of ``machine_outage``).
* ``tor_outage``     — the ToR's uplink dies for ``duration`` seconds:
                       the rack is partitioned from the rest of the
                       fabric (inter-rack messages held until heal +
                       RTO) while intra-rack traffic is unaffected.
* ``uplink_degrade`` — the rack's ToR uplink/downlink throttle to
                       ``rate_fraction`` of nominal for ``duration``.
* ``uplink_flap``    — the rack's uplink flaps: inter-rack messages
                       touching the rack are each lost with
                       ``drop_prob`` and retransmitted, for
                       ``duration`` seconds.
* ``spine_degrade``  — spine-tier contention: *every* rack's uplink
                       throttles to ``rate_fraction`` for ``duration``
                       (no ``rack``; the scope is the whole spine).

Gradient (data-plane) faults — silent corruption of the gradients a
worker produces, applied at the gradient-production hook so every
algorithm is corruptible without per-algorithm code:

* ``bitflip``        — one-shot: the worker's next gradient has one
                       random bit of one random element flipped.
* ``nan_inject``     — one-shot: the worker's next gradient has one
                       random element replaced by NaN.
* ``grad_scale``     — for ``duration`` seconds the worker's gradients
                       are multiplied by ``scale`` (default 100).
* ``sign_flip``      — for ``duration`` seconds the worker's gradients
                       are negated.
* ``byzantine``      — from ``time`` on (or for ``duration`` if given)
                       the worker is adversarial: it sends
                       ``-scale * grad`` (default scale 10), the
                       classic inner-product attack on mean
                       aggregation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.io import atomic_write_text, from_jsonable, to_jsonable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import ClusterSpec

__all__ = [
    "FaultEvent",
    "FaultConfig",
    "FaultSchedule",
    "FAULT_KINDS",
    "GRAD_FAULT_KINDS",
    "FABRIC_FAULT_KINDS",
    "check_fault_targets",
]

#: Data-plane fault kinds, applied to the gradients a worker produces.
GRAD_FAULT_KINDS = ("bitflip", "grad_scale", "sign_flip", "nan_inject", "byzantine")

#: Rack/spine-scoped fabric fault kinds; they require a hierarchical
#: cluster (``ClusterSpec.machines_per_rack`` set).
FABRIC_FAULT_KINDS = (
    "rack_outage",
    "tor_outage",
    "uplink_degrade",
    "uplink_flap",
    "spine_degrade",
)

FAULT_KINDS = (
    "crash",
    "machine_outage",
    "link_degrade",
    "partition",
    "drop",
    *FABRIC_FAULT_KINDS,
    *GRAD_FAULT_KINDS,
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, stamped in virtual time."""

    time: float
    kind: str
    worker: int | None = None
    machine: int | None = None
    duration: float | None = None
    rate_fraction: float | None = None
    drop_prob: float | None = None
    rejoin_after: float | None = None
    # Corruption magnitude for grad_scale/byzantine. Omitted from the
    # fingerprint when unset so pre-existing faulty-config content
    # addresses stay valid.
    scale: float | None = field(default=None, metadata={"fingerprint": "omit-if-none"})
    # Target rack for the fabric fault kinds; same omit-if-none
    # discipline — flat-scoped schedules keep their content addresses.
    rack: int | None = field(default=None, metadata={"fingerprint": "omit-if-none"})

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected {FAULT_KINDS}")
        if self.kind == "crash" and self.worker is None:
            raise ValueError("crash events need a worker")
        if self.kind in GRAD_FAULT_KINDS and self.worker is None:
            raise ValueError(f"{self.kind} events need a worker")
        if self.kind in ("machine_outage", "link_degrade", "partition", "drop") and (
            self.machine is None
        ):
            raise ValueError(f"{self.kind} events need a machine")
        if self.kind in FABRIC_FAULT_KINDS:
            if self.kind == "spine_degrade":
                if self.rack is not None:
                    raise ValueError(
                        "spine_degrade is fabric-wide; it takes no rack"
                    )
            elif self.rack is None:
                raise ValueError(f"{self.kind} events need a rack")
        elif self.rack is not None:
            raise ValueError("rack only applies to fabric fault events")
        if self.kind in (
            "link_degrade",
            "partition",
            "drop",
            "tor_outage",
            "uplink_degrade",
            "uplink_flap",
            "spine_degrade",
            "grad_scale",
            "sign_flip",
        ):
            if self.duration is None or self.duration <= 0:
                raise ValueError(f"{self.kind} events need a positive duration")
        if self.kind == "byzantine" and self.duration is not None and self.duration <= 0:
            raise ValueError("byzantine duration, when given, must be positive")
        if self.kind in ("link_degrade", "uplink_degrade", "spine_degrade"):
            if self.rate_fraction is None or not 0 < self.rate_fraction <= 1:
                raise ValueError(f"{self.kind} needs rate_fraction in (0, 1]")
        if self.kind in ("drop", "uplink_flap"):
            if self.drop_prob is None or not 0 <= self.drop_prob < 1:
                raise ValueError(f"{self.kind} needs drop_prob in [0, 1)")
        if self.rejoin_after is not None:
            if self.kind != "crash":
                raise ValueError("rejoin_after only applies to crash events")
            if self.rejoin_after <= 0:
                raise ValueError("rejoin_after must be positive")
        if self.scale is not None:
            if self.kind not in ("grad_scale", "byzantine"):
                raise ValueError("scale only applies to grad_scale/byzantine events")
            if not (self.scale == self.scale and abs(self.scale) != float("inf")):
                raise ValueError("scale must be finite")
            if self.scale == 0:
                raise ValueError("scale must be non-zero")


@dataclass(frozen=True)
class FaultConfig:
    """Fault schedule plus failure-detector parameters.

    Attaching a ``FaultConfig`` to a run (even an empty one) turns on
    the failure-aware machinery: heartbeats, the monitor, membership
    tracking. ``faults=None`` on the RunConfig is the zero-overhead
    fault-free path and is byte-identical to the pre-fault simulator.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0
    #: Heartbeat period of every worker.
    heartbeat_interval: float = 0.05
    #: Base detection timeout: a worker whose last heartbeat is older
    #: than this becomes suspect.
    heartbeat_timeout: float = 0.25
    #: Each unanswered suspicion round multiplies the deadline by this
    #: (exponential backoff before declaring death).
    backoff_factor: float = 2.0
    #: Suspicion rounds before eviction.
    max_suspect_rounds: int = 3
    #: Hard stop for the virtual clock — a safety horizon so an
    #: unsurvivable schedule ends the run instead of spinning forever.
    max_virtual_time: float | None = None

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_timeout < 2 * self.heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must be at least twice heartbeat_interval "
                "(otherwise healthy workers get evicted)"
            )
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_suspect_rounds < 0:
            raise ValueError("max_suspect_rounds must be non-negative")
        if self.max_virtual_time is not None and self.max_virtual_time <= 0:
            raise ValueError("max_virtual_time must be positive")
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    # -- the --fault-spec file format: repro.io's JSON form -------------
    def save(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(to_jsonable(self), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FaultConfig":
        return from_jsonable(cls, json.loads(Path(path).read_text()))

    def with_seed(self, seed: int) -> "FaultConfig":
        return replace(self, seed=seed)


def check_fault_targets(
    events: Iterable[FaultEvent], num_workers: int, cluster: "ClusterSpec"
) -> None:
    """Reject an event whose worker, machine or rack is not in the run,
    or a fabric event on a flat cluster."""
    for event in events:
        if event.worker is not None and not 0 <= event.worker < num_workers:
            raise ValueError(
                f"fault event targets worker {event.worker}, but the run "
                f"has {num_workers} workers"
            )
        if event.machine is not None and not 0 <= event.machine < cluster.machines:
            raise ValueError(
                f"fault event targets machine {event.machine}, but the "
                f"cluster has {cluster.machines} machines"
            )
        if event.kind in FABRIC_FAULT_KINDS and not cluster.hierarchical:
            raise ValueError(
                f"{event.kind} fault events need a hierarchical "
                "cluster (machines_per_rack set, more than one rack)"
            )
        if event.rack is not None and not 0 <= event.rack < cluster.num_racks:
            raise ValueError(
                f"fault event targets rack {event.rack}, but the "
                f"cluster has {cluster.num_racks} racks"
            )


@dataclass(frozen=True)
class FaultSchedule:
    """Time-ordered view of a :class:`FaultConfig`'s events."""

    events: tuple[FaultEvent, ...] = ()

    @classmethod
    def from_config(cls, config: FaultConfig) -> "FaultSchedule":
        # Stable sort: simultaneous events apply in declaration order.
        return cls(events=tuple(sorted(config.events, key=lambda e: e.time)))

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def horizon(self) -> float:
        """Virtual time at which the last scheduled fault has fired."""
        return max((e.time for e in self.events), default=0.0)
