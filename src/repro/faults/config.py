"""Fault model: seeded, virtual-time-stamped fault events.

A :class:`FaultConfig` is part of :class:`~repro.core.config.RunConfig`
(and therefore of the sweep cache's content address): the same config +
seed always reproduces the same failures at the same virtual times.
Fault randomness (retransmission draws for probabilistic message drops)
comes from a dedicated RNG stream derived from ``(run seed, fault
seed)`` so it never perturbs the data/compute/jitter streams.

Fault taxonomy (``FaultEvent.kind``), one line per kind; ``FAULT_TABLE``
below states each kind's effect, scope and fields:

* ``crash``          — one worker dies (with ``rejoin_after``, it re-enters).
* ``machine_outage`` — every worker on a machine crashes at once.
* ``link_degrade``   — a machine's NIC runs at ``rate_fraction`` of nominal.
* ``partition``      — a machine's messages are held until it heals (+ one RTO).
* ``drop``           — a machine's messages are each lost with ``drop_prob``.
* ``rack_outage``    — every worker of a rack crashes at once.
* ``tor_outage``     — a rack's inter-rack messages are held until it heals.
* ``uplink_degrade`` — a rack's ToR uplink runs at ``rate_fraction`` of nominal.
* ``uplink_flap``    — a rack's inter-rack messages are each lost with ``drop_prob``.
* ``spine_degrade``  — every rack's uplink is scaled by ``rate_fraction``, on top of its own.
* ``bitflip``        — the worker's next gradient has one random bit flipped.
* ``nan_inject``     — the worker's next gradient has one element set to NaN.
* ``grad_scale``     — the worker's gradients are multiplied by ``scale`` (100).
* ``sign_flip``      — the worker's gradients are negated.
* ``byzantine``      — the worker sends ``-scale * grad`` (scale 10) from then on.

Windowed kinds last ``duration`` seconds (``byzantine`` too, if given).
A lost message is retransmitted after a timeout: loss shows as latency,
never as silent disappearance. Rack- and spine-scoped kinds need a
hierarchical cluster (``ClusterSpec.machines_per_rack`` set); a rack's
leaf backplane keeps its intra-rack traffic flowing while its uplink
misbehaves. Gradient kinds act at the gradient-production hook, so
every algorithm is corruptible without per-algorithm code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

from repro.io import atomic_write_text, from_jsonable, to_jsonable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import ClusterSpec

__all__ = [
    "FaultEvent",
    "FaultConfig",
    "FaultKind",
    "FaultSchedule",
    "FAULT_TABLE",
    "FAULT_KINDS",
    "GRAD_FAULT_KINDS",
    "FABRIC_FAULT_KINDS",
    "check_fault_targets",
]

#: The effects a fault has on its scope: its workers crash, its messages
#: are held or dropped (and retransmitted), its links are degraded, or
#: its worker's gradients are corrupted.
CRASH, HOLD, DROP, DEGRADE, GRAD = "crash", "hold", "drop", "degrade", "grad"


class FaultKind(NamedTuple):
    """What one fault kind does, where, and which event fields it takes."""

    effect: str
    #: The field naming the target: ``"worker"``, ``"machine"`` or
    #: ``"rack"``; None for the whole spine.
    scope: str | None
    #: Fields the kind needs besides its scope field.
    requires: tuple[str, ...] = ()
    #: Fields the kind may leave unset; every other field must be.
    accepts: tuple[str, ...] = ()


#: kind -> effect, scope and fields. Validation, target checks, the
#: controller's injection and records, and the arming of the link and
#: gradient models all read this table.
FAULT_TABLE = {
    "crash": FaultKind(CRASH, "worker", accepts=("rejoin_after",)),
    "machine_outage": FaultKind(CRASH, "machine"),
    "link_degrade": FaultKind(DEGRADE, "machine", ("duration", "rate_fraction")),
    "partition": FaultKind(HOLD, "machine", ("duration",)),
    "drop": FaultKind(DROP, "machine", ("duration", "drop_prob")),
    "rack_outage": FaultKind(CRASH, "rack"),
    "tor_outage": FaultKind(HOLD, "rack", ("duration",)),
    "uplink_degrade": FaultKind(DEGRADE, "rack", ("duration", "rate_fraction")),
    "uplink_flap": FaultKind(DROP, "rack", ("duration", "drop_prob")),
    "spine_degrade": FaultKind(DEGRADE, None, ("duration", "rate_fraction")),
    "bitflip": FaultKind(GRAD, "worker"),
    "grad_scale": FaultKind(GRAD, "worker", ("duration",), ("scale",)),
    "sign_flip": FaultKind(GRAD, "worker", ("duration",)),
    "nan_inject": FaultKind(GRAD, "worker"),
    "byzantine": FaultKind(GRAD, "worker", accepts=("duration", "scale")),
}

FAULT_KINDS = tuple(FAULT_TABLE)
#: Data-plane fault kinds, applied to the gradients a worker produces.
GRAD_FAULT_KINDS = tuple(k for k, spec in FAULT_TABLE.items() if spec.effect == GRAD)
#: Rack/spine-scoped fabric fault kinds; they require a hierarchical
#: cluster (``ClusterSpec.machines_per_rack`` set).
FABRIC_FAULT_KINDS = tuple(k for k, spec in FAULT_TABLE.items() if spec.scope in ("rack", None))

#: field -> what a kind that takes it needs, and the test a set value
#: must pass. Target ranges depend on the run: ``check_fault_targets``.
_VALUES = {
    "duration": ("a positive duration", lambda v: v > 0),
    "rate_fraction": ("rate_fraction in (0, 1]", lambda v: 0 < v <= 1),
    "drop_prob": ("drop_prob in [0, 1)", lambda v: 0 <= v < 1),
    "rejoin_after": ("a positive rejoin_after", lambda v: v > 0),
    "scale": ("a finite, non-zero scale", lambda v: math.isfinite(v) and v != 0),
}


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
        spec = FAULT_TABLE.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected {FAULT_KINDS}")
        takes = (spec.scope,) + spec.requires + spec.accepts
        for name in (f.name for f in fields(self)[2:]):  # all but time and kind
            value = getattr(self, name)
            need, valid = _VALUES.get(name, (f"a {name}", None))
            if name not in takes:
                if value is not None:
                    raise ValueError(f"{self.kind} events take no {name}")
            elif value is None:
                if name not in spec.accepts:
                    raise ValueError(f"{self.kind} events need {need}")
            elif valid is not None and not valid(value):
                raise ValueError(f"{self.kind} events need {need}")


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
    sizes = {
        "worker": ("run", num_workers),
        "machine": ("cluster", cluster.machines),
        "rack": ("cluster", cluster.num_racks),
    }
    for event in events:
        scope = FAULT_TABLE[event.kind].scope
        if event.kind in FABRIC_FAULT_KINDS and not cluster.hierarchical:
            raise ValueError(
                f"{event.kind} fault events need a hierarchical "
                "cluster (machines_per_rack set, more than one rack)"
            )
        if scope is None:
            continue
        owner, size = sizes[scope]
        target = getattr(event, scope)
        if not 0 <= target < size:
            raise ValueError(
                f"fault event targets {scope} {target}, but the {owner} has {size} {scope}s"
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
