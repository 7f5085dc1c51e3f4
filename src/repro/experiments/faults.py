"""Fault-tolerance experiment — resilience of the seven algorithms.

The paper benchmarks the algorithms on a healthy cluster; this module
asks the complementary systems question its simulator makes cheap to
answer: *how much throughput does each training protocol retain when
the cluster misbehaves?* For every (scenario × algorithm) cell the
``faults`` artefact

1. runs the fault-free baseline (same config, ``faults=None`` — the
   cached, fingerprint-stable run the other experiments share),
2. re-runs with a :class:`~repro.faults.config.FaultConfig` whose event
   times are fractions of that algorithm's own baseline duration (so a
   "mid-run crash" is mid-run for BSP *and* for the 3× faster GoSGD),
3. reports throughput retained (faulty ÷ baseline), evictions, rejoins
   and stale-epoch drops.

Scenarios (event times as fractions of the baseline measured window):

* ``crash``         — one worker fails permanently at 40 %;
* ``crash-rejoin``  — one worker fails at 30 % and rejoins after 20 %
  via checkpoint restore from a live peer;
* ``degrade``       — one machine's NIC drops to 25 % rate for 30 %;
* ``partition``     — one machine is unreachable for 8 % (short enough
  that the detector may or may not evict, depending on the protocol's
  round length — that interplay is the point);
* ``flaky``         — 30 % packet loss to one machine for 30 %
  (retransmission delay, never silent loss).

The **rack-scale chaos matrix** (``rack-faults``) is the
hierarchical complement: on a leaf/spine cluster it crosses the fabric
fault scenarios (a whole rack dying, a ToR losing or throttling its
uplink, a flapping uplink, spine-wide contention) with the collectives
that actually run at that scale — BSP with flat and tree PS fan-in,
AR-SGD with ring/tree/hring — and reports the same throughput-retained
grid. Workers pack 4 per machine, ``machines_per_rack`` machines per
ToR; the default scale, N=256 over 4 racks, exercises a correlated
64-worker rack outage mid-run. ``repro faults --rack-scale`` drives it.

All runs go through the sweep executor: baselines are cache hits when
any other experiment ran them, and faulty runs are cached under their
own fingerprints (``faults`` is part of the content address when set).
"""

from __future__ import annotations

from repro.experiments.artefact import Artefact, recovery_notes
from repro.experiments.config import timing_config
from repro.faults.config import FAULT_TABLE, FaultConfig, FaultEvent
from repro.sim.cluster import hierarchical_cluster

__all__ = [
    "ARTEFACTS",
    "FAULT_ALGORITHMS",
    "FAULT_SCENARIOS",
    "RACK_FAULT_SCENARIOS",
    "RACK_FAULT_CELLS",
]

FAULT_ALGORITHMS = ("bsp", "asp", "ssp", "easgd", "ar-sgd", "gosgd", "ad-psgd")


def _one_event(kind: str, **fields: float):
    """A scenario of one event: ``time``, ``duration`` and
    ``rejoin_after`` are fractions of the baseline duration ``t0``, and
    the kind's target (worker, machine or rack) is the last of its kind."""
    scope = FAULT_TABLE[kind].scope

    def events(t0: float, *counts: int) -> tuple[FaultEvent, ...]:
        event = {k: v * t0 if k in ("time", "duration", "rejoin_after") else v
                 for k, v in fields.items()}
        if scope is not None:
            event[scope] = counts[1 if scope == "machine" else 0] - 1
        return (FaultEvent(kind=kind, **event),)

    return events


#: scenario name -> (baseline_duration, num_workers, machines) -> events
FAULT_SCENARIOS = {
    "crash": _one_event("crash", time=0.4),
    "crash-rejoin": _one_event("crash", time=0.3, rejoin_after=0.2),
    "degrade": _one_event("link_degrade", time=0.3, duration=0.3, rate_fraction=0.25),
    "partition": _one_event("partition", time=0.4, duration=0.08),
    "flaky": _one_event("drop", time=0.3, duration=0.3, drop_prob=0.3),
}

#: rack-scale scenario name -> (baseline_duration, num_racks) -> events.
#: Fabric faults always target the *last* rack: the failure detector's
#: monitor lives on machine 0 (rack 0), so hitting the far rack tests
#: the partition-and-evict path rather than fencing off the monitor.
RACK_FAULT_SCENARIOS = {
    "rack-outage": _one_event("rack_outage", time=0.4),
    "tor-outage": _one_event("tor_outage", time=0.3, duration=0.25),
    "uplink-degrade": _one_event("uplink_degrade", time=0.3, duration=0.3, rate_fraction=0.1),
    "uplink-flap": _one_event("uplink_flap", time=0.3, duration=0.3, drop_prob=0.3),
    "spine-degrade": _one_event("spine_degrade", time=0.3, duration=0.3, rate_fraction=0.25),
}

#: Chaos-matrix columns: label -> (algorithm, config overrides). One per
#: hierarchical protocol variant, plus the flat baselines for contrast.
RACK_FAULT_CELLS = {
    "bsp": ("bsp", {}),
    "bsp/tree": ("bsp", {"ps_topology": "tree"}),
    "ar-sgd/ring": ("ar-sgd", {"collective": "ring"}),
    "ar-sgd/tree": ("ar-sgd", {"collective": "tree"}),
    "ar-sgd/hring": ("ar-sgd", {"collective": "hring"}),
}


def _detection_params(t0: float) -> dict:
    """Failure-detector settings scaled to the run length: heartbeats
    every ~0.2 % of the run, eviction after ~2 % of silence."""
    interval = max(1e-4, 0.002 * t0)
    return dict(
        heartbeat_interval=interval,
        heartbeat_timeout=5.0 * interval,
        backoff_factor=1.5,
        max_suspect_rounds=1,
    )


def _retained(result, config, base) -> float:
    return result.throughput / base.throughput


def _faults(c, events) -> FaultConfig | None:
    """The schedule ``events(t0)`` sized to the cell's baseline run's
    measured duration ``t0``; None for the baseline run itself."""
    if c.base is None:
        return None
    t0 = c.base.measured_time
    return FaultConfig(events=events(t0), seed=c.fault_seed, **_detection_params(t0))


def _fault_config(c):
    machines = max(1, -(-c.num_workers // 4))
    faults = _faults(c, lambda t0: FAULT_SCENARIOS[c.scenario](t0, c.num_workers, machines))
    return timing_config(
        c.algorithm, num_workers=c.num_workers, bandwidth_gbps=c.bandwidth_gbps, model=c.model,
        measure_iters=c.measure_iters, seed=c.seed, trace=False, faults=faults,
    )


def _rack_cluster(shape: dict) -> dict:
    machines = max(1, -(-shape["num_workers"] // 4))
    if machines <= shape["machines_per_rack"]:
        raise ValueError(
            f"{shape['num_workers']} workers fill only {machines} machines — need more "
            f"than one rack of {shape['machines_per_rack']} for fabric faults"
        )
    cluster = hierarchical_cluster(
        machines=machines,
        bandwidth_gbps=shape["bandwidth_gbps"],
        machines_per_rack=shape["machines_per_rack"],
        oversubscription=shape["oversubscription"],
    )
    return {"cluster": cluster}


def _rack_config(c):
    algorithm, overrides = RACK_FAULT_CELLS[c.cell]
    faults = _faults(c, lambda t0: RACK_FAULT_SCENARIOS[c.scenario](t0, c.cluster.num_racks))
    return timing_config(
        algorithm, num_workers=c.num_workers, bandwidth_gbps=c.bandwidth_gbps, model=c.model,
        measure_iters=c.measure_iters, warmup_iters=c.warmup_iters, seed=c.seed, trace=False,
        cluster=c.cluster, faults=faults, **overrides,
    )


_TIMING = dict(model="resnet50", bandwidth_gbps=10.0, fault_seed=0)
_LAYOUT = dict(
    metric=_retained,
    rows=("scenario",),
    headers=("scenario",),
    labels={"algorithm": str.upper, "cell": str.upper},
    float_format="{:.2f}",
    notes=recovery_notes("recovery events", "faults", (12, 7)),
)
_CLI = ("workers", "iters", "model", "bandwidth", "fault_seed", "scenarios", "algorithms")

ARTEFACTS = {
    "faults": Artefact(
        "faults",
        title="Fault tolerance — throughput retained vs fault-free baseline",
        axes={"scenario": "scenarios", "algorithm": "algorithms"},
        shape=dict(
            algorithms=FAULT_ALGORITHMS, scenarios=tuple(FAULT_SCENARIOS), num_workers=8,
            measure_iters=20, **_TIMING,
        ),
        config=_fault_config,
        baseline="algorithm",
        columns="algorithm",
        cli=_CLI,
        choices={"scenarios": FAULT_SCENARIOS, "algorithms": FAULT_ALGORITHMS},
        **_LAYOUT,
    ),
    "rack-faults": Artefact(
        "rack-faults",
        title=(
            "Rack-scale chaos matrix — throughput retained "
            "(N={num_workers}, {cluster.num_racks} racks)"
        ),
        axes={"scenario": "scenarios", "cell": "cells"},
        shape=dict(
            cells=tuple(RACK_FAULT_CELLS), scenarios=tuple(RACK_FAULT_SCENARIOS), num_workers=256,
            machines_per_rack=16, oversubscription=4.0, measure_iters=6, warmup_iters=2, **_TIMING,
        ),
        prepare=_rack_cluster,
        config=_rack_config,
        baseline="cell",
        columns="cell",
        cli=(*_CLI, "machines_per_rack", "oversubscription"),
        choices={"scenarios": RACK_FAULT_SCENARIOS, "cells": RACK_FAULT_CELLS},
        **_LAYOUT,
    ),
}
