"""Event-count and result-digest pins, one config per algorithm.

Scheduling refactors (lane merging, callsite preallocation, hook
specialization) must not reorder, drop, or duplicate events. These
pins freeze one representative timing run per algorithm in three
execution modes:

* ``plain``  — no observer, no faults: the bare hot path;
* ``obs``    — observer armed: results AND event counts must be
  byte-identical to ``plain`` (observation is passive);
* ``faults`` — empty-schedule fault controller armed: heartbeats and
  the monitor run, so the event count differs, but the count itself
  and the result digest are pinned.

A digest mismatch means simulated *behaviour* changed — that is a
correctness bug (or an intentional semantic change that must re-pin
every value here with an explanation). An event-count mismatch alone
means the same result is produced through different scheduling; that
is allowed only for deliberate engine work, and re-pinning it is the
acknowledgement.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.runner import DistributedRunner, RunConfig
from repro.faults.config import FaultConfig
from repro.io import to_jsonable
from repro.obs import ObsConfig
from repro.sim.cluster import paper_cluster

HYPERPARAMS = {
    "bsp": {},
    "asp": {},
    "ssp": {"staleness": 10},
    "easgd": {"tau": 8},
    "ar-sgd": {},
    "gosgd": {"p": 0.01},
    "ad-psgd": {},
}

DETECTION = dict(
    heartbeat_interval=0.25,
    heartbeat_timeout=0.6,
    backoff_factor=1.0,
    max_suspect_rounds=1,
)

# (digest, events) per algorithm per mode. The obs digest/count equal
# the plain ones by construction; they are spelled out so a regression
# in only one mode pins to an exact expectation, not a relation.
PINS = {
    "bsp": {
        "plain": ("8cb73bc89a813f567c6866c603eb337c968f52ea0b8efc6d7b49824670d1d462", 225),
        "obs": ("8cb73bc89a813f567c6866c603eb337c968f52ea0b8efc6d7b49824670d1d462", 225),
        "faults": ("452eb0bc15fd2c2d2b7d14766bcc6eb473a12ae34edf2cd284d0b546499d41fb", 257),
    },
    "asp": {
        "plain": ("9e73fd708dde10a0e98cc5cee228b982b51c5e5ce5de2cad0a20f560aebbded1", 280),
        "obs": ("9e73fd708dde10a0e98cc5cee228b982b51c5e5ce5de2cad0a20f560aebbded1", 280),
        "faults": ("1c53e313fa145a88a756f8a76b3f6a6f0692cd67d1ea7ae305bd5021c70f6376", 305),
    },
    "ssp": {
        "plain": ("64db72ce3388c5342a16e58aa59cc4b97a7e11b534d8e593d5beb43ad370358c", 327),
        "obs": ("64db72ce3388c5342a16e58aa59cc4b97a7e11b534d8e593d5beb43ad370358c", 327),
        "faults": ("13c53e9e83f18ee57c6dcd8584db789cd668c4c2af75766879544854d534268b", 346),
    },
    "easgd": {
        "plain": ("49f1bc929af99801f7569adca37aaef582b23a3f4c3a1958924cc79f6e74fb6f", 65),
        "obs": ("49f1bc929af99801f7569adca37aaef582b23a3f4c3a1958924cc79f6e74fb6f", 65),
        "faults": ("49b6581a2d6253ee001b0857f06fc4bcb98f0cd9fae91814426c189e235ec27c", 81),
    },
    "ar-sgd": {
        "plain": ("8ec3b3aed46fd71ab48654ab264ed93496e7ea0fc2fb856965c65c99963dc639", 1447),
        "obs": ("8ec3b3aed46fd71ab48654ab264ed93496e7ea0fc2fb856965c65c99963dc639", 1447),
        "faults": ("64ee7de5c8fe01939bb2aadcb4f3649506fb446cf7842d41ee3898cf60c761aa", 1469),
    },
    "gosgd": {
        "plain": ("0e73c5e175c748b9f6e11cccf6d74736ebd764357fa31f907aede95fff0fe0e1", 63),
        "obs": ("0e73c5e175c748b9f6e11cccf6d74736ebd764357fa31f907aede95fff0fe0e1", 63),
        "faults": ("4968e1b7897f34172b914b2ab110a177005b6072b22c0b6483905a50b6dcb8c0", 79),
    },
    "ad-psgd": {
        "plain": ("23f8959d4d24bebdeb21adf77196383a0379bf84abbe1c19c1b19d722a5f590e", 181),
        "obs": ("23f8959d4d24bebdeb21adf77196383a0379bf84abbe1c19c1b19d722a5f590e", 181),
        "faults": ("8334a4f56aed89ec1e8c9d32d6fc02e137e2d7eb088dbc8562927292d21c3432", 197),
    },
}


def pin_config(algorithm: str, faults: FaultConfig | None = None) -> RunConfig:
    return RunConfig(
        algorithm=algorithm,
        mode="timing",
        cluster=paper_cluster(bandwidth_gbps=10, machines=2, gpus_per_machine=4),
        num_workers=8,
        batch_size=128,
        profile_name="resnet50",
        measure_iters=5,
        warmup_iters=1,
        num_ps_shards=1,
        seed=0,
        algorithm_params=HYPERPARAMS[algorithm],
        faults=faults,
    )


def result_digest(result) -> str:
    # The pins predate metadata["worker_iterations"] (checked in
    # tests/core/test_worker_iterations.py) and metadata["aggregations"]
    # (tests/core/test_ps_pull.py, tests/core/test_adpsgd_exchanges.py);
    # both are left out of the hash.
    document = to_jsonable(result)
    document["metadata"].pop("worker_iterations")
    document["metadata"].pop("aggregations", None)
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def run_pinned(algorithm: str, mode: str) -> tuple[str, int]:
    if mode == "faults":
        runner = DistributedRunner(
            pin_config(algorithm, faults=FaultConfig(**DETECTION))
        )
    elif mode == "obs":
        runner = DistributedRunner(pin_config(algorithm), obs=ObsConfig(enabled=True))
    else:
        runner = DistributedRunner(pin_config(algorithm))
    result = runner.run()
    return result_digest(result), runner.engine.events_processed


@pytest.mark.parametrize("algorithm", sorted(PINS))
@pytest.mark.parametrize("mode", ("plain", "obs", "faults"))
def test_pinned_digest_and_event_count(algorithm: str, mode: str):
    expected_digest, expected_events = PINS[algorithm][mode]
    got_digest, got_events = run_pinned(algorithm, mode)
    assert got_digest == expected_digest, (
        f"{algorithm}/{mode}: result digest changed — simulated behaviour "
        "is no longer bit-identical"
    )
    assert got_events == expected_events, (
        f"{algorithm}/{mode}: events_processed {got_events} != "
        f"{expected_events} — same result via different scheduling; "
        "re-pin only for deliberate engine changes"
    )
