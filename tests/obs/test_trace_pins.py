"""Neutrality pins for the Perfetto export of three observed runs.

Each pin is the sha256 of ``json.dumps(build_trace(...))``: every
metadata row, phase span, message, process lifetime, fault instant,
counter sample and critical-path segment, in stream order. A change in
what the observer records, or in how the export orders or names it,
moves a digest.
"""

import hashlib
import json

import pytest

from repro.core.runner import DistributedRunner
from repro.faults.config import FaultConfig, FaultEvent
from repro.obs import ObsConfig, analyze_run, build_trace

from tests.conftest import small_full_config, small_timing_config

CRASH = FaultConfig(
    events=(FaultEvent(time=0.05, kind="crash", worker=7, rejoin_after=0.03),),
    heartbeat_interval=0.01,
    heartbeat_timeout=0.02,
    backoff_factor=1.0,
    max_suspect_rounds=0,
)

# name -> (config, render the critical-path lane, sha256 of the trace)
CASES = {
    "bsp-critpath": (
        small_timing_config("bsp", trace=True),
        True,
        "530b087cef6c2a28cb181634cc734fdab85d2f86571a5543b994057b28a68d33",
    ),
    "bsp-crash-rejoin": (
        small_timing_config("bsp", trace=True, faults=CRASH),
        False,
        "e7bdfef60bbf186ed2be2e08d4d242b59f3681659c309c8ad6d7ef7eba36e747",
    ),
    "asp-full": (
        small_full_config("asp"),
        False,
        "0b0720c445098405194ba9b29eda239facd70e07e334b8bf335a19e6dc1c66f9",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest(name):
    config, critpath, expected = CASES[name]
    runner = DistributedRunner(config, obs=ObsConfig(enabled=True))
    runner.run()
    report = analyze_run(runner, keep_segments=True) if critpath else None
    trace = build_trace(observer=runner.observer, cluster=config.cluster, critpath=report)
    assert hashlib.sha256(json.dumps(trace).encode()).hexdigest() == expected
