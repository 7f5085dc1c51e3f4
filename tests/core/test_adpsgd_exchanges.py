"""AD-PSGD reports what it aggregated: ``metadata["aggregations"]``.

Each active worker's communication process serves one token per
finished compute iteration, and the compute process leaves a token only
in an empty store, so queued iterations coalesce into one exchange. The
result states, over the workers that exchanged at least once (the
active ones), the fewest and most exchanges completed per compute
iteration. The counts here are taken independently, by wrapping the
two processes from the outside.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.core.adpsgd as adpsgd
from repro.core.runner import DistributedRunner
from repro.experiments.config import mini_accuracy_config, timing_config


def counting_processes(monkeypatch) -> tuple[Counter, Counter]:
    """Wrap the compute and active processes; count replies received
    and the longest token queue seen between two steps."""
    exchanges: Counter = Counter()
    backlog: Counter = Counter()
    compute, active = adpsgd._compute_process, adpsgd._active_comm

    def relay(gen, after_step):
        reply = None
        while True:
            try:
                request = gen.send(reply)
            except StopIteration:
                after_step(None)
                return
            after_step(None)
            reply = yield request
            after_step(reply)

    def wrapped_compute(rt, slot, tokens):
        def after_step(_):
            if tokens is not None:
                backlog[slot.wid] = max(backlog[slot.wid], len(tokens))

        return relay(compute(rt, slot, tokens), after_step)

    def wrapped_active(rt, slot, *rest):
        def after_step(reply):
            if getattr(reply, "kind", None) == "xrep":
                exchanges[slot.wid] += 1

        return relay(active(rt, slot, *rest), after_step)

    monkeypatch.setattr(adpsgd, "_compute_process", wrapped_compute)
    monkeypatch.setattr(adpsgd, "_active_comm", wrapped_active)
    return exchanges, backlog


@pytest.mark.parametrize(
    "cfg",
    [
        timing_config(
            "ad-psgd", num_workers=8, model="vgg16", bandwidth_gbps=10.0, measure_iters=10
        ),
        mini_accuracy_config("ad-psgd", num_workers=4, epochs=0.5),
    ],
    ids=["timing-vgg16-10g", "full"],
)
def test_counters_match_an_outside_count(cfg, monkeypatch):
    exchanges, backlog = counting_processes(monkeypatch)
    runner = DistributedRunner(cfg)
    result = runner.run()
    active = sorted(exchanges)
    assert active == [0, 2, 4, 6][: cfg.num_workers // 2]
    rates = [exchanges[w] / runner.runtime.workers[w].iterations for w in active]
    assert result.metadata["aggregations"] == {"min": min(rates), "max": max(rates)}
    assert 0 < min(rates) <= max(rates) <= 1
    assert max(backlog.values()) <= 1


def test_vgg16_at_10_gbps_serves_fewer_than_one_exchange_per_iteration(monkeypatch):
    """Iterations outrun exchanges; the tokens they leave coalesce, so no
    active worker ever has more than one waiting."""
    _, backlog = counting_processes(monkeypatch)
    cfg = timing_config(
        "ad-psgd", num_workers=8, model="vgg16", bandwidth_gbps=10.0, measure_iters=10
    )
    result = DistributedRunner(cfg).run()
    assert result.metadata["aggregations"]["max"] < 1
    assert sorted(backlog) == [0, 2, 4, 6]
    assert max(backlog.values()) == 1


def test_vgg16_at_56_gbps_exchanges_about_once_per_iteration():
    """The figure the parent reported as ``exchanges.per_iteration``."""
    cfg = timing_config(
        "ad-psgd", num_workers=24, model="vgg16", bandwidth_gbps=56.0, measure_iters=30
    )
    result = DistributedRunner(cfg).run()
    assert result.metadata["aggregations"] == {"min": 35 / 36, "max": 1.0}


def test_streams_and_rings_report_no_aggregations():
    """ASP's per-layer stream, AR-SGD, GoSGD and a lone AD-PSGD worker
    never wait on a pull or an exchange."""
    for algorithm, overrides in [
        ("asp", dict(wait_free_bp=True)),
        ("ar-sgd", {}),
        ("gosgd", {}),
        ("ad-psgd", dict(num_workers=1)),
    ]:
        cfg = timing_config(algorithm, **{"num_workers": 4, "measure_iters": 3, **overrides})
        result = DistributedRunner(cfg).run()
        assert "aggregations" not in result.metadata, algorithm
