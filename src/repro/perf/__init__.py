"""Analytic performance models (the 10,000-worker fast path).

The discrete-event engine is exact but O(events); one N=1024 BSP round
is millions of events and N=10,000 is out of interactive reach. This
package rebuilds each algorithm's steady-state iteration time from the
same cost tables the engine uses — closed-form busy-period recursions
over the comm plan for the synchronous round chains, closed-network
capacity bounds for the asynchronous algorithms — at O(layers +
machines) per configuration (< 10 ms, N-independent in practice).

Entry points:

* :func:`~repro.perf.predict.predict_run` — RunConfig → Prediction;
* :func:`~repro.perf.predict.cross_validate` — analytic vs engine on
  one config (the accuracy harness: within 10 % at N ≤ 64);
* ``repro predict`` CLI and the ``--analytic`` flag of the fig2
  experiment for full scaling curves to N = 10,000.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "models": (
            "ModelInputs",
            "PerfEstimate",
            "SUPPORTED_ALGORITHMS",
            "build_inputs",
            "estimate_iteration",
            "expected_max_lognormal",
        ),
        "predict": (
            "CrossValidation",
            "Prediction",
            "cross_validate",
            "predict_run",
            "prediction_to_result",
        ),
    },
)
