"""Fig 1 — top-1 error vs epochs (a) and vs wall time (b).

Shape assertions (paper findings, §VI-A):

* (a) epoch-wise: synchronous algorithms converge best per epoch;
  ASP/AD-PSGD are close; SSP/EASGD/GoSGD lag badly;
* (b) time-wise: the asynchronous frequent aggregators (ASP, AD-PSGD)
  reach a mid-training error level *faster in wall time* than the
  synchronous ones (no waiting ⇒ more iterations per second).
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.artefact import artefact, run_artefact


def fig1_series(**shape) -> dict[str, dict[str, list[float]]]:
    """Per algorithm, the first seed's top-1 error against epochs (a)
    and against virtual time (b) — the paper plots single runs."""
    table = run_artefact(artefact("fig1"), **shape)
    series = {}
    for algo in table.axis("algorithm"):
        h = table.results[(algo,)][0]
        series[algo] = {"epochs": h.epochs, "times": h.times, "errors": h.error_curve()}
    return series


def _interp_error_at_epoch(series: dict, epoch: float) -> float:
    return float(np.interp(epoch, series["epochs"], series["errors"]))


def _time_to_error(series: dict, target: float) -> float | None:
    for t, e in zip(series["times"], series["errors"]):
        if e <= target:
            return t
    return None


def test_fig1_convergence(benchmark, save_result):
    # The paper runs this experiment on the 56 Gbps fabric (§VI-A).
    series = benchmark.pedantic(fig1_series, kwargs=dict(fabric="56g"), rounds=1, iterations=1)

    # Render the error curves as a table (epoch grid).
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    epochs_max = max(series["bsp"]["epochs"])
    headers = ["epoch", *(a.upper() for a in series)]
    rows = []
    for frac in grid:
        e = frac * epochs_max
        rows.append([round(e, 1), *(_interp_error_at_epoch(series[a], e) for a in series)])
    text_a = format_table(headers, rows, title="Fig 1(a) — top-1 error vs epoch")

    # Time to reach an early-training error level every healthy
    # algorithm passes through.
    target = 0.45
    rows_b = []
    for algo, s in series.items():
        t = _time_to_error(s, target)
        rows_b.append([algo.upper(), "-" if t is None else round(t, 1)])
    text_b = format_table(
        ["algorithm", f"virtual secs to error <= {target:.3f}"],
        rows_b,
        title="Fig 1(b) — time-wise convergence (56 Gbps fabric)",
    )
    save_result("fig1_convergence", text_a + "\n\n" + text_b)

    # (a) epoch-wise ordering at end of training.
    final_err = {a: s["errors"][-1] for a, s in series.items()}
    assert final_err["bsp"] <= final_err["asp"] + 0.02
    assert final_err["bsp"] <= final_err["ad-psgd"] + 0.02
    assert final_err["ssp"] > final_err["ad-psgd"] + 0.1
    assert final_err["gosgd"] > final_err["ad-psgd"] + 0.1

    # (b) time-wise: AD-PSGD hits the target error no later than BSP
    # (it does strictly more iterations per unit time). ASP shares the
    # iteration-rate advantage (next test) but pays a larger early
    # epoch-wise asynchrony tax at mini scale than the paper's
    # ImageNet runs do — see EXPERIMENTS.md deviations.
    t_bsp = _time_to_error(series["bsp"], target)
    t_asp = _time_to_error(series["asp"], target)
    t_adpsgd = _time_to_error(series["ad-psgd"], target)
    assert t_bsp is not None and t_asp is not None and t_adpsgd is not None
    assert t_adpsgd <= t_bsp * 1.05


def test_fig1_iteration_rate(benchmark, save_result):
    """The mechanism behind Fig 1(b): async algorithms complete more
    iterations than synchronous ones in the same virtual time."""
    table = benchmark.pedantic(
        run_artefact,
        args=(artefact("table2"),),
        kwargs=dict(algorithms=("bsp", "asp", "ad-psgd"), fabric="56g"),
        rounds=1,
        iterations=1,
    )
    rates = {}
    for (algo,), histories in table.results.items():
        h = histories[0]
        rates[algo] = h.total_iterations / h.total_virtual_time
    save_result(
        "fig1_iteration_rate",
        "iterations per virtual second: "
        + ", ".join(f"{a}={r:.1f}" for a, r in rates.items()),
    )
    assert rates["asp"] > rates["bsp"]
    assert rates["ad-psgd"] > rates["bsp"]
