"""Table II — final top-1 accuracy of all seven algorithms at 24
workers with the authors' hyperparameters (SSP s=10, EASGD τ=8, GoSGD
p=0.01).

Shape assertions (paper findings, §VI-A):

* BSP and AR-SGD achieve the highest accuracy (synchronous
  consistency) and agree with each other;
* ASP and AD-PSGD are comparable to the synchronous algorithms;
* SSP/EASGD/GoSGD — the intermittent/asymmetric aggregators — lose
  substantially more accuracy.
"""

from repro.experiments.artefact import artefact, render, run_artefact


def test_table2_accuracy(benchmark, save_result):
    table = benchmark.pedantic(run_artefact, args=(artefact("table2"),), rounds=1, iterations=1)
    save_result("table2_accuracy", render(table))
    acc = {algo: table.value(algo) for algo in table.axis("algorithm")}

    # Synchronous algorithms lead and agree.
    sync_floor = min(acc["bsp"], acc["ar-sgd"])
    assert abs(acc["bsp"] - acc["ar-sgd"]) < 0.02
    assert sync_floor == max(acc.values()) or sync_floor > max(acc.values()) - 0.02

    # Frequent-aggregation async algorithms stay close to synchronous.
    assert acc["asp"] > sync_floor - 0.12
    assert acc["ad-psgd"] > sync_floor - 0.05

    # Intermittent/asymmetric aggregation loses much more (the paper's
    # headline finding).
    for bad in ("ssp", "easgd", "gosgd"):
        assert acc[bad] < acc["ad-psgd"] - 0.15, f"{bad} should degrade strongly"
    # And the well-aggregating group clearly beats the intermittent one.
    assert min(acc["bsp"], acc["ar-sgd"], acc["asp"], acc["ad-psgd"]) > max(
        acc["ssp"], acc["easgd"], acc["gosgd"]
    )
