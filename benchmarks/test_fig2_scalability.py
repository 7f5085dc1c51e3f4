"""Fig 2 — throughput scalability on 10/56 Gbps for ResNet-50 and
VGG-16.

Shape assertions (paper findings, §VI-C):

* (a) ResNet-50: BSP and AR-SGD scale steadily but gain little from
  the faster network; ASP is bandwidth-sensitive and *worse than BSP
  at 10 Gbps* (the PS bottleneck) but better at 56 Gbps; AD-PSGD
  scales almost linearly.
* (b) VGG-16: every algorithm scales worse than on ResNet-50;
  the decentralized algorithms beat the centralized asynchronous
  ones; ASP/SSP collapse at 10 Gbps.
"""

import pytest

from repro.experiments.artefact import artefact, render, run_artefact

WORKERS = (1, 2, 4, 8, 16, 24)


def speedups(table) -> dict[str, dict[tuple[float, int], float]]:
    """speedup[algorithm][(bandwidth, workers)]."""
    return {
        algo: {(bw, n): table.value(algo, bw, n) for _, bw, n in table.values}
        for algo in table.axis("algorithm")
    }


@pytest.fixture(scope="module")
def resnet_result():
    return run_artefact(artefact("fig2"), model="resnet50", worker_counts=WORKERS, measure_iters=12)


@pytest.fixture(scope="module")
def vgg_result():
    return run_artefact(artefact("fig2"), model="vgg16", worker_counts=WORKERS, measure_iters=8)


def test_fig2a_resnet50(benchmark, save_result, resnet_result):
    result = benchmark.pedantic(lambda: resnet_result, rounds=1, iterations=1)
    save_result("fig2a_resnet50", render(result))
    s = speedups(result)

    # Monotone scaling for everyone.
    for algo in s:
        series = [s[algo][(10.0, n)] for n in WORKERS]
        assert all(b >= a * 0.95 for a, b in zip(series, series[1:]))

    # BSP / AR-SGD: limited bandwidth sensitivity (ASP's gain below
    # must be clearly larger than either of these).
    sync_gains = {}
    for algo in ("bsp", "ar-sgd"):
        gain = s[algo][(56.0, 24)] / s[algo][(10.0, 24)]
        sync_gains[algo] = gain
        assert gain < 1.55, f"{algo} should be bandwidth-insensitive, got {gain:.2f}"

    # ASP: strongly bandwidth-sensitive; PS bottleneck at 10 Gbps makes
    # it worse than synchronous BSP there, better at 56 Gbps.
    asp_gain = s["asp"][(56.0, 24)] / s["asp"][(10.0, 24)]
    assert asp_gain > 1.4
    assert asp_gain > max(sync_gains.values())
    assert s["asp"][(10.0, 24)] < s["bsp"][(10.0, 24)]
    assert s["asp"][(56.0, 24)] > s["bsp"][(56.0, 24)]

    # AD-PSGD: near-linear, best or tied at 24 workers.
    assert s["ad-psgd"][(10.0, 24)] > 0.8 * 24
    assert s["ad-psgd"][(10.0, 24)] >= max(v for (bw, n), v in s["bsp"].items() if n == 24)


def test_fig2b_vgg16(benchmark, save_result, resnet_result, vgg_result):
    result = benchmark.pedantic(lambda: vgg_result, rounds=1, iterations=1)
    save_result("fig2b_vgg16", render(result))
    s = speedups(result)
    r = speedups(resnet_result)

    # Everyone scales worse on the communication-intensive model
    # (AD-PSGD's fully-overlapped communication exempts it — see
    # EXPERIMENTS.md deviations).
    for algo in ("bsp", "asp", "ssp", "ar-sgd"):
        for bw in (10.0, 56.0):
            assert s[algo][(bw, 24)] < r[algo][(bw, 24)], f"{algo}@{bw} should degrade on VGG"

    # Centralized asynchronous algorithms collapse at 10 Gbps.
    assert s["asp"][(10.0, 24)] < 8
    assert s["ssp"][(10.0, 24)] < 8
    assert s["asp"][(10.0, 24)] < s["bsp"][(10.0, 24)]
    assert s["ssp"][(10.0, 24)] < s["bsp"][(10.0, 24)]

    # Decentralized beats centralized-async (the paper's comparison:
    # "compare ASP and SSP with AR-SGD and AD-PSGD").
    for bw in (10.0, 56.0):
        assert s["ar-sgd"][(bw, 24)] > s["asp"][(bw, 24)]
        assert s["ad-psgd"][(bw, 24)] > s["ssp"][(bw, 24)]
