"""Fast smoke tests of the artefacts (tiny settings).

The benchmarks run the artefacts at the paper's protocol sizes; these
tests only verify the plumbing — table structure, rendering, sweep
coverage — at minimum scale.
"""

import pytest

from repro.experiments.artefact import artefact, render, run_artefact
from repro.experiments.optimizations import LADDER

TINY = dict(num_workers=4, epochs=2.0)


class TestAccuracyDriver:
    def test_table2_structure(self):
        table = run_artefact(artefact("table2"), algorithms=("bsp", "asp"), **TINY)
        assert set(table.values) == {("bsp",), ("asp",)}
        assert all(0.0 <= table.value(a) <= 1.0 for a in ("bsp", "asp"))
        text = render(table)
        assert "Table II" in text and "BSP" in text

    def test_multiple_seeds_averaged(self):
        table = run_artefact(artefact("table2"), algorithms=("bsp",), seeds=(0, 1), **TINY)
        accs = [h.final_test_accuracy for h in table.results[("bsp",)]]
        assert len(accs) == 2
        assert table.values[("bsp",)] == accs
        assert table.value("bsp") == pytest.approx(sum(accs) / 2)

    def test_fig1_series_shape(self):
        table = run_artefact(artefact("fig1"), algorithms=("bsp",), **TINY)
        h = table.results[("bsp",)][0]
        errors = h.error_curve()
        assert len(h.epochs) == len(h.times) == len(errors)
        assert h.epochs == sorted(h.epochs)
        assert all(0.0 <= e <= 1.0 for e in errors)
        assert "Fig 1(a)" in render(table) and "Fig 1(b)" in render(table)

    def test_table4_structure(self):
        table = run_artefact(artefact("table4"), **TINY)
        assert table.axis("variant") == ("bsp", "asp", "ssp_s3", "ssp_s10")
        for name in table.axis("variant"):
            for dgc in (False, True):
                assert 0.0 <= table.value(name, dgc) <= 1.0
        assert "Table IV" in render(table)


class TestSensitivityDriver:
    def test_table3_sweep_coverage(self):
        table = run_artefact(
            artefact("table3"), columns=("BSP", "ASP"), worker_counts=(2, 4), epochs=2.0
        )
        assert set(table.values) == {(c, n) for c in ("BSP", "ASP") for n in (2, 4)}
        assert "Table III" in render(table)

    def test_degradation_metric(self):
        table = run_artefact(artefact("table3"), columns=("BSP",), worker_counts=(2, 4), epochs=2.0)
        # Degradation: the accuracy drop from the smallest to the
        # largest worker count.
        d = table.value("BSP", 2) - table.value("BSP", 4)
        assert d == pytest.approx(
            table.results[("BSP", 2)][0].final_test_accuracy
            - table.results[("BSP", 4)][0].final_test_accuracy
        )


class TestScalabilityDriver:
    def test_fig2_structure(self):
        table = run_artefact(
            artefact("fig2"),
            algorithms=("bsp", "ad-psgd"),
            worker_counts=(1, 4),
            bandwidths=(10.0,),
            measure_iters=3,
        )
        assert [n for algo, _, n in table.values if algo == "bsp"] == [1, 4]
        assert all(table.value(*cell) > 0 for cell in table.values)
        assert "Fig 2" in render(table)

    def test_fig3_structure(self):
        table = run_artefact(
            artefact("fig3"),
            algorithms=("bsp",),
            models=("resnet50",),
            bandwidths=(10.0,),
            num_workers=4,
            measure_iters=3,
        )
        bd = table.value("resnet50", 10.0, "bsp")
        assert abs(sum(bd.values()) - 1.0) < 1e-9
        assert "BSP resnet50 10G" in render(table)


class TestOptimizationDriver:
    def test_fig4_ladder_complete(self):
        table = run_artefact(
            artefact("fig4"), algorithms=("asp",), worker_counts=(4,), measure_iters=3
        )
        ladder = [(rung, table.value("asp", 4, rung)) for rung in table.axis("rung")]
        assert [rung for rung, _ in ladder] == list(LADDER)
        assert all(tput > 0 for _, tput in ladder)
        assert "Fig 4" in render(table)
