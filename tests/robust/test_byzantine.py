"""Seeded golden tests: robust aggregation under a live Byzantine worker.

The headline contract of the robustness PR, at test scale (8 workers,
8 epochs, attack scale 10):

* unprotected mean aggregation loses most of its accuracy to one
  sign-flipping, amplifying worker;
* median and Krum retain it;
* the pairwise-mixing algorithms stay convergent with per-peer norm
  screening, and the offender is quarantined.

Everything is seeded, so the retention numbers are deterministic; the
assertions use wide margins (mean <= 0.5 retained, robust >= 0.8) so
they pin the *phenomenon*, not the third decimal.
"""

import math

import pytest

from repro.experiments.artefact import artefact, render, run_artefact
from repro.experiments.byzantine import (
    DEFAULT_AGGREGATORS,
    ROBUST_ALGORITHMS,
    byzantine_fault_config,
    robust_config_for,
)
from repro.experiments.executor import SweepExecutor


def run_byzantine(**shape):
    return run_artefact(artefact("byzantine"), **shape)


def robust_summary(table, algo: str, agg: str) -> dict:
    return table.results[(algo, agg)][0].metadata.get("robust", {})


@pytest.fixture(scope="module")
def bsp_grid():
    return run_byzantine(
        algorithms=("bsp",),
        aggregators=("mean", "median", "krum"),
        num_workers=8,
        epochs=8.0,
        executor=SweepExecutor(jobs=4, cache=False),
    )


@pytest.fixture(scope="module")
def screening_grid():
    return run_byzantine(
        algorithms=("ad-psgd", "gosgd"),
        aggregators=("mean", "median"),
        num_workers=8,
        epochs=8.0,
        executor=SweepExecutor(jobs=4, cache=False),
    )


class TestCentralizedRetention:
    def test_mean_loses_at_least_half(self, bsp_grid):
        assert bsp_grid.value("bsp", "mean") <= 0.5

    def test_median_and_krum_retain(self, bsp_grid):
        assert bsp_grid.value("bsp", "median") >= 0.8
        assert bsp_grid.value("bsp", "krum") >= 0.8

    def test_baseline_actually_learned(self, bsp_grid):
        # Retention ratios are meaningless against a chance-level
        # baseline (4-class spirals: chance = 0.25).
        assert bsp_grid.baselines[("bsp", 0)].final_test_accuracy > 0.5

    def test_mean_cell_runs_unprotected(self, bsp_grid):
        # The vulnerability column carries no robust layer at all.
        assert robust_summary(bsp_grid, "bsp", "mean") == {}
        assert robust_summary(bsp_grid, "bsp", "median")["aggregator"] == "median"

    def test_render_mentions_the_attack(self, bsp_grid):
        table = render(bsp_grid)
        assert "Byzantine" in table and "BSP" in table


class TestDecentralizedScreening:
    @pytest.mark.parametrize("algo", ["ad-psgd", "gosgd"])
    def test_screening_keeps_convergence(self, screening_grid, algo):
        assert screening_grid.value(algo, "mean") <= 0.6  # unprotected
        assert screening_grid.value(algo, "median") >= 0.8  # screened

    @pytest.mark.parametrize("algo", ["ad-psgd", "gosgd"])
    def test_offender_quarantined(self, screening_grid, algo):
        summary = robust_summary(screening_grid, algo, "median")
        # Worker 7 (the highest id) is the Byzantine one by construction.
        assert summary["quarantines_requested"] == [7]
        assert sum(summary["rejections"].values()) >= 1

    @pytest.mark.parametrize("algo", ["ad-psgd", "gosgd"])
    def test_faulty_runs_complete_finite(self, screening_grid, algo):
        for agg in ("mean", "median"):
            acc = screening_grid.results[(algo, agg)][0].final_test_accuracy
            assert math.isfinite(acc)


class TestGridHelpers:
    def test_fault_config_targets_highest_ids(self):
        faults = byzantine_fault_config(8, 2, scale=5.0)
        assert sorted(e.worker for e in faults.events) == [6, 7]
        assert all(e.kind == "byzantine" and e.scale == 5.0 for e in faults.events)

    def test_fault_config_count_validated(self):
        with pytest.raises(ValueError):
            byzantine_fault_config(4, 0)
        with pytest.raises(ValueError):
            byzantine_fault_config(4, 4)

    def test_mean_cell_has_no_robust_layer(self):
        assert robust_config_for("bsp", "mean") is None

    def test_quorum_algorithms_get_the_rule(self):
        cfg = robust_config_for("bsp", "krum", byzantine=2)
        assert cfg.aggregator == "krum" and cfg.krum_f == 2
        assert cfg.screen_factor is None

    @pytest.mark.parametrize("algo", ["ad-psgd", "gosgd", "easgd"])
    def test_mixing_algorithms_get_screening(self, algo):
        cfg = robust_config_for(algo, "median")
        assert cfg.screen_factor is not None
        assert cfg.quarantine_strikes > 0

    def test_default_grid_shape(self):
        assert set(DEFAULT_AGGREGATORS) <= {
            "mean", "median", "trimmed_mean", "norm_clip", "krum", "multi_krum"
        }
        assert set(ROBUST_ALGORITHMS) == {
            "bsp", "asp", "ssp", "easgd", "ar-sgd", "ad-psgd", "gosgd"
        }
