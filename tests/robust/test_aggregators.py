"""Unit tests for the Byzantine-robust aggregation rules.

Each rule is checked on small hand-computable stacks: the honest
answer must come back exactly, and a single adversarial row must not
move the robust rules (while it freely moves the mean — that contrast
is the point of the menu).
"""

import numpy as np
import pytest

from repro.io import from_jsonable, to_jsonable
from repro.robust import AGGREGATORS, RobustConfig, aggregate_rows, krum_scores


def agg(rows, **cfg_kwargs):
    return aggregate_rows(np.asarray(rows, dtype=np.float64), RobustConfig(**cfg_kwargs))


HONEST = [[1.0, 2.0], [1.2, 1.8], [0.8, 2.2], [1.0, 2.0]]
ATTACK = [100.0, -100.0]


class TestMean:
    def test_plain_average(self):
        assert np.allclose(agg([[1.0, 1.0], [3.0, 3.0]], aggregator="mean"), [2.0, 2.0])

    def test_moved_arbitrarily_by_one_row(self):
        out = agg([*HONEST, ATTACK], aggregator="mean")
        assert np.linalg.norm(out - [1.0, 2.0]) > 10  # the vulnerability


class TestMedian:
    def test_coordinatewise(self):
        assert np.allclose(agg([[1.0], [2.0], [100.0]], aggregator="median"), [2.0])

    def test_ignores_one_outlier(self):
        out = agg([*HONEST, ATTACK], aggregator="median")
        assert np.linalg.norm(out - [1.0, 2.0]) < 0.5


class TestTrimmedMean:
    def test_trims_each_end(self):
        # n=4, trim_fraction=0.25 -> k=1: drop min and max per coordinate.
        out = agg([[0.0], [1.0], [2.0], [100.0]], aggregator="trimmed_mean",
                  trim_fraction=0.25)
        assert np.allclose(out, [1.5])

    def test_zero_trim_degenerates_to_mean(self):
        rows = [[1.0, 1.0], [3.0, 3.0]]
        out = agg(rows, aggregator="trimmed_mean", trim_fraction=0.0)
        assert np.allclose(out, [2.0, 2.0])

    def test_overtrim_falls_back_to_median(self):
        # n=2, k=0 after floor, but force 2k >= n via fraction 0.49, n=2 -> k=0.
        # With n=3 and fraction 0.4 -> k=1, 2k < n: trims to the median row.
        out = agg([[0.0], [5.0], [100.0]], aggregator="trimmed_mean",
                  trim_fraction=0.4)
        assert np.allclose(out, [5.0])


class TestNormClip:
    def test_honest_rows_unscaled(self):
        rows = [[3.0, 4.0], [3.0, 4.0]]  # norms all 5, median 5
        out = agg(rows, aggregator="norm_clip", clip_factor=3.0)
        assert np.allclose(out, [3.0, 4.0])

    def test_long_row_attenuated_not_dropped(self):
        rows = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1000.0, 0.0]]
        out = agg(rows, aggregator="norm_clip", clip_factor=2.0)
        # The attack row is scaled to norm 2, so the average is
        # (1+1+1+2)/4 = 1.25 -- bounded, unlike the raw mean (250.75).
        assert np.allclose(out, [1.25, 0.0])


class TestKrum:
    def test_scores_prefer_central_rows(self):
        rows = np.array([[0.0], [0.1], [-0.1], [50.0]])
        scores = krum_scores(rows, f=1)
        assert int(np.argmax(scores)) == 3  # the outlier scores worst

    def test_selects_an_honest_row(self):
        out = agg([*HONEST, ATTACK], aggregator="krum", krum_f=1)
        assert any(np.allclose(out, h) for h in HONEST)

    def test_small_stack_degrades_to_median(self):
        out = agg([[1.0], [9.0]], aggregator="krum", krum_f=1)
        assert np.allclose(out, [5.0])


class TestMultiKrum:
    def test_averages_m_central_rows(self):
        rows = [[0.0], [1.0], [2.0], [100.0]]
        out = agg(rows, aggregator="multi_krum", krum_f=1, multi_krum_m=2)
        # The two best-scoring rows are central ones; the outlier never
        # participates.
        assert 0.0 <= float(out[0]) <= 2.0

    def test_ignores_attack_row(self):
        out = agg([*HONEST, ATTACK], aggregator="multi_krum", krum_f=1)
        assert np.linalg.norm(out - [1.0, 2.0]) < 0.5


class TestNonFiniteHandling:
    @pytest.mark.parametrize("rule", [a for a in AGGREGATORS if a != "mean"])
    def test_nan_rows_dropped_before_robust_rules(self, rule):
        rows = [[1.0, 2.0], [np.nan, 2.0], [1.0, 2.0], [1.0, 2.0]]
        out = agg(rows, aggregator=rule, krum_f=1)
        assert np.isfinite(out).all()
        assert np.allclose(out, [1.0, 2.0])

    def test_all_nan_returns_none(self):
        assert agg([[np.nan], [np.inf]], aggregator="median") is None

    def test_empty_stack_returns_none(self):
        assert aggregate_rows(np.empty((0, 3)), RobustConfig(aggregator="median")) is None

    def test_mean_keeps_baseline_semantics(self):
        # The vulnerable baseline does NOT filter: a NaN row poisons it,
        # exactly as the unprotected simulator behaves.
        out = agg([[np.nan], [1.0]], aggregator="mean")
        assert np.isnan(out).any()


class TestScaleContract:
    """Every rule returns a vector on the mean's scale: for identical
    honest rows, every rule returns exactly that row."""

    @pytest.mark.parametrize("rule", AGGREGATORS)
    def test_identical_rows_fixed_point(self, rule):
        rows = [[0.5, -1.5, 2.0]] * 4
        out = agg(rows, aggregator=rule, krum_f=1)
        assert np.allclose(out, [0.5, -1.5, 2.0])


class TestConfigValidation:
    def test_unknown_aggregator_rejected(self):
        with pytest.raises(ValueError):
            RobustConfig(aggregator="average")

    def test_bad_trim_fraction_rejected(self):
        with pytest.raises(ValueError):
            RobustConfig(trim_fraction=0.5)

    def test_bad_screen_factor_rejected(self):
        with pytest.raises(ValueError):
            RobustConfig(screen_factor=0.0)

    def test_roundtrip(self):
        cfg = RobustConfig(aggregator="krum", krum_f=2, screen_factor=3.0)
        assert from_jsonable(RobustConfig, to_jsonable(cfg)) == cfg
