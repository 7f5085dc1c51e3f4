"""Critical-path attribution: conservation, stragglers, what-ifs.

The load-bearing acceptance property is *conservation*: for every
iteration window, the walked path's compute + comm + wait equals the
window's wall time, and the measured-window total equals the run's
reported ``measured_time`` — pinned at 1e-6 for all seven algorithms.
"""

import math

import pytest

from repro.core.runner import DistributedRunner
from repro.obs import ObsConfig, analyze_run, attribution_summary_line, build_span_dag
from repro.obs.critpath import attribute_windows, detect_outliers

from tests.conftest import small_full_config, small_timing_config

ALGORITHMS = ("bsp", "asp", "ssp", "easgd", "ar-sgd", "ad-psgd", "gosgd")

CONSERVATION_TOL = 1e-6


def _observed(cfg):
    runner = DistributedRunner(cfg, obs=ObsConfig(enabled=True))
    result = runner.run()
    return runner, result


@pytest.fixture(scope="module", params=ALGORITHMS)
def timing_run(request):
    # Smaller than the shared fixture config: seven algorithms run here.
    cfg = small_timing_config(
        request.param, trace=True, num_workers=4, measure_iters=4, warmup_iters=1
    )
    runner, result = _observed(cfg)
    return runner, result, analyze_run(runner)


class TestConservationTiming:
    def test_per_window_residual(self, timing_run):
        runner, _, report = timing_run
        dag = build_span_dag(observer=runner.observer, config=runner.config)
        attributions = attribute_windows(dag)
        assert attributions
        for a in attributions:
            assert abs(a.attributed - a.duration) <= CONSERVATION_TOL, (
                f"{runner.config.algorithm} window {a.index}: "
                f"attributed {a.attributed} != duration {a.duration}"
            )
            assert not a.truncated

    def test_total_equals_measured_time(self, timing_run):
        runner, result, report = timing_run
        assert report["windows"] == runner.config.measure_iters
        assert report["totals"]["total"] == pytest.approx(
            result.measured_time, abs=CONSERVATION_TOL
        )
        attributed = sum(
            report["totals"][k] for k in ("compute", "comm", "wait")
        )
        assert attributed == pytest.approx(
            report["totals"]["total"], abs=CONSERVATION_TOL
        )

    def test_report_shape(self, timing_run):
        runner, _, report = timing_run
        assert report["algorithm"] == runner.config.algorithm
        assert report["mode"] == "timing"
        assert report["max_residual"] <= CONSERVATION_TOL
        assert report["truncated_windows"] == 0
        assert len(report["per_iteration"]) == report["windows"]
        fracs = report["fractions"]
        assert math.fsum(fracs.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0 for v in fracs.values())

    def test_segments_cover_the_window(self, timing_run):
        # Segment *durations* are exact (that is what conservation
        # sums); positions may be approximate where a PS gap is split
        # into wait/aggregation, so adjacency is not asserted.
        runner, _, _ = timing_run
        dag = build_span_dag(observer=runner.observer, config=runner.config)
        for a in attribute_windows(dag):
            assert a.segments, "every window walks at least one segment"
            total = math.fsum(s.duration for s in a.segments)
            assert total == pytest.approx(a.duration, abs=CONSERVATION_TOL)
            for s in a.segments:
                assert s.duration >= 0
                assert s.start >= a.start - CONSERVATION_TOL
                assert s.end <= a.end + CONSERVATION_TOL
                assert s.category in ("compute", "comm", "wait")


class TestConservationFullMode:
    def test_bsp_full_mode(self):
        runner, _ = _observed(small_full_config("bsp"))
        report = analyze_run(runner)
        assert report["mode"] == "full"
        assert report["windows"] > 0
        assert report["max_residual"] <= CONSERVATION_TOL
        assert report["truncated_windows"] == 0


class TestWhatIf:
    @pytest.fixture(scope="class")
    def bsp_report(self):
        runner, _ = _observed(
            small_timing_config(
                "bsp", trace=True, num_workers=4, measure_iters=4, warmup_iters=1
            )
        )
        return analyze_run(runner)

    def test_projections_present_and_sane(self, bsp_report):
        whatif = bsp_report["whatif"]
        total = bsp_report["totals"]["total"]
        assert set(whatif) == {"zero_comm", "link_x10", "drop_slowest"}
        for proj in whatif.values():
            assert 0.0 <= proj["projected_time"] <= total + 1e-12
            assert proj["speedup"] >= 1.0 - 1e-12
            assert proj["note"]

    def test_zero_comm_removes_exactly_the_comm(self, bsp_report):
        whatif = bsp_report["whatif"]
        expected = bsp_report["totals"]["total"] - bsp_report["totals"]["comm"]
        assert whatif["zero_comm"]["projected_time"] == pytest.approx(expected)

    def test_link_x10_saves_at_most_the_comm(self, bsp_report):
        saved = (
            bsp_report["totals"]["total"]
            - bsp_report["whatif"]["link_x10"]["projected_time"]
        )
        assert 0.0 <= saved <= bsp_report["totals"]["comm"] + 1e-12


class TestStragglerDetection:
    def test_too_few_values(self):
        assert detect_outliers({"a": 1.0, "b": 99.0}) == []

    def test_clear_outlier_flags(self):
        values = {f"w{i}": 1.0 + 0.01 * i for i in range(8)}
        values["w7"] = 5.0
        assert detect_outliers(values) == ["w7"]

    def test_homogeneous_no_flags(self):
        assert detect_outliers({f"w{i}": 2.0 for i in range(8)}) == []

    def test_zero_mad_relative_fallback(self):
        values = {f"w{i}": 1.0 for i in range(7)}
        values["w7"] = 1.2  # > 1.05x the median even though MAD == 0
        assert detect_outliers(values) == ["w7"]

    def test_fast_outliers_not_flagged(self):
        values = {f"w{i}": 1.0 for i in range(7)}
        values["w7"] = 0.01
        assert detect_outliers(values) == []

    def test_injected_straggler_is_found(self):
        # Synthetic DAG: three workers, one computing ~3x slower.
        from repro.obs import analyze_dag
        from repro.obs.spans import EntityTimeline, IterationWindow, SpanDAG

        durations = {0: 1.0, 1: 1.1, 2: 3.0}
        entities, wid_to_node = {}, {}
        for wid, dur in durations.items():
            nid = wid + 10
            ent = EntityTimeline(
                node_id=nid, kind="worker", index=wid, machine=0, label=f"w{wid}"
            )
            ent.compute_starts = [0.0, 3.0]
            ent.compute_ends = [dur, 3.0 + dur]
            entities[nid] = ent
            wid_to_node[wid] = nid
        dag = SpanDAG(
            entities=entities,
            wid_to_node=wid_to_node,
            windows=[
                IterationWindow(index=1, start=0.0, end=3.0, closing_worker=2),
                IterationWindow(index=2, start=3.0, end=6.0, closing_worker=2),
            ],
            measured_rounds=None,
            agg_wait_union=[],
            spans=[],
            messages=[],
            num_workers=3,
        )
        report = analyze_dag(dag)
        assert report["stragglers"]["workers"] == [2]
        # Slack: in each window the pack finishes 3 - 1 = 2s apart.
        assert report["straggler_slack"] == pytest.approx(4.0)
        # The slow worker's spans cover both windows end-to-end, so
        # attribution is pure compute and conserves exactly.
        assert report["totals"]["compute"] == pytest.approx(6.0)
        assert report["max_residual"] <= CONSERVATION_TOL
        # Pacing w2 like the others (~1.05s mean vs 3.0) shortens the
        # path by roughly 2/3.
        drop = report["whatif"]["drop_slowest"]
        assert drop["projected_time"] == pytest.approx(6.0 * (1.05 / 3.0))
        assert "w2" in drop["note"]


class TestSummaryLine:
    def test_format(self):
        line = attribution_summary_line(
            {"compute": 0.625, "comm": 0.25, "wait": 0.125}
        )
        assert line == "compute 62.5% / comm 25.0% / wait 12.5%"

    def test_report_summary_matches_fractions(self):
        runner, _ = _observed(
            small_timing_config(
                "bsp", trace=True, num_workers=4, measure_iters=2, warmup_iters=1
            )
        )
        report = analyze_run(runner)
        assert report["summary"] == attribution_summary_line(report["fractions"])


class TestFig3CrossValidation:
    def test_bsp_split_agrees_with_model(self):
        # The two views — Fig 3's summed-over-workers model vs the
        # longest-chain attribution — must agree on the compute
        # fraction within the documented tolerance.
        from repro.analysis.breakdown import fig3_crosscheck

        runner, result = _observed(small_timing_config("bsp", trace=True))
        report = analyze_run(runner)
        crosscheck = fig3_crosscheck(result.breakdown, report["fractions"])
        assert crosscheck["agrees"], crosscheck
        assert crosscheck["diffs"]["compute"] <= crosscheck["tolerance"]

    def test_crosscheck_is_tolerance_parametric(self):
        from repro.analysis.breakdown import fig3_crosscheck

        breakdown = {"compute": 6.0, "comm": 2.0, "local_agg": 1.0, "global_agg": 1.0}
        fractions = {"compute": 0.55, "comm": 0.35, "wait": 0.10}
        assert fig3_crosscheck(breakdown, fractions, tolerance=0.10)["agrees"]
        assert not fig3_crosscheck(breakdown, fractions, tolerance=0.01)["agrees"]


class TestAnalyzeRunGuard:
    def test_unobserved_runner_raises(self):
        runner = DistributedRunner(
            small_timing_config("bsp", num_workers=4, measure_iters=2)
        )
        runner.run()
        with pytest.raises(ValueError, match="observed run"):
            analyze_run(runner)
