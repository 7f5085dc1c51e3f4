"""Tests for the metrics registry primitives."""

import math

import pytest

from repro.obs import Counter, Gauge, MetricsRegistry, Series


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("n")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_raises(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)


class TestGauge:
    def test_starts_nan_then_holds_last_set(self):
        g = Gauge("util")
        assert math.isnan(g.value)
        g.set(0.25)
        g.set(0.75)
        assert g.value == 0.75


class TestSeries:
    def test_observe_and_last(self):
        s = Series("depth")
        assert len(s) == 0
        with pytest.raises(ValueError):
            s.last
        s.observe(0.0, 3.0)
        s.observe(1.5, 7.0)
        assert len(s) == 2
        assert s.last == 7.0
        assert s.times == [0.0, 1.5]
        assert s.values == [3.0, 7.0]

    def test_equal_timestamps_allowed(self):
        s = Series("depth")
        s.observe(1.0, 1.0)
        s.observe(1.0, 2.0)  # same virtual instant: fine
        assert len(s) == 2

    def test_time_going_backwards_raises(self):
        s = Series("depth")
        s.observe(2.0, 1.0)
        with pytest.raises(ValueError):
            s.observe(1.0, 1.0)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.series("c") is reg.series("c")
        assert len(reg) == 3
        assert "a" in reg and "missing" not in reg

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.series("x")

    def test_kind_filtered_views(self):
        reg = MetricsRegistry()
        reg.counter("c1").inc()
        reg.gauge("g1").set(2.0)
        reg.series("s1").observe(0.0, 1.0)
        assert set(reg.counters()) == {"c1"}
        assert set(reg.gauges()) == {"g1"}
        assert set(reg.all_series()) == {"s1"}

    def test_snapshot_and_to_dict(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        s = reg.series("s")
        s.observe(0.0, 1.0)
        s.observe(2.0, 4.0)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 1.5
        # The snapshot compacts series to their last sample + count.
        assert snap["series"]["s"] == {"n": 2, "last": 4.0}
        full = reg.to_dict()
        assert full["series"]["s"]["times"] == [0.0, 2.0]
        assert full["series"]["s"]["values"] == [1.0, 4.0]


class TestSeriesDownsampling:
    """A series keeps every sample: nothing thins it."""

    def test_unbounded_by_default(self):
        s = Series("depth")
        for i in range(1000):
            s.observe(float(i), float(i))
        assert len(s) == 1000

    def test_registry_unbounded_by_default(self):
        s = MetricsRegistry().series("depth")
        for i in range(100):
            s.observe(float(i), 1.0)
        assert len(s) == 100
