"""Tests for the observer's virtual-time series."""

import pytest

from repro.obs import Series


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


class TestSeriesDownsampling:
    """A series keeps every sample: nothing thins it."""

    def test_unbounded_by_default(self):
        s = Series("depth")
        for i in range(1000):
            s.observe(float(i), float(i))
        assert len(s) == 1000
