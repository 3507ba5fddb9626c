"""Tests for the metrics package."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    MetricsRecorder,
    median,
    percentile,
    render_histogram,
    render_table,
    summarize,
)


class TestStats:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert median([7.0]) == 7.0
        # Even n: the mean of the middle pair, also when it is a tie.
        assert median([4.0, 1.0, 3.0, 2.0, 6.0, 5.0]) == 3.5
        assert median([3.0, 1.0, 3.0, 1.0]) == 2.0
        assert median([2.0, 1.0, 2.0, 9.0, 2.0]) == 2.0

    def test_median_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    def test_percentile_bounds(self):
        xs = [float(i) for i in range(101)]
        assert percentile(xs, 0) == 0.0
        assert percentile(xs, 100) == 100.0
        assert percentile(xs, 50) == 50.0
        assert percentile(xs, 25) == 25.0 and percentile(xs, 95) == 95.0

    def test_percentile_interpolates_linearly(self):
        # Index (n - 1) * q / 100 into the sorted samples, then linear
        # interpolation between its neighbours (numpy's default).
        assert [percentile([5.0], q) for q in (0, 25, 95, 100)] == [5.0] * 4
        xs = [4.0, 1.0, 3.0, 2.0]  # index 0.75 at q=25, 2.85 at q=95
        assert percentile(xs, 0) == 1.0
        assert percentile(xs, 25) == 1.75
        assert percentile(xs, 95) == pytest.approx(3.85, rel=1e-15)
        assert percentile(xs, 100) == 4.0
        ties = [2.0, 9.0, 2.0, 1.0, 2.0]  # index 1 at q=25, 3.8 at q=95
        assert percentile(ties, 0) == 1.0
        assert percentile(ties, 25) == 2.0
        assert percentile(ties, 95) == pytest.approx(2.0 + 7 * 0.8, rel=1e-15)
        assert percentile(ties, 100) == 9.0
        assert percentile([1.0, 1.0, 3.0, 3.0], 25) == 1.0
        with pytest.raises(ValueError):
            percentile(xs, 101)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summary_fields(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert s.p25 == 1.75 and s.p75 == 3.25
        assert s.p95 == pytest.approx(3.85, rel=1e-15)
        # Sample standard deviation (n - 1): sqrt((2.25 + 0.25) * 2 / 3).
        assert s.stddev == pytest.approx((5 / 3) ** 0.5, rel=1e-15)

    def test_summary_with_ties(self):
        s = summarize([2.0, 9.0, 2.0, 1.0, 2.0])
        assert (s.count, s.minimum, s.maximum) == (5, 1.0, 9.0)
        assert s.mean == pytest.approx(3.2, rel=1e-15)
        assert s.median == s.p25 == s.p75 == 2.0
        assert s.p95 == pytest.approx(7.6, rel=1e-15)
        # Squared deviations from 3.2: 3 * 1.44 + 4.84 + 33.64 = 42.8.
        assert s.stddev == pytest.approx((42.8 / 4) ** 0.5, rel=1e-15)

    def test_summary_single_sample(self):
        s = summarize([5.0])
        assert s.stddev == 0.0
        assert s.median == s.p25 == s.p75 == s.p95 == s.mean == 5.0

    def test_summary_str_readable(self):
        text = str(summarize([0.1, 0.2, 0.3]))
        assert "median=" in text and "ms" in text

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_summary_invariants(self, xs):
        import math

        s = summarize(xs)
        assert s.minimum <= s.p25 <= s.median <= s.p75 <= s.p95 <= s.maximum
        # The mean may drift past the extremes by a rounding ulp.
        tolerance = 4 * math.ulp(max(abs(s.minimum), abs(s.maximum), 1.0))
        assert s.minimum - tolerance <= s.mean <= s.maximum + tolerance
        assert s.count == len(xs)


class TestRecorder:
    def test_record_and_summary(self):
        rec = MetricsRecorder()
        for v in (1.0, 2.0, 3.0):
            rec.record("lat", v)
        assert rec.samples("lat") == [1.0, 2.0, 3.0]
        assert rec.summary("lat").median == 2.0
        assert rec.names() == ["lat"]

    def test_missing_name(self):
        rec = MetricsRecorder()
        assert rec.samples("nope") == []
        with pytest.raises(KeyError):
            rec.summary("nope")


class TestRendering:
    def test_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len({len(l) for l in lines[2:]}) <= 2  # consistent width

    def test_histogram(self):
        text = render_histogram([1, 4, 2], bucket=10.0, width=8)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[1].count("#") == 8

    def test_histogram_empty(self):
        assert "(no data)" in render_histogram([], 1.0)
