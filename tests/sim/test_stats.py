"""Statistics helper tests (with property-based coverage)."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Histogram, geomean, percentile


class TestGeomean:
    def test_known_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_identity(self):
        assert geomean([3.0, 3.0, 3.0]) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9

    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=20),
           st.floats(0.5, 2.0))
    def test_scale_invariance(self, values, k):
        assert geomean([v * k for v in values]) \
            == pytest.approx(geomean(values) * k, rel=1e-9)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5.0, 1.0, 3.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 5.0

    def test_single_element(self):
        assert percentile([7.0], 99) == 7.0

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           st.floats(0, 100))
    def test_within_range(self, values, q):
        p = percentile(values, q)
        span = max(values) - min(values)
        tol = 1e-9 * max(1.0, span)
        assert min(values) - tol <= p <= max(values) + tol


class TestHistogram:
    def test_binning(self):
        hist = Histogram(0.0, 10.0, 5)
        hist.extend([1.0, 3.0, 3.5, 9.0])
        assert hist.counts == [1, 2, 0, 0, 1]
        assert hist.total == 4

    def test_out_of_range_clamps(self):
        hist = Histogram(0.0, 10.0, 2)
        hist.add(-5.0)
        hist.add(50.0)
        assert hist.counts == [1, 1]

    def test_density_integrates_to_one(self):
        hist = Histogram(0.0, 10.0, 4)
        hist.extend([1.0, 2.0, 6.0, 9.0])
        width = 10.0 / 4
        assert sum(d * width for d in hist.density()) \
            == pytest.approx(1.0)

    def test_empty_density_and_mode(self):
        hist = Histogram(0.0, 1.0, 2)
        assert hist.density() == [0.0, 0.0]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, 0)
