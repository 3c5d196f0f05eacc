"""Unit tests for the statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import mean, median, percentile

samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
)


class TestBasics:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2

    def test_mean_empty(self):
        with pytest.raises(ValueError):
            mean([])

    def test_median_odd(self):
        assert median([3, 1, 2]) == 2

    def test_median_even_interpolates(self):
        assert median([1, 2, 3, 4]) == 2.5


class TestPercentile:
    def test_bounds(self):
        data = [1, 2, 3, 4, 5]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 5

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5

    def test_even_count_interpolates_between_the_middle_two(self):
        # Nearest rank would pick 3.
        assert percentile([4, 1, 3, 2], 50) == 2.5

    def test_single_value(self):
        assert percentile([7], 99) == 7

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @given(samples, st.floats(min_value=0, max_value=100))
    def test_within_min_max(self, data, pct):
        p = percentile(data, pct)
        assert min(data) <= p <= max(data)

    @given(samples)
    def test_monotone_in_pct(self, data):
        assert percentile(data, 25) <= percentile(data, 75)


class TestPercentileEdgeCases:
    def test_nan_pct_rejected(self):
        with pytest.raises(ValueError):
            percentile([1, 2, 3], float("nan"))

    def test_exact_endpoints_no_interpolation(self):
        data = [3.0, 1.0, 2.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 3.0

    def test_unsorted_input(self):
        assert percentile([9, 1, 5], 50) == 5


class TestPercentiles:
    def test_matches_percentile_pointwise(self):
        from repro.util.stats import percentiles

        data = [5.0, 1.0, 9.0, 3.0, 7.0]
        points = percentiles(data, (0.0, 25.0, 50.0, 99.0, 100.0))
        for pct, value in points.items():
            assert value == percentile(data, pct)

    def test_empty_values_rejected(self):
        from repro.util.stats import percentiles

        with pytest.raises(ValueError):
            percentiles([], (50.0,))

    def test_out_of_range_pct_rejected(self):
        from repro.util.stats import percentiles

        with pytest.raises(ValueError):
            percentiles([1.0], (50.0, 101.0))

    def test_single_element(self):
        from repro.util.stats import percentiles

        assert percentiles([4.0], (0.0, 50.0, 100.0)) == {
            0.0: 4.0,
            50.0: 4.0,
            100.0: 4.0,
        }
