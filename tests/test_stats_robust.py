"""Tests for robust estimators and the Eq. 10 magnitude machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    MAD_SCALE,
    mad,
    magnitude_score,
    median,
    median_absolute_deviation,
    outlier_count,
    sliding_magnitude,
    sliding_magnitude_rows,
    sliding_median_mad,
    trimmed_mean,
    weekly_window_bins,
)

finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


class TestMedianMad:
    def test_median_basic(self):
        assert median([5.0, 1.0, 3.0]) == 3.0
        assert median([1.0, 2.0]) == 1.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_mad_basic(self):
        assert median_absolute_deviation([1.0, 1.0, 2.0, 2.0, 4.0]) == 1.0
        assert mad([3.0, 3.0, 3.0]) == 0.0

    def test_mad_empty_raises(self):
        with pytest.raises(ValueError):
            mad([])

    @given(st.lists(finite, min_size=1, max_size=100))
    def test_mad_nonnegative(self, values):
        assert mad(values) >= 0

    @given(st.lists(finite, min_size=1, max_size=100), st.floats(-1e6, 1e6))
    def test_mad_translation_invariant(self, values, shift):
        assert mad([v + shift for v in values]) == pytest.approx(
            mad(values), rel=1e-9, abs=1e-6
        )

    def test_mad_scale_constant_matches_paper(self):
        assert MAD_SCALE == 1.4826


class TestMagnitudeScore:
    def test_quiet_series_scores_near_zero(self):
        window = [0.0] * 167
        assert magnitude_score(0.0, window) == 0.0

    def test_spike_scores_high(self):
        window = [0.0] * 167
        assert magnitude_score(100.0, window) == pytest.approx(100.0)

    def test_eq10_formula(self):
        window = [1.0, 2.0, 3.0, 4.0, 5.0]
        value = 10.0
        expected = (10.0 - 3.0) / (1.0 + MAD_SCALE * 1.0)
        assert magnitude_score(value, window) == pytest.approx(expected)

    def test_empty_window(self):
        assert magnitude_score(5.0, []) == 0.0

    def test_negative_spike_gives_negative_magnitude(self):
        window = [0.0] * 100
        assert magnitude_score(-50.0, window) < -10


class TestSlidingWindows:
    def test_sliding_median_trailing_window(self):
        medians, mads = sliding_median_mad([1.0, 2.0, 3.0, 4.0], window=2)
        assert list(medians) == [1.0, 1.5, 2.5, 3.5]
        assert list(mads) == [0.0, 0.5, 0.5, 0.5]

    def test_min_periods_yields_nan(self):
        medians, _ = sliding_median_mad([1.0, 2.0, 3.0], window=3, min_periods=2)
        assert np.isnan(medians[0])
        assert medians[1] == 1.5

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            sliding_median_mad([1.0], window=0)
        with pytest.raises(ValueError):
            sliding_median_mad([1.0], window=2, min_periods=0)

    def test_sliding_magnitude_flat_series_is_zero(self):
        mags = sliding_magnitude([5.0] * 50, window=10)
        assert np.allclose(mags, 0.0)

    def test_sliding_magnitude_detects_spike(self):
        series = [0.0] * 100 + [500.0] + [0.0] * 20
        mags = sliding_magnitude(series, window=50)
        assert np.argmax(mags) == 100
        assert mags[100] > 100

    def test_sliding_magnitude_detects_negative_spike(self):
        series = [0.0] * 100 + [-500.0] + [0.0] * 20
        mags = sliding_magnitude(series, window=50)
        assert np.argmin(mags) == 100
        assert mags[100] < -100

    @settings(max_examples=30)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=80))
    def test_sliding_magnitude_finite(self, values):
        mags = sliding_magnitude(values, window=7)
        assert np.all(np.isfinite(mags))


def bits(array: np.ndarray) -> np.ndarray:
    """Float64 values as raw bit patterns (NaN payloads and -0.0 count)."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


class TestSlidingMagnitudeRows:
    """The all-series kernel ≡ the 1-D reference, bit for bit."""

    @staticmethod
    def reference(values: np.ndarray, window: int) -> np.ndarray:
        n_series = int(np.prod(values.shape[:-1]))
        rows = [
            sliding_magnitude(row, window=window)
            for row in values.reshape(n_series, values.shape[-1])
        ]
        return np.array(rows).reshape(values.shape)

    @pytest.mark.parametrize(
        "shape, window",
        [((40, 31), 7), ((2, 25, 12), 168), ((9, 20), 1), ((6, 5), 5),
         ((0, 4), 3), ((3, 0), 3), ((11,), 4)],
    )
    def test_matches_reference_bit_for_bit(self, shape, window):
        rng = np.random.default_rng(sum(shape) + window)
        values = rng.uniform(-5.0, 50.0, shape) * (rng.random(shape) < 0.4)
        if values.ndim > 1 and values.shape[-1] > 3 and len(values) > 2:
            values[0] = 0.0  # a quiet AS: exact +0.0 everywhere
            values[1, ..., 2] = np.nan  # NaN poisons only its own windows
            values[2] = np.nan
        expected = self.reference(values, window)
        n = shape[-1]
        for first in sorted({0, n // 2, max(0, n - 1), n}):
            scored = sliding_magnitude_rows(values, window, first)
            assert scored.shape == shape[:-1] + (n - first,)
            assert np.array_equal(bits(scored), bits(expected[..., first:]))

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(st.just(0.0), st.floats(-1e6, 1e6), st.just(np.nan)),
                min_size=6, max_size=6,
            ),
            min_size=1, max_size=5,
        ),
        window=st.integers(1, 8),
        first=st.integers(0, 6),
    )
    def test_property_matches_reference(self, rows, window, first):
        values = np.array(rows)
        scored = sliding_magnitude_rows(values, window, first)
        expected = self.reference(values, window)[:, first:]
        assert np.array_equal(bits(scored), bits(expected))

    def test_strided_input_is_not_modified(self):
        capacity = np.zeros((2, 8, 16))
        capacity[:, :5, :9] = np.random.default_rng(5).uniform(0, 9, (2, 5, 9))
        before = capacity.copy()
        live = capacity[:, :5, :9]
        scored = sliding_magnitude_rows(live, 4, first=8)
        assert np.array_equal(capacity, before)
        assert np.array_equal(
            bits(scored), bits(self.reference(live, 4)[..., 8:])
        )

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            sliding_magnitude_rows(np.zeros((2, 3)), window=0)


class TestAuxiliaries:
    def test_trimmed_mean_drops_outliers(self):
        assert trimmed_mean([1.0, 2.0, 3.0, 100.0], proportion=0.25) == 2.5

    def test_trimmed_mean_zero_trim_is_mean(self):
        assert trimmed_mean([1.0, 2.0, 3.0], proportion=0.0) == 2.0

    def test_trimmed_mean_validates(self):
        with pytest.raises(ValueError):
            trimmed_mean([1.0], proportion=0.5)
        with pytest.raises(ValueError):
            trimmed_mean([], proportion=0.1)

    def test_outlier_count_matches_paper_rule(self):
        """Counts values above mean + 3 sigma, the paper's outlier rule."""
        rng = np.random.default_rng(0)
        clean = rng.normal(5.0, 1.0, size=10_000)
        spiky = np.concatenate([clean, [500.0] * 30])
        assert outlier_count(spiky) >= 30 - 5  # allow borderline effects
        assert outlier_count(clean) < 100

    def test_outlier_count_empty(self):
        assert outlier_count([]) == 0

    def test_weekly_window_bins(self):
        assert weekly_window_bins(3600) == 168
        assert weekly_window_bins(1800) == 336
        with pytest.raises(ValueError):
            weekly_window_bins(0)
