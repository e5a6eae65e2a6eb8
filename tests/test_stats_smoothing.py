"""Tests for exponential smoothing (paper Eq. 7/8) and the warm-up seed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reference import ExponentialSmoother, VectorSmoother
from repro.stats import exponential_smoothing

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestExponentialSmoothingStep:
    def test_midpoint(self):
        assert exponential_smoothing(10.0, 20.0, 0.5) == 15.0

    def test_small_alpha_barely_moves(self):
        assert exponential_smoothing(10.0, 1000.0, 0.01) == pytest.approx(19.9)

    def test_rejects_alpha_bounds(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                exponential_smoothing(1.0, 2.0, alpha)

    @given(finite, finite, st.floats(0.01, 0.99))
    def test_result_between_inputs(self, previous, observation, alpha):
        result = exponential_smoothing(previous, observation, alpha)
        low, high = min(previous, observation), max(previous, observation)
        assert low - 1e-9 <= result <= high + 1e-9


class TestExponentialSmoother:
    def test_three_bin_median_seed(self):
        """Paper §4.2.4: m̄0 = median(m1, m2, m3)."""
        smoother = ExponentialSmoother(alpha=0.5, seed_bins=3)
        assert smoother.update(1.0) is None
        assert not smoother.ready
        assert smoother.update(100.0) is None
        assert smoother.update(2.0) == 2.0  # median(1, 100, 2)
        assert smoother.ready

    def test_smoothing_after_seed(self):
        smoother = ExponentialSmoother(alpha=0.5, seed_bins=1)
        smoother.update(10.0)
        assert smoother.update(20.0) == 15.0
        assert smoother.value == 15.0

    def test_anomaly_resistance_with_small_alpha(self):
        """A one-bin spike must barely move the reference (paper design)."""
        smoother = ExponentialSmoother(alpha=0.01, seed_bins=3)
        for _ in range(3):
            smoother.update(5.0)
        smoother.update(500.0)  # anomalous bin
        assert smoother.value == pytest.approx(5.0 + 0.01 * 495.0)
        assert smoother.value < 10.0

    def test_preview_does_not_mutate(self):
        smoother = ExponentialSmoother(alpha=0.5, seed_bins=1)
        smoother.update(10.0)
        assert smoother.preview(20.0) == 15.0
        assert smoother.value == 10.0

    def test_preview_during_warmup(self):
        smoother = ExponentialSmoother(alpha=0.5, seed_bins=3)
        smoother.update(1.0)
        assert smoother.preview(2.0) is None
        smoother.update(2.0)
        assert smoother.preview(3.0) == 2.0
        assert not smoother.ready

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialSmoother(alpha=0.0)
        with pytest.raises(ValueError):
            ExponentialSmoother(alpha=1.0)
        with pytest.raises(ValueError):
            ExponentialSmoother(seed_bins=0)

    def test_warmup_buffer_bounded_to_seed_bins(self):
        """The warm-up buffer never holds more than seed_bins entries."""
        smoother = ExponentialSmoother(alpha=0.5, seed_bins=5)
        for value in (1.0, 2.0, 3.0):
            smoother.update(value)
            assert len(smoother._warmup) <= smoother.seed_bins
        # Shrinking seed_bins mid-warm-up must not leave a larger buffer
        # behind: only the newest seed_bins observations seed the median.
        smoother.seed_bins = 2
        result = smoother.update(4.0)
        assert smoother.ready
        assert result == 3.5  # median(3.0, 4.0): oldest entries dropped
        assert smoother._warmup == []

    def test_preview_respects_seed_bins_bound(self):
        smoother = ExponentialSmoother(alpha=0.5, seed_bins=3)
        smoother.update(1.0)
        smoother.update(100.0)
        smoother.seed_bins = 2
        assert smoother.preview(2.0) == 51.0  # median(100, 2)
        assert not smoother.ready  # preview never mutates

    @settings(max_examples=30)
    @given(st.lists(finite, min_size=4, max_size=50), st.floats(0.01, 0.99))
    def test_reference_stays_within_observed_range(self, values, alpha):
        smoother = ExponentialSmoother(alpha=alpha, seed_bins=3)
        for value in values:
            smoother.update(value)
        assert smoother.ready
        assert min(values) - 1e-6 <= smoother.value <= max(values) + 1e-6


class TestVectorSmoother:
    def test_first_observation_becomes_reference(self):
        smoother = VectorSmoother(alpha=0.1)
        weights = smoother.update({"A": 10, "B": 100, "Z": 5})
        assert weights == {"A": 10.0, "B": 100.0, "Z": 5.0}

    def test_eq8_update(self):
        smoother = VectorSmoother(alpha=0.5)
        smoother.update({"A": 10.0})
        weights = smoother.update({"A": 20.0})
        assert weights == {"A": 15.0}

    def test_unseen_hop_decays(self):
        """Hop unseen at time t contributes p_i = 0 (paper §5.1)."""
        smoother = VectorSmoother(alpha=0.5)
        smoother.update({"A": 10.0, "B": 8.0})
        weights = smoother.update({"A": 10.0})
        assert weights["B"] == pytest.approx(4.0)

    def test_new_hop_enters_scaled_by_alpha(self):
        """Hop first seen at time t has reference p̄_i = 0 (paper §5.1)."""
        smoother = VectorSmoother(alpha=0.25)
        smoother.update({"A": 10.0})
        weights = smoother.update({"A": 10.0, "C": 40.0})
        assert weights["C"] == pytest.approx(10.0)

    def test_pruning_removes_dust(self):
        smoother = VectorSmoother(alpha=0.5, prune_below=0.1)
        smoother.update({"A": 10.0, "B": 0.2})
        smoother.update({"A": 10.0})
        smoother.update({"A": 10.0})
        assert "B" not in smoother.weights

    def test_rejects_negative_counts(self):
        smoother = VectorSmoother()
        with pytest.raises(ValueError):
            smoother.update({"A": -1.0})

    def test_updates_counter_and_bool(self):
        smoother = VectorSmoother()
        assert not smoother
        smoother.update({"A": 1.0})
        assert smoother
        assert smoother.updates == 1

    def test_weights_returns_copy(self):
        smoother = VectorSmoother()
        smoother.update({"A": 1.0})
        view = smoother.weights
        view["A"] = 999.0
        assert smoother.weights["A"] == 1.0
