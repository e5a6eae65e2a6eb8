"""Tests for delay-change detection (paper §4.2.2-§4.2.4)."""

import numpy as np
import pytest

from repro.reference import DelayChangeDetector, deviation_score
from repro.stats import WilsonInterval


def _samples(rng, centre, n=60, spread=0.3):
    return list(rng.normal(centre, spread, size=n))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestDeviationScore:
    def test_overlap_is_zero(self):
        observed = WilsonInterval(5.2, 5.0, 5.4, 100)
        reference = WilsonInterval(5.3, 5.1, 5.5, 100)
        assert deviation_score(observed, reference) == 0.0

    def test_increase_positive(self):
        """Eq. 6 first branch: observed above the reference."""
        observed = WilsonInterval(8.0, 7.5, 8.5, 100)
        reference = WilsonInterval(5.0, 4.8, 5.2, 100)
        expected = (7.5 - 5.2) / (5.2 - 5.0)
        assert deviation_score(observed, reference) == pytest.approx(expected)

    def test_decrease_also_positive(self):
        """Eq. 6 second branch: both branches yield positive deviations."""
        observed = WilsonInterval(2.0, 1.8, 2.2, 100)
        reference = WilsonInterval(5.0, 4.8, 5.2, 100)
        expected = (4.8 - 2.2) / (5.0 - 4.8)
        assert deviation_score(observed, reference) == pytest.approx(expected)

    def test_zero_width_reference_guarded(self):
        observed = WilsonInterval(8.0, 8.0, 8.0, 10)
        reference = WilsonInterval(5.0, 5.0, 5.0, 10)
        score = deviation_score(observed, reference)
        assert np.isfinite(score)
        assert score > 0

    def test_zero_width_reference_uses_epsilon_denominator(self):
        """A degenerate (zero-width) reference divides by _EPSILON_MS
        exactly — huge but finite scores, in both shift directions."""
        from repro.core.delaydetector import _EPSILON_MS

        reference = WilsonInterval(5.0, 5.0, 5.0, 10)
        increase = WilsonInterval(8.0, 7.0, 9.0, 10)
        decrease = WilsonInterval(2.0, 1.0, 3.0, 10)
        assert deviation_score(increase, reference) == (7.0 - 5.0) / _EPSILON_MS
        assert deviation_score(decrease, reference) == (5.0 - 3.0) / _EPSILON_MS

    def test_batch_matches_scalar_including_zero_width(self):
        """deviation_score_batch == deviation_score elementwise, bit for
        bit, across all three branches and the ε guard."""
        from repro.core.delaydetector import deviation_score_batch

        cases = [
            (WilsonInterval(5.2, 5.0, 5.4, 9), WilsonInterval(5.3, 5.1, 5.5, 9)),
            (WilsonInterval(8.0, 7.5, 8.5, 9), WilsonInterval(5.0, 4.8, 5.2, 9)),
            (WilsonInterval(2.0, 1.8, 2.2, 9), WilsonInterval(5.0, 4.8, 5.2, 9)),
            (WilsonInterval(8.0, 8.0, 8.0, 9), WilsonInterval(5.0, 5.0, 5.0, 9)),
            (WilsonInterval(1.0, 0.5, 1.5, 9), WilsonInterval(5.0, 5.0, 5.0, 9)),
        ]
        batch = deviation_score_batch(
            np.array([obs.median for obs, _ in cases]),
            np.array([obs.lower for obs, _ in cases]),
            np.array([obs.upper for obs, _ in cases]),
            np.array([ref.median for _, ref in cases]),
            np.array([ref.lower for _, ref in cases]),
            np.array([ref.upper for _, ref in cases]),
        )
        for index, (observed, reference) in enumerate(cases):
            assert batch[index] == deviation_score(observed, reference)

    def test_larger_gap_larger_deviation(self):
        reference = WilsonInterval(5.0, 4.8, 5.2, 100)
        near = WilsonInterval(6.0, 5.8, 6.2, 100)
        far = WilsonInterval(9.0, 8.8, 9.2, 100)
        assert deviation_score(far, reference) > deviation_score(near, reference)


class TestWarmupAndReference:
    def test_no_alarm_during_warmup(self, rng):
        detector = DelayChangeDetector(alpha=0.1)
        link = ("A", "B")
        for t in range(3):
            alarm = detector.observe(t, link, _samples(rng, 5.0))
            assert alarm is None
        assert detector.reference_of(link) is not None

    def test_reference_seeded_with_median_of_first_three(self, rng):
        detector = DelayChangeDetector(alpha=0.1)
        link = ("A", "B")
        detector.observe(0, link, [5.0] * 30)
        detector.observe(1, link, [9.0] * 30)
        detector.observe(2, link, [6.0] * 30)
        reference = detector.reference_of(link)
        assert reference.median == pytest.approx(6.0)  # median(5, 9, 6)

    def test_empty_samples_ignored(self):
        detector = DelayChangeDetector()
        assert detector.observe(0, ("A", "B"), []) is None
        assert detector.n_links == 0

    def test_states_tracked_per_link(self, rng):
        detector = DelayChangeDetector()
        detector.observe(0, ("A", "B"), _samples(rng, 5.0))
        detector.observe(0, ("C", "D"), _samples(rng, 9.0))
        assert detector.n_links == 2
        assert detector.state_of(("A", "B")) is not None
        assert detector.state_of(("X", "Y")) is None


class TestDetection:
    def _warm(self, detector, link, rng, centre=5.0, bins=6):
        for t in range(bins):
            detector.observe(t, link, _samples(rng, centre))

    def test_stable_link_never_alarms(self, rng):
        detector = DelayChangeDetector()
        link = ("A", "B")
        alarms = []
        for t in range(48):
            alarm = detector.observe(t, link, _samples(rng, 5.0))
            if alarm:
                alarms.append(alarm)
        assert alarms == []

    def test_large_shift_raises_alarm(self, rng):
        detector = DelayChangeDetector()
        link = ("A", "B")
        self._warm(detector, link, rng)
        alarm = detector.observe(10, link, _samples(rng, 15.0))
        assert alarm is not None
        assert alarm.direction == 1
        assert alarm.deviation > 0
        assert alarm.link == link
        assert alarm.median_shift_ms == pytest.approx(10.0, abs=0.5)

    def test_delay_decrease_detected_with_direction(self, rng):
        detector = DelayChangeDetector()
        link = ("A", "B")
        self._warm(detector, link, rng, centre=20.0)
        alarm = detector.observe(10, link, _samples(rng, 10.0))
        assert alarm is not None
        assert alarm.direction == -1
        assert alarm.deviation > 0

    def test_sub_millisecond_shift_not_reported(self, rng):
        """§4.2.3: statistically significant but < 1 ms -> discarded."""
        detector = DelayChangeDetector()
        link = ("A", "B")
        for t in range(12):
            detector.observe(t, link, _samples(rng, 5.0, n=400, spread=0.05))
        alarm = detector.observe(12, link, _samples(rng, 5.6, n=400, spread=0.05))
        assert alarm is None

    def test_min_shift_configurable(self, rng):
        detector = DelayChangeDetector(min_shift_ms=0.0)
        link = ("A", "B")
        for t in range(12):
            detector.observe(t, link, _samples(rng, 5.0, n=400, spread=0.05))
        alarm = detector.observe(12, link, _samples(rng, 5.6, n=400, spread=0.05))
        assert alarm is not None

    def test_noisy_bin_widens_ci_no_alarm(self, rng):
        """A noisier-but-centred bin must not alarm (Fig. 2, June 1st)."""
        detector = DelayChangeDetector()
        link = ("A", "B")
        self._warm(detector, link, rng)
        alarm = detector.observe(10, link, _samples(rng, 5.0, spread=3.0))
        assert alarm is None

    def test_alarm_counts_per_link(self, rng):
        detector = DelayChangeDetector()
        link = ("A", "B")
        self._warm(detector, link, rng)
        detector.observe(10, link, _samples(rng, 15.0))
        assert detector.state_of(link).alarms_raised == 1


class TestWinsorizedUpdates:
    def test_no_post_event_tail_with_winsorize(self, rng):
        """After a large 2-bin event the reference must not stay
        contaminated (the motivation for winsorized updates)."""
        detector = DelayChangeDetector(alpha=0.05, winsorize=True)
        link = ("A", "B")
        for t in range(8):
            detector.observe(t, link, _samples(rng, 5.0, n=200, spread=0.1))
        for t in range(8, 10):  # big event
            alarm = detector.observe(t, link, _samples(rng, 65.0, n=200, spread=0.1))
            assert alarm is not None
        post = []
        for t in range(10, 30):
            alarm = detector.observe(t, link, _samples(rng, 5.0, n=200, spread=0.1))
            if alarm:
                post.append(alarm)
        assert post == []

    def test_paper_literal_update_contaminates(self, rng):
        """Without winsorization the same workload leaves a tail — this is
        the ablation the DESIGN.md documents."""
        detector = DelayChangeDetector(alpha=0.05, winsorize=False)
        link = ("A", "B")
        for t in range(8):
            detector.observe(t, link, _samples(rng, 5.0, n=200, spread=0.1))
        for t in range(8, 10):
            detector.observe(t, link, _samples(rng, 65.0, n=200, spread=0.1))
        post = []
        for t in range(10, 30):
            alarm = detector.observe(t, link, _samples(rng, 5.0, n=200, spread=0.1))
            if alarm:
                post.append(alarm)
        assert len(post) > 0

    def test_winsorize_tracks_legitimate_drift(self, rng):
        """A persistent level change must still be absorbed eventually:
        winsorization slows adaptation but must not freeze it."""
        detector = DelayChangeDetector(alpha=0.3, winsorize=True)
        link = ("A", "B")
        for t in range(6):
            detector.observe(t, link, _samples(rng, 5.0, n=100, spread=0.2))
        before = detector.reference_of(link).median
        for t in range(6, 120):
            detector.observe(t, link, _samples(rng, 9.0, n=100, spread=0.2))
        after = detector.reference_of(link).median
        assert after > before + 1.0


class TestValidation:
    def test_rejects_negative_min_shift(self):
        with pytest.raises(ValueError):
            DelayChangeDetector(min_shift_ms=-1.0)
