"""Delay-change detection (paper §4.2.2-§4.2.4).

Per link and per time bin the detector:

1. characterises the differential-RTT distribution by its median and
   Wilson-score 95 % confidence interval (median CLT variant),
2. compares the observed interval against the link's *normal reference*
   interval — non-overlap signals a statistically significant median
   shift [Schenker & Gentleman 2001]; shifts below 1 ms are discarded as
   irrelevant to disruption analysis,
3. scores the shift with Eq. 6's deviation d(Δ) — the gap between the two
   intervals relative to the reference's own uncertainty, and
4. updates the reference (median and both bounds) by exponential
   smoothing with the three-bin median warm-up of §4.2.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.alarms import DelayAlarm, Link
from repro.stats.smoothing import DEFAULT_ALPHA, ExponentialSmoother
from repro.stats.wilson import (
    DEFAULT_Z,
    WilsonInterval,
    median_confidence_interval,
)

#: Median shifts below this many milliseconds are not reported (§4.2.3).
MIN_SHIFT_MS = 1.0

#: Guard against zero-width reference intervals in Eq. 6's denominator.
_EPSILON_MS = 1e-6


@dataclass
class LinkDelayState:
    """Smoothed normal reference of one link (median + CI bounds)."""

    median: ExponentialSmoother
    lower: ExponentialSmoother
    upper: ExponentialSmoother
    bins_seen: int = 0
    alarms_raised: int = 0

    @classmethod
    def create(cls, alpha: float, seed_bins: int = 3) -> "LinkDelayState":
        return cls(
            median=ExponentialSmoother(alpha, seed_bins),
            lower=ExponentialSmoother(alpha, seed_bins),
            upper=ExponentialSmoother(alpha, seed_bins),
        )

    @property
    def reference(self) -> Optional[WilsonInterval]:
        """Current normal reference, or None while warming up."""
        if not self.median.ready:
            return None
        return WilsonInterval(
            median=self.median.value,
            lower=self.lower.value,
            upper=self.upper.value,
            n=self.bins_seen,
        )

    def update(self, observed: WilsonInterval) -> None:
        self.median.update(observed.median)
        self.lower.update(observed.lower)
        self.upper.update(observed.upper)
        self.bins_seen += 1


def deviation_score(
    observed: WilsonInterval, reference: WilsonInterval
) -> float:
    """Eq. 6: gap between intervals relative to reference uncertainty.

    Returns 0 when the intervals overlap; positive otherwise, for both
    delay increases and decreases (the sign is carried separately).
    """
    if reference.upper < observed.lower:
        denominator = max(reference.upper - reference.median, _EPSILON_MS)
        return (observed.lower - reference.upper) / denominator
    if reference.lower > observed.upper:
        denominator = max(reference.median - reference.lower, _EPSILON_MS)
        return (reference.lower - observed.upper) / denominator
    return 0.0


def deviation_score_batch(
    obs_median: np.ndarray,
    obs_lower: np.ndarray,
    obs_upper: np.ndarray,
    ref_median: np.ndarray,
    ref_lower: np.ndarray,
    ref_upper: np.ndarray,
) -> np.ndarray:
    """Eq. 6 over aligned interval arrays — the arena's deviation kernel.

    Element ``i`` equals ``deviation_score`` of the i-th observed
    interval against the i-th reference interval, bit for bit: the same
    float64 subtractions, ``max(·, ε)`` guards and divisions are applied
    elementwise (``np.maximum``/``np.where`` instead of Python branches),
    so the vectorized detector inherits the scalar detector's exact
    arithmetic.  The divisions are evaluated for every element and the
    irrelevant branch discarded by ``np.where`` — safe because both
    denominators are ≥ ε by construction.
    """
    increase = ref_upper < obs_lower
    decrease = ref_lower > obs_upper
    increase_score = (obs_lower - ref_upper) / np.maximum(
        ref_upper - ref_median, _EPSILON_MS
    )
    decrease_score = (ref_lower - obs_upper) / np.maximum(
        ref_median - ref_lower, _EPSILON_MS
    )
    return np.where(
        increase,
        increase_score,
        np.where(decrease, decrease_score, 0.0),
    )


def winsorize_offsets_batch(
    obs_median: np.ndarray,
    ref_lower: np.ndarray,
    ref_upper: np.ndarray,
) -> np.ndarray:
    """Per-element translation offsets of the winsorized filter update.

    The batch form of :func:`_winsorized`: element ``i`` is the offset
    that moves the i-th observed median onto the reference bound it
    violated (negative for increases, positive for decreases, 0 when the
    median sits inside the reference interval).  Adding the offset to an
    interval's median/lower/upper reproduces ``_winsorized(...).shifted``
    exactly — same float64 subtraction, same additions.
    """
    return np.where(
        obs_median > ref_upper,
        ref_upper - obs_median,
        np.where(obs_median < ref_lower, ref_lower - obs_median, 0.0),
    )


def _winsorized(
    observed: WilsonInterval, reference: WilsonInterval
) -> WilsonInterval:
    """Clamp an anomalous observation to the reference's nearest CI bound.

    The clamped interval keeps the observation's own width but is
    translated so its median sits on the reference bound it violated —
    the standard winsorized (limited-influence) filter update.
    """
    if observed.median > reference.upper:
        offset = reference.upper - observed.median
    elif observed.median < reference.lower:
        offset = reference.lower - observed.median
    else:
        return observed
    return observed.shifted(offset)


class DelayChangeDetector:
    """Stateful per-link delay-change detector.

    Feed it, for every time bin, the differential-RTT samples of each
    link that survived the diversity filter; it returns the alarms for
    that bin and keeps per-link references up to date.
    """

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        z: float = DEFAULT_Z,
        min_shift_ms: float = MIN_SHIFT_MS,
        seed_bins: int = 3,
        winsorize: bool = True,
    ) -> None:
        if min_shift_ms < 0:
            raise ValueError(f"min_shift_ms must be >= 0: {min_shift_ms}")
        self.alpha = alpha
        self.z = z
        self.min_shift_ms = min_shift_ms
        self.seed_bins = seed_bins
        #: With the paper's plain Eq. 7 update, a multi-hour event with a
        #: large shift contaminates the reference by α·shift per bin; with
        #: sub-millimetre confidence intervals this produces a long tail of
        #: small opposite-direction alarms after the event.  Winsorizing the
        #: update — clamping an *anomalous* observation to the reference CI
        #: bound before smoothing — caps per-bin contamination at the CI
        #: width while leaving normal bins untouched.  Enabled by default;
        #: set False for the paper's literal update rule (ablation bench).
        self.winsorize = winsorize
        self._states: Dict[Link, LinkDelayState] = {}

    # -- state inspection -----------------------------------------------------

    @property
    def n_links(self) -> int:
        """How many links have ever been characterised."""
        return len(self._states)

    def state_of(self, link: Link) -> Optional[LinkDelayState]:
        return self._states.get(link)

    def reference_of(self, link: Link) -> Optional[WilsonInterval]:
        state = self._states.get(link)
        return state.reference if state else None

    # -- detection -------------------------------------------------------------

    def observe(
        self,
        timestamp: int,
        link: Link,
        samples: Sequence[float],
        n_probes: int = 0,
        n_asns: int = 0,
    ) -> Optional[DelayAlarm]:
        """Process one link's bin; return an alarm or None.

        The reference is updated *after* the comparison, as in the
        paper's step (5); anomalous bins still enter the reference but a
        small α limits their influence.
        """
        if len(samples) == 0:
            return None
        observed = median_confidence_interval(samples, z=self.z)
        return self.observe_interval(
            timestamp, link, observed, n_probes=n_probes, n_asns=n_asns
        )

    def observe_interval(
        self,
        timestamp: int,
        link: Link,
        observed: WilsonInterval,
        n_probes: int = 0,
        n_asns: int = 0,
    ) -> Optional[DelayAlarm]:
        """Like :meth:`observe`, from a precomputed observed interval.

        The engine characterises all of a bin's links with one
        batched Wilson call and feeds the resulting intervals here; the
        detection and reference-update logic is shared with the sample
        path so both stay equivalent by construction.
        """
        state = self._states.get(link)
        if state is None:
            state = LinkDelayState.create(self.alpha, self.seed_bins)
            self._states[link] = state
        reference = state.reference
        alarm: Optional[DelayAlarm] = None
        anomalous = False
        if reference is not None:
            deviation = deviation_score(observed, reference)
            anomalous = deviation > 0.0
            shift = abs(observed.median - reference.median)
            if anomalous and shift >= self.min_shift_ms:
                direction = 1 if observed.median > reference.median else -1
                alarm = DelayAlarm(
                    timestamp=timestamp,
                    link=link,
                    observed=observed,
                    reference=reference,
                    deviation=deviation,
                    direction=direction,
                    n_probes=n_probes,
                    n_asns=n_asns,
                )
                state.alarms_raised += 1
        update = observed
        if self.winsorize and anomalous and reference is not None:
            update = _winsorized(observed, reference)
        state.update(update)
        return alarm
