"""Delay-change detection equations (paper §4.2.3-§4.2.4), batch form.

A link's observed median interval that stops overlapping its smoothed
reference interval is a significant shift [Schenker & Gentleman 2001];
shifts below 1 ms are discarded, and Eq. 6's deviation d(Δ) scores the
rest.  The production arena (:class:`~repro.core.arena.DelayArena`) and
the scalar reference
(:class:`~repro.reference.pipeline.DelayChangeDetector`) share this
module's constants and elementwise Eq. 6 and winsorizing kernels.
"""

from __future__ import annotations

import numpy as np

#: Median shifts below this many milliseconds are not reported (§4.2.3).
MIN_SHIFT_MS = 1.0

#: Guard against zero-width reference intervals in Eq. 6's denominator.
_EPSILON_MS = 1e-6


def deviation_score_batch(
    obs_median: np.ndarray,
    obs_lower: np.ndarray,
    obs_upper: np.ndarray,
    ref_median: np.ndarray,
    ref_lower: np.ndarray,
    ref_upper: np.ndarray,
) -> np.ndarray:
    """Eq. 6 over aligned interval arrays — the arena's deviation kernel.

    Element ``i`` equals the reference's scalar
    :func:`~repro.reference.pipeline.deviation_score` of the i-th
    observed interval against the i-th reference interval, bit for
    bit: the same
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

    The batch form of the reference's ``_winsorized``: element ``i`` is
    the offset that moves the i-th observed median onto the reference
    bound it violated (negative for increases, positive for decreases,
    0 when the median sits inside the reference interval).  Adding the
    offset to an interval's median/lower/upper reproduces
    ``_winsorized(...).shifted`` exactly — same float64 subtraction,
    same additions.
    """
    return np.where(
        obs_median > ref_upper,
        ref_upper - obs_median,
        np.where(obs_median < ref_lower, ref_lower - obs_median, 0.0),
    )
