"""Robust location/scale estimators: median, MAD, sliding windows.

The event-detection stage (paper §6, Eq. 10) normalises per-AS alarm time
series with a one-week *sliding* median and median absolute deviation:

    mag(X) = (X - median(X)) / (1 + 1.4826 * MAD(X))

The 1.4826 factor makes the MAD a consistent estimator of the standard
deviation under normality [Wilcox 2010]; the ``1 +`` guards against zero
MAD for quiet ASes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

#: Consistency constant relating MAD to the standard deviation.
MAD_SCALE = 1.4826


def median(values: Sequence[float]) -> float:
    """Median of *values* (raises on empty input).

    >>> median([5.0, 1.0, 3.0])
    3.0
    """
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("median of empty sequence")
    return float(np.median(array))


def median_absolute_deviation(values: Sequence[float]) -> float:
    """Unscaled median absolute deviation around the median.

    >>> median_absolute_deviation([1.0, 1.0, 2.0, 2.0, 4.0])
    1.0
    """
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("MAD of empty sequence")
    return float(np.median(np.abs(array - np.median(array))))


def mad(values: Sequence[float]) -> float:
    """Alias for :func:`median_absolute_deviation`."""
    return median_absolute_deviation(values)


def magnitude_score(value: float, window: Sequence[float]) -> float:
    """Paper Eq. 10 applied to one point against its history *window*."""
    array = np.asarray(window, dtype=float)
    if array.size == 0:
        return 0.0
    centre = float(np.median(array))
    scale = 1.0 + MAD_SCALE * float(np.median(np.abs(array - centre)))
    return (value - centre) / scale


def sliding_median_mad(
    values: Sequence[float],
    window: int,
    min_periods: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Trailing-window median and MAD for each position of *values*.

    Position ``t`` summarises ``values[max(0, t-window+1) : t+1]`` —
    a trailing window, which is what an online detector can actually use.
    Positions with fewer than *min_periods* samples yield ``nan``.

    Returns two arrays of the same length as *values*.
    """
    if window <= 0:
        raise ValueError(f"window must be positive: {window}")
    if min_periods <= 0:
        raise ValueError(f"min_periods must be positive: {min_periods}")
    array = np.asarray(values, dtype=float)
    n = array.size
    medians = np.full(n, np.nan)
    mads = np.full(n, np.nan)
    for t in range(n):
        start = max(0, t - window + 1)
        chunk = array[start : t + 1]
        if chunk.size < min_periods:
            continue
        centre = np.median(chunk)
        medians[t] = centre
        mads[t] = np.median(np.abs(chunk - centre))
    return medians, mads


def sliding_magnitude(
    values: Sequence[float],
    window: int,
    min_periods: int = 1,
    scale: float = MAD_SCALE,
) -> np.ndarray:
    """Eq. 10 magnitude for every point of a time series.

    Each point is compared against the trailing *window* (which includes
    the point itself, as in the authors' implementation: the sliding
    statistics are computed over the series and applied pointwise).
    """
    array = np.asarray(values, dtype=float)
    medians, mads = sliding_median_mad(array, window, min_periods)
    with np.errstate(invalid="ignore"):
        magnitudes = (array - medians) / (1.0 + scale * mads)
    return np.where(np.isnan(medians), 0.0, magnitudes)


def sliding_magnitude_rows(
    values: np.ndarray, window: int, first: int = 0
) -> np.ndarray:
    """:func:`sliding_magnitude` of every series along the last axis.

    The same trailing-window median, MAD, Eq. 10 and NaN→0 rule, with
    each position reduced across all series at once instead of a Python
    loop per series — bit-identical to the 1-D reference, which stays
    the oracle.  Only positions ``first:`` are scored and returned
    (their windows reach back before *first*).
    """
    if window <= 0:
        raise ValueError(f"window must be positive: {window}")
    array = np.asarray(values, dtype=float)
    n = array.shape[-1]
    magnitudes = np.empty(array.shape[:-1] + (max(0, n - first),))
    for t in range(first, n):
        chunk = array[..., max(0, t - window + 1) : t + 1]
        centre = np.median(chunk, axis=-1)
        spread = np.median(np.abs(chunk - centre[..., None]), axis=-1)
        with np.errstate(invalid="ignore"):
            scored = (array[..., t] - centre) / (1.0 + MAD_SCALE * spread)
        magnitudes[..., t - first] = np.where(np.isnan(centre), 0.0, scored)
    return magnitudes


def trimmed_mean(values: Sequence[float], proportion: float = 0.1) -> float:
    """Symmetrically trimmed mean; robust alternative used in diagnostics.

    >>> trimmed_mean([1.0, 2.0, 3.0, 100.0], proportion=0.25)
    2.5
    """
    if not 0.0 <= proportion < 0.5:
        raise ValueError(f"trim proportion must be in [0, 0.5): {proportion}")
    array = np.sort(np.asarray(values, dtype=float))
    if array.size == 0:
        raise ValueError("trimmed mean of empty sequence")
    cut = int(array.size * proportion)
    trimmed = array[cut : array.size - cut] if cut else array
    return float(trimmed.mean())


def outlier_count(values: Sequence[float], sigmas: float = 3.0) -> int:
    """Count values above ``mean + sigmas * std`` (paper §4.2.2 used µ+3σ).

    The paper found 125 such outliers in two weeks of raw differential
    RTTs for one Cogent link, which is what ruins the mean-based CLT.
    """
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return 0
    threshold = array.mean() + sigmas * array.std()
    return int(np.count_nonzero(array > threshold))


def weekly_window_bins(bin_seconds: int, days: int = 7) -> int:
    """Number of time bins in a *days*-long sliding window.

    >>> weekly_window_bins(3600)
    168
    """
    if bin_seconds <= 0:
        raise ValueError(f"bin size must be positive: {bin_seconds}")
    return max(1, (days * 24 * 3600) // bin_seconds)
