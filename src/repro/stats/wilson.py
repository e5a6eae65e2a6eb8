"""Wilson-score confidence intervals for the median (paper Eq. 5).

The paper characterises each link's hourly differential-RTT distribution by
its median plus a 95 % confidence interval.  Because RTT distributions are
skewed and outlier-ridden, the interval is *distribution free*: the Wilson
score [Wilson 1927] approximates the binomial order-statistic calculation,
yielding two ranks ``l = n·w_l`` and ``u = n·w_u``; the interval is then the
pair of order statistics ``(Δ_(l), Δ_(u))``.  Newcombe [1998] reports the
Wilson score performs well even for small n, which matters for links seen
by few probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: z value for a 95 % confidence level, as used throughout the paper.
DEFAULT_Z = 1.96

#: probability of success for the median (50th percentile).
MEDIAN_P = 0.5


@dataclass(frozen=True)
class WilsonInterval:
    """Median and its Wilson-score confidence interval for one sample set.

    Attributes mirror the paper's notation: ``median`` is Δ(m), ``lower``
    and ``upper`` are Δ(l) and Δ(u), and ``n`` the number of differential
    RTT samples the statistics were computed from.
    """

    median: float
    lower: float
    upper: float
    n: int

    @property
    def width(self) -> float:
        """Width of the confidence interval (uncertainty of the median)."""
        return self.upper - self.lower

    def overlaps(self, other: "WilsonInterval") -> bool:
        """True when the two confidence intervals intersect.

        Following Schenker & Gentleman [2001], non-overlapping intervals
        indicate a statistically significant difference of medians.
        """
        return self.lower <= other.upper and other.lower <= self.upper

    def shifted(self, offset: float) -> "WilsonInterval":
        """Return a copy displaced by *offset* (used in tests/simulation)."""
        return WilsonInterval(
            self.median + offset, self.lower + offset, self.upper + offset, self.n
        )


def wilson_score_bounds(
    n: int, p: float = MEDIAN_P, z: float = DEFAULT_Z
) -> Tuple[float, float]:
    """Return the Wilson score ``(w_l, w_u)`` fractions in [0, 1] (Eq. 5).

    ``n`` is the sample count, ``p`` the quantile probed (0.5 for the
    median) and ``z`` the normal critical value (1.96 for 95 %).

    >>> wl, wu = wilson_score_bounds(100)
    >>> 0.40 < wl < 0.5 < wu < 0.60
    True
    """
    if n <= 0:
        raise ValueError("Wilson score requires at least one sample")
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability of success must be in (0,1): {p}")
    if z <= 0:
        raise ValueError(f"z must be positive: {z}")
    z2 = z * z
    factor = 1.0 / (1.0 + z2 / n)
    centre = p + z2 / (2.0 * n)
    spread = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    lower = factor * (centre - spread)
    upper = factor * (centre + spread)
    # Numerical guard: the score is a probability.
    return max(0.0, lower), min(1.0, upper)


def median_confidence_interval(
    samples: Sequence[float], z: float = DEFAULT_Z
) -> WilsonInterval:
    """Median + Wilson-score CI of *samples* via order statistics (§4.2.2).

    The bounds are the order statistics at ranks ``l = n·w_l`` and
    ``u = n·w_u``.  Ranks are clamped into the valid index range so that
    tiny sample sets still produce a (wide) interval instead of failing.

    >>> ci = median_confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
    >>> ci.median
    3.0
    >>> ci.lower <= ci.median <= ci.upper
    True
    """
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValueError("cannot compute a confidence interval of no samples")
    values = np.sort(values)
    n = values.size
    w_lower, w_upper = wilson_score_bounds(n, MEDIAN_P, z)
    # Ranks are 1-based in the statistics literature; convert to 0-based
    # indexes and clamp.  floor for the lower rank, ceil for the upper one
    # gives the conservative (wider) interval.
    lower_index = min(n - 1, max(0, int(math.floor(n * w_lower)) - 1))
    upper_index = min(n - 1, max(0, int(math.ceil(n * w_upper)) - 1))
    return WilsonInterval(
        median=float(np.median(values)),
        lower=float(values[lower_index]),
        upper=float(values[upper_index]),
        n=n,
    )


def median_confidence_interval_arrays(
    sample_sets: Sequence[Sequence[float]], z: float = DEFAULT_Z
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`median_confidence_interval` over many sample sets.

    The per-bin hot path of the sharded engine: instead of one
    sort/median/score call per link, all links of a bin are padded into
    2-D arrays (padding value ``+inf`` so it sorts past every real
    sample) and characterised with one sort per size class plus
    vectorized Wilson scores.  Results are **bit-identical** to calling
    the scalar function on each sample set — the arithmetic is performed
    in the same order on the same float64 values — which the engine's
    serial-vs-sharded equivalence guarantee relies on.  They come back
    as four aligned float64/int64 arrays ``(medians, lowers, uppers,
    ns)``, the form the detector-state arena (:mod:`repro.core.arena`)
    consumes: the per-bin kernels stay in NumPy end to end and interval
    objects are materialised only for the anomalous subset.

    >>> medians, lowers, uppers, ns = median_confidence_interval_arrays(
    ...     [[1.0, 2.0, 3.0]])
    >>> float(medians[0]), int(ns[0])
    (2.0, 3)
    """
    if z <= 0:
        raise ValueError(f"z must be positive: {z}")
    empty = np.empty(0)
    if not sample_sets:
        return empty, empty, empty, np.empty(0, dtype=np.int64)
    arrays = [np.asarray(values, dtype=float) for values in sample_sets]
    for values in arrays:
        if values.size == 0:
            raise ValueError(
                "cannot compute a confidence interval of no samples"
            )
    # Bucket by power-of-two size class before padding: one skewed set
    # must not inflate the whole matrix to n_sets x max_n (a single
    # 50k-sample link among thousands of 10-sample links would
    # otherwise allocate and sort mostly padding).  Within a class the
    # padded waste is bounded by 2x, and the per-set arithmetic is
    # unchanged, so results stay bit-identical.
    buckets: dict = {}
    for index, values in enumerate(arrays):
        buckets.setdefault(values.size.bit_length(), []).append(index)
    medians = np.empty(len(arrays))
    lowers = np.empty(len(arrays))
    uppers = np.empty(len(arrays))
    ns = np.empty(len(arrays), dtype=np.int64)
    for indices in buckets.values():
        meds, lows, ups, counts = _batch_uniform(
            [arrays[i] for i in indices], z
        )
        medians[indices] = meds
        lowers[indices] = lows
        uppers[indices] = ups
        ns[indices] = counts
    return medians, lowers, uppers, ns


def _batch_uniform(
    arrays: List[np.ndarray], z: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch-characterise sample sets of similar length (see above)."""
    lengths = np.array([values.size for values in arrays], dtype=np.int64)
    width = int(lengths.max())
    padded = np.full((len(arrays), width), np.inf)
    for row, values in enumerate(arrays):
        padded[row, : values.size] = values
    padded.sort(axis=1)

    # Vectorized Eq. 5, operation-for-operation the same arithmetic as
    # wilson_score_bounds (bit-identity matters, see docstring).
    n = lengths.astype(float)
    z2 = z * z
    factor = 1.0 / (1.0 + z2 / n)
    centre = MEDIAN_P + z2 / (2.0 * n)
    spread = z * np.sqrt(
        MEDIAN_P * (1.0 - MEDIAN_P) / n + z2 / (4.0 * n * n)
    )
    w_lower = np.maximum(0.0, factor * (centre - spread))
    w_upper = np.minimum(1.0, factor * (centre + spread))
    lower_index = np.minimum(
        lengths - 1,
        np.maximum(0, np.floor(n * w_lower).astype(np.int64) - 1),
    )
    upper_index = np.minimum(
        lengths - 1,
        np.maximum(0, np.ceil(n * w_upper).astype(np.int64) - 1),
    )

    rows = np.arange(len(arrays))
    mid = lengths // 2
    # Median: middle element for odd n, mean of the two middles for even
    # n — (a + b) / 2 exactly as np.median computes it.  For n == 1 the
    # even branch reads a padding cell; np.where discards it.
    evens = (padded[rows, np.maximum(mid - 1, 0)] + padded[rows, mid]) / 2.0
    medians = np.where(lengths % 2 == 1, padded[rows, mid], evens)
    lowers = padded[rows, lower_index]
    uppers = padded[rows, upper_index]
    return medians, lowers, uppers, lengths
