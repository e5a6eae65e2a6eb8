"""Q-Q analysis against the normal distribution (paper Figure 3).

Figure 3 validates the median-CLT variant: hourly *median* differential
RTTs line up with normal theoretical quantiles (Fig. 3a) while *means* are
wrecked by outliers (Fig. 3b).  :func:`normal_qq` produces the plot series
and :func:`qq_linearity` the goodness-of-fit summary (correlation of the
Q-Q points, a standard normality statistic a.k.a. the probability-plot
correlation coefficient).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def normal_qq(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return (theoretical, observed) standardized quantile pairs.

    Observed values are standardized (x - mean)/std so that a perfectly
    normal sample falls on the y = x diagonal, as drawn in Figure 3.
    """
    array = np.asarray(values, dtype=float)
    if array.size < 3:
        raise ValueError("Q-Q analysis needs at least 3 samples")
    std = array.std(ddof=1)
    if std == 0:
        raise ValueError("Q-Q analysis of a constant sample")
    standardized = np.sort((array - array.mean()) / std)
    # Filliben's estimate for plotting positions.
    n = array.size
    positions = (np.arange(1, n + 1) - 0.375) / (n + 0.25)
    # Imported here, not at module level: scipy.stats is most of what
    # ``import repro`` used to cost, and only this function needs it.
    from scipy import stats as sps

    theoretical = sps.norm.ppf(positions)
    return theoretical, standardized


def qq_linearity(values: Sequence[float]) -> float:
    """Probability-plot correlation coefficient (1.0 = perfectly normal)."""
    theoretical, observed = normal_qq(values)
    return float(np.corrcoef(theoretical, observed)[0, 1])


def qq_max_deviation(values: Sequence[float]) -> float:
    """Largest |observed - theoretical| distance from the diagonal."""
    theoretical, observed = normal_qq(values)
    return float(np.max(np.abs(observed - theoretical)))


def normality_verdict(values: Sequence[float], threshold: float = 0.98) -> bool:
    """True when the sample passes the Q-Q linearity test.

    0.98 is a conventional cut-off for the probability-plot correlation at
    the sample sizes we use (hundreds of hourly bins).
    """
    return qq_linearity(values) >= threshold
