"""Robust statistics substrate for the anomaly-detection methods.

Every statistical primitive the paper relies on lives here:

* Wilson-score confidence intervals for the median (Eq. 5, §4.2.2),
* exponential smoothing of references (Eq. 7 and 8, §4.2.4 and §5.1),
* normalized Shannon entropy for probe diversity (§4.3),
* Pearson product-moment correlation for forwarding patterns (§5.2.1),
* sliding median / median-absolute-deviation for the magnitude metric
  (Eq. 10, §6),
* empirical CDF/CCDF helpers for the Figure 5 distributions, and
* Q-Q analysis against the normal distribution (Figure 3).
"""

from repro.stats.correlation import (
    align_patterns,
    pearson_correlation,
    pearson_correlation_batch,
    pearson_correlation_pooled,
)
from repro.stats.distributions import (
    eccdf,
    ecdf,
    fraction_above,
    fraction_below,
    quantile_of_fraction,
    tail_weight,
)
from repro.stats.entropy import entropy_after_discard, normalized_entropy
from repro.stats.qq import (
    normal_qq,
    normality_verdict,
    qq_linearity,
    qq_max_deviation,
)
from repro.stats.robust import (
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
from repro.stats.smoothing import (
    DEFAULT_ALPHA,
    ExponentialSmoother,
    VectorSmoother,
    exponential_smoothing,
)
from repro.stats.wilson import (
    DEFAULT_Z,
    WilsonInterval,
    median_confidence_interval,
    median_confidence_interval_arrays,
    median_confidence_interval_batch,
    wilson_score_bounds,
)

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_Z",
    "MAD_SCALE",
    "ExponentialSmoother",
    "VectorSmoother",
    "WilsonInterval",
    "align_patterns",
    "eccdf",
    "ecdf",
    "entropy_after_discard",
    "exponential_smoothing",
    "fraction_above",
    "fraction_below",
    "mad",
    "magnitude_score",
    "median",
    "median_absolute_deviation",
    "median_confidence_interval",
    "median_confidence_interval_arrays",
    "median_confidence_interval_batch",
    "normal_qq",
    "normality_verdict",
    "normalized_entropy",
    "outlier_count",
    "pearson_correlation",
    "pearson_correlation_batch",
    "pearson_correlation_pooled",
    "qq_linearity",
    "qq_max_deviation",
    "quantile_of_fraction",
    "sliding_magnitude",
    "sliding_magnitude_rows",
    "sliding_median_mad",
    "tail_weight",
    "trimmed_mean",
    "weekly_window_bins",
    "wilson_score_bounds",
]
