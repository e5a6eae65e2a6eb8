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

from repro._lazy import lazy_exports

_EXPORTS = {
    "DEFAULT_ALPHA": "repro.stats.smoothing",
    "DEFAULT_Z": "repro.stats.wilson",
    "MAD_SCALE": "repro.stats.robust",
    "ExponentialSmoother": "repro.stats.smoothing",
    "VectorSmoother": "repro.stats.smoothing",
    "WilsonInterval": "repro.stats.wilson",
    "align_patterns": "repro.stats.correlation",
    "eccdf": "repro.stats.distributions",
    "ecdf": "repro.stats.distributions",
    "entropy_after_discard": "repro.stats.entropy",
    "exponential_smoothing": "repro.stats.smoothing",
    "fraction_above": "repro.stats.distributions",
    "fraction_below": "repro.stats.distributions",
    "mad": "repro.stats.robust",
    "magnitude_score": "repro.stats.robust",
    "median": "repro.stats.robust",
    "median_absolute_deviation": "repro.stats.robust",
    "median_confidence_interval": "repro.stats.wilson",
    "median_confidence_interval_arrays": "repro.stats.wilson",
    "normal_qq": "repro.stats.qq",
    "normality_verdict": "repro.stats.qq",
    "normalized_entropy": "repro.stats.entropy",
    "outlier_count": "repro.stats.robust",
    "pearson_correlation": "repro.stats.correlation",
    "pearson_correlation_pooled": "repro.stats.correlation",
    "qq_linearity": "repro.stats.qq",
    "qq_max_deviation": "repro.stats.qq",
    "quantile_of_fraction": "repro.stats.distributions",
    "sliding_magnitude": "repro.stats.robust",
    "sliding_magnitude_rows": "repro.stats.robust",
    "sliding_median_mad": "repro.stats.robust",
    "tail_weight": "repro.stats.distributions",
    "trimmed_mean": "repro.stats.robust",
    "weekly_window_bins": "repro.stats.robust",
    "wilson_score_bounds": "repro.stats.wilson",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
