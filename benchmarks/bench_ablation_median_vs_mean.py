"""Ablation — median-CLT vs mean-CLT detection (paper §4.2.2).

The paper replaces the arithmetic mean by the median in the Central
Limit Theorem because outlier-ridden RTT samples wreck mean-based
references.  This ablation quantifies the trade-off on a controlled
workload: one link with stationary delay plus heavy-tailed outliers and
a single genuine 2-bin event.

A mean-based detector (same CI-overlap logic, using mean ± 1.96·SEM)
raises spurious alarms on outlier bursts and/or misses the real event;
the median detector flags exactly the event bins.
"""

import numpy as np

from repro.reference import DelayChangeDetector, ExponentialSmoother
from repro.reporting import format_table


def _make_bins(rng, n_bins=72, event_bins=(50, 51), n=300):
    """Hourly sample sets: Gamma noise + 1.5 % exponential outliers, and a
    +12 ms shift during the event bins."""
    bins = []
    for index in range(n_bins):
        base = 5.0 + (12.0 if index in event_bins else 0.0)
        samples = base + rng.gamma(2.0, 0.15, size=n)
        outliers = rng.random(n) < 0.015
        samples[outliers] += rng.exponential(40.0, size=outliers.sum())
        bins.append(list(samples))
    return bins


class MeanDetector:
    """Mean ± 1.96·SEM analogue of the paper's detector (the ablated
    variant): same smoothing and overlap logic, parametric intervals."""

    def __init__(self, alpha=0.1):
        self.centre = ExponentialSmoother(alpha)
        self.half_width = ExponentialSmoother(alpha)

    def observe(self, samples):
        array = np.asarray(samples)
        mean = float(array.mean())
        half = 1.96 * float(array.std(ddof=1)) / np.sqrt(array.size)
        alarmed = False
        if self.centre.ready:
            ref_centre = self.centre.value
            ref_half = self.half_width.value
            gap = abs(mean - ref_centre) - (half + ref_half)
            alarmed = gap > 0 and abs(mean - ref_centre) >= 1.0
        self.centre.update(mean)
        self.half_width.update(half)
        return alarmed


def _run_ablation(seed=7):
    rng = np.random.default_rng(seed)
    bins = _make_bins(rng)
    event = {50, 51}

    median_detector = DelayChangeDetector(alpha=0.1)
    mean_detector = MeanDetector(alpha=0.1)
    median_alarms, mean_alarms = [], []
    for index, samples in enumerate(bins):
        if median_detector.observe(index, ("A", "B"), samples) is not None:
            median_alarms.append(index)
        if mean_detector.observe(samples):
            mean_alarms.append(index)
    return {
        "median_hits": sorted(set(median_alarms) & event),
        "median_false": sorted(set(median_alarms) - event),
        "mean_hits": sorted(set(mean_alarms) & event),
        "mean_false": sorted(set(mean_alarms) - event),
    }


def test_ablation_median_vs_mean(benchmark):
    results = benchmark.pedantic(
        lambda: [_run_ablation(seed) for seed in range(10)],
        rounds=1,
        iterations=1,
    )
    median_hits = sum(len(r["median_hits"]) for r in results)
    median_false = sum(len(r["median_false"]) for r in results)
    mean_hits = sum(len(r["mean_hits"]) for r in results)
    mean_false = sum(len(r["mean_false"]) for r in results)

    print("\n=== Ablation: median-CLT vs mean-CLT (10 trials, 2 event bins) ===")
    print(
        format_table(
            ["detector", "event bins hit (of 20)", "false alarms"],
            [
                ["median (paper)", median_hits, median_false],
                ["mean (ablated)", mean_hits, mean_false],
            ],
        )
    )

    # The median detector is both sensitive and quiet.
    assert median_hits == 20
    assert median_false == 0
    # The mean detector pays for outliers: false alarms, or (with wide
    # SEM intervals) missed detections.
    assert mean_false > 0 or mean_hits < 20
