"""Appendix B — detection sensitivity bounds (Eq. 11).

Paper: with builtin measurements (r = 2/h), n = 3 probes and T = 1 h the
shortest detectable event is 33 minutes; anchoring measurements (r = 4/h)
at their minimum usable bin detect events of ~9 minutes.

This benchmark tabulates the closed form and verifies it empirically:
an injected event shorter than the bound goes undetected while one a bit
longer than the bound is caught (median flip threshold).
"""

import numpy as np
import pytest

from repro.atlas import ANCHORING, BUILTIN
from repro.core import sensitivity_table
from repro.reference import DelayChangeDetector
from repro.reporting import format_table


def test_appendix_b_closed_form(benchmark):
    table = benchmark.pedantic(sensitivity_table, rounds=1, iterations=1)

    rows = [
        [
            point.spec_name,
            f"{point.rate_per_hour:.0f}/h",
            point.n_probes,
            f"{point.bin_s // 60} min",
            f"{point.shortest_event_min:.1f} min",
        ]
        for point in table
    ]
    print("\n=== Appendix B: shortest detectable event (Eq. 11) ===")
    print(
        format_table(
            ["measurement", "rate", "probes", "bin", "shortest event"], rows
        )
    )

    builtin_headline = [
        p
        for p in table
        if p.spec_name == "builtin" and p.n_probes == 3 and p.bin_s == 3600
    ]
    anchoring_headline = [
        p
        for p in table
        if p.spec_name == "anchoring" and p.n_probes == 3 and p.bin_s == 900
    ]
    assert builtin_headline[0].shortest_event_min == pytest.approx(
        33.33, abs=0.1
    )
    assert anchoring_headline[0].shortest_event_min == pytest.approx(
        9.17, abs=0.2
    )


def _run_event_experiment(event_minutes: int, rng_seed: int = 0) -> bool:
    """Empirical check of Eq. 11 for builtin/n=3/T=1h.

    Three probes, r = 2/h: each bin holds 18 differential samples.  An
    event of the given duration shifts the samples measured inside it by
    +30 ms.  Returns True when the detector raises an alarm.
    """
    rng = np.random.default_rng(rng_seed)
    detector = DelayChangeDetector(alpha=0.1)
    link = ("X", "Y")
    launches_per_hour = [0, 10, 20, 30, 40, 50]  # 3 probes x 2/h, staggered
    for hour in range(12):
        samples = []
        for minute in launches_per_hour:
            in_event = hour == 11 and minute < event_minutes
            base = 35.0 if in_event else 5.0
            samples.extend(rng.normal(base, 0.2, size=3))
        detector.observe(hour, link, samples)
    # Re-run the final (event) bin as the observation under test.
    samples = []
    for minute in launches_per_hour:
        in_event = minute < event_minutes
        base = 35.0 if in_event else 5.0
        samples.extend(rng.normal(base, 0.2, size=3))
    return detector.observe(12, link, samples) is not None


def test_appendix_b_empirical_threshold(benchmark):
    """Events comfortably above the 33-min bound alarm; those far below
    (median untouched) do not."""
    outcomes = benchmark.pedantic(
        lambda: {
            minutes: _run_event_experiment(minutes)
            for minutes in (10, 20, 40, 50)
        },
        rounds=1,
        iterations=1,
    )
    print("\n=== Appendix B: empirical detectability (builtin, n=3, T=1h) ===")
    print(
        format_table(
            ["event duration", "paper bound 33 min", "detected"],
            [
                [f"{minutes} min", "below" if minutes < 33 else "above",
                 str(detected)]
                for minutes, detected in sorted(outcomes.items())
            ],
        )
    )
    assert not outcomes[10], "10-minute event must stay below the median"
    assert not outcomes[20], "20-minute event must stay below the median"
    assert outcomes[40], "40-minute event must flip the median"
    assert outcomes[50], "50-minute event must flip the median"
