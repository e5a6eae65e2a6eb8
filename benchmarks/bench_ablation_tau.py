"""Ablation — the forwarding-anomaly threshold τ (paper §5.2.1).

The paper sets τ = −0.25 at the knee of the empirical ρ distribution and
notes that lower values give conservative results.  This ablation sweeps
τ over reroutes of increasing severity against a reference pattern of
[A:10, B:100, Z:2]:

* **moderate** — 75 % of B's traffic moves to a new hop (ρ ≈ −0.10),
* **major**    — 90 % moves (ρ ≈ −0.32),
* **total loss** — everything into the unresponsive bucket (ρ ≈ −0.56).

A permissive τ (−0.05) flags all three but would fire on any weak
anti-correlation; the paper's −0.25 catches major changes and total
loss; a strict −0.95 catches nothing (even total loss only reaches
ρ ≈ −0.6 against this reference shape — the reason "higher values are
best avoided" cuts both ways).
"""

import numpy as np

from repro.core import UNRESPONSIVE
from repro.reference import ForwardingAnomalyDetector
from repro.reporting import format_table

EVENTS = {
    "moderate": {"A": 10.0, "B": 25.0, "C": 75.0},
    "major": {"A": 10.0, "B": 10.0, "C": 90.0},
    "total-loss": {UNRESPONSIVE: 112.0},
}


def _run(tau, seed=5):
    rng = np.random.default_rng(seed)
    detector = ForwardingAnomalyDetector(tau=tau, alpha=0.02)
    key = ("R", "dst")
    # Benign history: stable split with multiplicative noise.
    for index in range(20):
        scale = rng.uniform(0.85, 1.15)
        pattern = {
            "A": 10.0 * scale * rng.uniform(0.8, 1.2),
            "B": 100.0 * scale,
            UNRESPONSIVE: 2.0 * rng.uniform(0.0, 2.0),
        }
        alarm = detector.observe(index, key, pattern)
        assert alarm is None, f"benign bin alarmed at tau={tau}"
    outcomes = {}
    rhos = {}
    for offset, (name, pattern) in enumerate(EVENTS.items()):
        alarm = detector.observe(20 + offset, key, dict(pattern))
        outcomes[name] = alarm is not None
        rhos[name] = alarm.correlation if alarm else None
    return outcomes, rhos


def test_ablation_tau_threshold(benchmark):
    taus = (-0.05, -0.25, -0.6, -0.95)
    results = benchmark.pedantic(
        lambda: {tau: _run(tau) for tau in taus},
        rounds=1,
        iterations=1,
    )

    print("\n=== Ablation: forwarding threshold τ ===")
    rows = []
    for tau in taus:
        outcomes, rhos = results[tau]
        rows.append(
            [
                f"{tau:+.2f}",
                *(
                    f"hit (ρ={rhos[name]:+.2f})" if outcomes[name] else "miss"
                    for name in EVENTS
                ),
            ]
        )
    print(
        format_table(
            ["tau", "moderate reroute", "major reroute", "total loss"], rows
        )
    )

    # No τ fires on the benign history (asserted inside _run).
    permissive, _ = results[-0.05]
    paper, _ = results[-0.25]
    strict, _ = results[-0.95]
    # The paper's τ catches the major reroute and total loss.
    assert paper["major"] and paper["total-loss"]
    # The moderate (sub-majority) reroute needs the permissive τ.
    assert permissive["moderate"] and not paper["moderate"]
    # A near -1 threshold is uselessly conservative: even total loss
    # only anti-correlates to ρ ≈ -0.56 against this reference.
    assert not any(strict.values())
