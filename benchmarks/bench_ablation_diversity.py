"""Ablation — the probe-diversity filter (paper §4.3).

Differential RTTs from probes sharing one return path confound the
monitored link with the return path.  This ablation builds the failure
mode §4.3 guards against: a link observed only from **two** origin ASes
whose probes share return paths.  When the return path of one AS shifts,
an unfiltered detector misattributes the change to the link; the paper's
criterion 1 (≥ 3 ASes) refuses to analyze the link at all.

A second workload exercises criterion 2: the paper's "90 probes in one
of 5 ASes" example must be *rebalanced* (probes discarded from the
dominant AS until H > 0.5) rather than dropped, and the discard count is
reported.  Note the honest limitation — with H > 0.5 reachable while one
AS still holds most probes, rebalancing reduces but does not always
eliminate dominance; the hard guarantee comes from criterion 1.
"""

import numpy as np

from repro.core import DiversityFilter
from repro.reference.diffrtt import LinkObservations
from repro.reference import DelayChangeDetector
from repro.reporting import format_table
from repro.stats import normalized_entropy


def _two_as_bin(rng, return_shift=0.0):
    """Link (X, Y) seen from 2 ASes; each AS's probes share one return
    path; AS65001's return path may carry an extra delay.

    The dominant AS holds 3/4 of the probes so the pooled median sits
    firmly inside its sample group — the configuration in which a shared
    return-path change is cleanly (mis)read as a link change.
    """
    obs = LinkObservations(("X", "Y"))
    for probe in range(12):
        samples = 5.0 + 3.0 + return_shift + rng.normal(0, 0.2, size=6)
        obs.add(probe, 65001, list(samples))
    for probe in range(4):
        samples = 5.0 + 1.0 + rng.normal(0, 0.2, size=6)
        obs.add(100 + probe, 65002, list(samples))
    return obs


def _run_two_as(filtered: bool, seed=3):
    rng = np.random.default_rng(seed)
    detector = DelayChangeDetector(alpha=0.1)
    diversity = DiversityFilter(seed=seed)
    alarms = []
    analyzed = 0
    for index in range(30):
        obs = _two_as_bin(rng, return_shift=8.0 if index >= 24 else 0.0)
        if filtered:
            verdict = diversity.evaluate(obs)
            if not verdict.accepted:
                continue
            samples = obs.all_samples(verdict.kept_probes)
        else:
            samples = obs.all_samples()
        analyzed += 1
        if detector.observe(index, obs.link, samples) is not None:
            alarms.append(index)
    return alarms, analyzed


def test_ablation_criterion1_two_ases(benchmark):
    (with_alarms, with_analyzed), (without_alarms, without_analyzed) = (
        benchmark.pedantic(
            lambda: (_run_two_as(True), _run_two_as(False)),
            rounds=1,
            iterations=1,
        )
    )

    print("\n=== Ablation: diversity criterion 1 (≥3 ASes) ===")
    print("workload: 2-AS link; the dominant AS's *return path* shifts")
    print(
        format_table(
            ["configuration", "bins analyzed", "false link alarms"],
            [
                ["with filter (paper)", with_analyzed, len(with_alarms)],
                ["without filter", without_analyzed, len(without_alarms)],
            ],
        )
    )

    # The filter refuses ambiguous links entirely; without it the
    # return-path change is misattributed to the link.
    assert with_analyzed == 0
    assert with_alarms == []
    assert len(without_alarms) > 0


def test_ablation_criterion2_rebalancing(benchmark):
    """The paper's §4.3 example: 100 probes, 90 in one of 5 ASes."""

    def run():
        obs = LinkObservations(("X", "Y"))
        probe = 0
        for asn, count in ((1, 90), (2, 3), (3, 3), (4, 2), (5, 2)):
            for _ in range(count):
                obs.add(probe, asn, [1.0])
                probe += 1
        verdict = DiversityFilter(seed=1).evaluate(obs)
        kept_counts = {}
        for kept in verdict.kept_probes:
            asn = obs.probe_asn[kept]
            kept_counts[asn] = kept_counts.get(asn, 0) + 1
        return verdict, kept_counts

    verdict, kept_counts = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n=== Ablation: diversity criterion 2 (entropy rebalancing) ===")
    print(
        format_table(
            ["metric", "paper", "measured"],
            [
                ["link kept (not dropped)", "yes", str(verdict.accepted)],
                ["probes discarded", "from the dominant AS",
                 len(verdict.discarded_probes)],
                ["final entropy", "> 0.5", f"{verdict.entropy:.3f}"],
                ["final per-AS counts", "-", str(dict(sorted(kept_counts.items())))],
            ],
        )
    )

    assert verdict.accepted
    assert verdict.entropy > 0.5
    assert len(verdict.discarded_probes) > 0
    assert normalized_entropy(kept_counts) > 0.5
    # Only dominant-AS probes were sacrificed.
    assert kept_counts[2] == 3 and kept_counts[5] == 2
    assert kept_counts[1] < 90
