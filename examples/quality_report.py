#!/usr/bin/env python
"""Score detector alarms against a scenario's ground-truth labels.

Every simulation scenario knows exactly what it perturbed — which links,
when, by how much, and which paths it moved — and publishes that as a
machine-readable label set (``Scenario.ground_truth()``).  This demo
injects a K-root DDoS together with a BGP hijack, runs the campaign
through the engine, and scores the raised alarms with
``repro.quality``: per-event recall, precision, F1 and time-to-detection,
plus the label JSON round-trip used by ``generate --labels``.

Run:  python examples/quality_report.py
"""

from repro.core import Engine
from repro.quality import GroundTruth, MatchConfig, score_bin_results
from repro.reporting import format_table
from repro.simulation import (
    AtlasPlatform,
    BgpHijackScenario,
    CampaignConfig,
    CompositeScenario,
    DdosScenario,
    build_topology,
)

EVENT = (6 * 3600, 8 * 3600)
DURATION_H = 10


def main() -> None:
    topology = build_topology(seed=21)
    kroot = topology.services["K-root"]
    scenario = CompositeScenario(
        [
            DdosScenario(
                topology,
                "K-root",
                [kroot.instances[0].node],
                [EVENT],
                seed=3,
            ),
            BgpHijackScenario(
                topology,
                topology.routers_of_as(174)[0],
                [topology.anchors[0].name],
                EVENT,
                mode="subprefix",
            ),
        ]
    )
    truth = scenario.ground_truth()
    print(
        f"events {truth.events()} labeled: {len(truth.delay)} delay, "
        f"{len(truth.forwarding)} forwarding labels"
    )

    # Labels serialise to JSON — this is what `generate --labels` writes.
    assert GroundTruth.from_json(truth.to_json()) == truth

    platform = AtlasPlatform(topology, scenario=scenario, seed=2)
    config = CampaignConfig(
        duration_s=DURATION_H * 3600,
        anchor_names=[topology.anchors[0].name],
    )
    print(f"running {platform.campaign_size(config)} traceroutes ...")
    engine = Engine()
    results = engine.run(platform.run_campaign(config))

    report = score_bin_results(
        truth,
        results,
        config=MatchConfig(bin_s=3600, tolerance_bins=1),
        scenario=scenario.name,
    )
    print(
        f"\n{report.n_alarms} alarms "
        f"({report.n_delay_alarms} delay, {report.n_forwarding_alarms} "
        f"forwarding) over {report.n_bins} bins"
    )
    rows = [
        [
            event.event,
            f"{event.recall:.2f}",
            "yes" if event.detected else "no",
            event.ttd_bins if event.ttd_bins is not None else "-",
        ]
        for event in report.events
    ]
    print(format_table(["event", "recall", "detected", "TTD (bins)"], rows))
    print(
        f"overall: precision {report.precision:.2f}, "
        f"recall {report.recall:.2f}, F1 {report.f1:.2f}"
    )

    # The demo should actually demonstrate detection.
    assert report.recall > 0.0, "no labeled event was detected"
    assert report.n_alarms > 0


if __name__ == "__main__":
    main()
