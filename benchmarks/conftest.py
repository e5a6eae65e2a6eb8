"""Shared fixtures for the figure-reproduction benchmarks.

All per-figure benchmarks draw on one **grand campaign**: a 10-day
simulated measurement period on the case-study topology with the paper's
three events injected at separated times, mirroring the authors' 8-month
dataset containing the AMS-IX outage (May), the Telekom Malaysia route
leak (June) and the root-server DDoS attacks (Nov/Dec):

=======  ============  ==========================================
hours    event         paper counterpart
=======  ============  ==========================================
96-98    IXP outage    AMS-IX outage, May 13 2015 (§7.3)
144-146  DDoS wave 1   attacks on DNS roots, Nov 30 2015 (§7.1)
168-169  DDoS wave 2   second attack, Dec 1 2015 (§7.1)
192-194  route leak    Telekom Malaysia leak, June 12 2015 (§7.2)
=======  ============  ==========================================

The campaign is generated once per pytest session and analysed by the
production engine (:func:`~repro.core.analyze_campaign`'s default),
which is checked once against the serial reference; individual
benchmarks time their own analysis step on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest

from repro.core import (
    CampaignAnalysis,
    DiversityFilter,
    PipelineConfig,
    analyze_campaign,
)
from repro.net import AsMapper
from repro.reference import Pipeline, differential_rtts
from repro.simulation import (
    AtlasPlatform,
    CampaignConfig,
    CompositeScenario,
    DdosScenario,
    IxpOutageScenario,
    RouteLeakScenario,
    TopologyParams,
    Topology,
    build_topology,
)

#: Campaign length: 10 days of hourly bins (> one magnitude window).
DURATION_H = 240

#: Event windows, campaign-relative hours.
OUTAGE_H = (96, 98)
DDOS1_H = (144, 146)
DDOS2_H = (168, 169)
LEAK_H = (192, 194)

#: Probes used by the anchoring mesh (subset, like the real platform
#: where ~400 of 10k probes participate).
ANCHORING_PROBES = 40

SEED = 1


def _window(hours: Tuple[int, int]) -> Tuple[int, int]:
    return hours[0] * 3600, hours[1] * 3600


@dataclass
class GrandCampaign:
    """Everything the figure benchmarks need."""

    topology: Topology
    mapper: AsMapper
    analysis: CampaignAnalysis
    scenario: CompositeScenario
    cogent_link: Tuple[str, str]
    kroot_links: List[Tuple[str, str]]
    level3_links: List[Tuple[str, str]]
    attacked_instances: List[str]


def _accepted_links(platform, include_anchoring=True):
    config = CampaignConfig(
        duration_s=3600, include_anchoring=include_anchoring
    )
    observations = differential_rtts(platform.run_campaign(config))
    diversity = DiversityFilter(seed=0)
    return [
        link
        for link in sorted(observations)
        if diversity.evaluate(observations[link]).accepted
    ], observations


def _scout_links(topology, platform) -> Dict[str, List[Tuple[str, str]]]:
    """One quiet hour to find diversity-accepted links worth tracking."""
    mapper = platform.as_mapper()
    accepted, observations = _accepted_links(platform)

    def asns(link):
        return {mapper.asn_of(ip) for ip in link}

    cogent = [link for link in accepted if asns(link) == {174}]
    if not cogent:  # fall back to any link touching Cogent
        cogent = [link for link in accepted if 174 in asns(link)]
    if not cogent:  # last resort: the busiest accepted link
        cogent = [
            max(accepted, key=lambda l: observations[l].n_samples)
        ]
    kroot = [link for link in accepted if "193.0.14.129" in link]
    # Level(3) links must keep carrying traffic *during* the leak, when
    # all anchor-bound paths are rerouted — scout them on builtin-only
    # traffic (root-server paths are not leaked).
    builtin_accepted, _ = _accepted_links(platform, include_anchoring=False)
    level3 = [
        link for link in builtin_accepted if asns(link) & {3356, 3549}
    ]
    if not level3:  # fall back to anchoring-visible Level3 links
        level3 = [link for link in accepted if asns(link) & {3356, 3549}]
    return {"cogent": cogent, "kroot": kroot, "level3": level3}


@pytest.fixture(scope="session")
def grand_campaign() -> GrandCampaign:
    return _build_grand_campaign()


def _assert_engine_is_reference(analysis, traceroutes, mapper, config):
    """The figures read the engine's analysis: hold it to the reference.

    The one engine ≡ reference check of the paper-figure benches: the
    same campaign through the serial reference
    :class:`~repro.reference.Pipeline` must give the same bin results
    (every alarm), campaign statistics, tracked-link series and §6
    aggregation (every per-AS severity series, from which the Eq. 10
    magnitudes follow), bit for bit.
    """
    reference = analyze_campaign(
        traceroutes, mapper, pipeline=Pipeline(config)
    )
    assert analysis.bin_results == reference.bin_results
    assert analysis.stats() == reference.stats()
    assert analysis.pipeline.tracked == reference.pipeline.tracked
    for kind in ("delay", "forwarding"):
        ours = getattr(analysis.aggregator, f"{kind}_series")
        theirs = getattr(reference.aggregator, f"{kind}_series")
        assert ours == theirs, kind


def _build_grand_campaign() -> GrandCampaign:
    topology = build_topology(TopologyParams.case_study(), seed=SEED)
    kroot = topology.services["K-root"]
    attacked_wave1 = [kroot.instances[0].node, kroot.instances[1].node]
    attacked_wave2 = [kroot.instances[0].node]
    scenario = CompositeScenario(
        [
            IxpOutageScenario(topology, ixp_asn=1200, window=_window(OUTAGE_H)),
            DdosScenario(
                topology, "K-root", attacked_wave1, [_window(DDOS1_H)], seed=3
            ),
            DdosScenario(
                topology, "K-root", attacked_wave2, [_window(DDOS2_H)], seed=4
            ),
            RouteLeakScenario(
                topology,
                leak_waypoint=topology.routers_of_as(4788)[0],
                leak_entry=topology.routers_of_as(3549)[0],
                leaked_targets={a.name for a in topology.anchors},
                window=_window(LEAK_H),
                seed=5,
            ),
        ]
    )
    platform = AtlasPlatform(topology, scenario=scenario, seed=2)
    mapper = platform.as_mapper()

    quiet_platform = AtlasPlatform(topology, seed=2)
    tracked = _scout_links(topology, quiet_platform)

    builtin = platform.run_campaign(
        CampaignConfig(
            duration_s=DURATION_H * 3600, include_anchoring=False
        )
    )
    anchoring = platform.run_campaign(
        CampaignConfig(
            duration_s=DURATION_H * 3600,
            include_builtin=False,
            probe_ids=list(range(ANCHORING_PROBES)),
        )
    )
    traceroutes = list(builtin) + list(anchoring)

    track_links = set(
        tracked["cogent"][:1] + tracked["kroot"][:4] + tracked["level3"][:3]
    )
    config = PipelineConfig(track_links=track_links)
    analysis = analyze_campaign(traceroutes, mapper, config=config)
    _assert_engine_is_reference(analysis, traceroutes, mapper, config)
    return GrandCampaign(
        topology=topology,
        mapper=mapper,
        analysis=analysis,
        scenario=scenario,
        cogent_link=tracked["cogent"][0],
        kroot_links=tracked["kroot"][:4],
        level3_links=tracked["level3"][:3],
        attacked_instances=attacked_wave1,
    )


@pytest.fixture(scope="session")
def magnitude_window() -> int:
    """One-week sliding window, in hourly bins (paper Eq. 10)."""
    return 168
