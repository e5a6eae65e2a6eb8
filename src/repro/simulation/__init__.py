"""Synthetic Internet + measurement platform (the paper's data substrate).

The real system consumes 2.8 billion traceroutes from RIPE Atlas; offline
we generate statistically equivalent traceroute campaigns: an AS-level
topology with asymmetric routing, a per-packet delay/loss model with
heavy-tailed noise, anycast root services, Atlas-like builtin/anchoring
schedules, and scenario injection reproducing the paper's three case
studies (DDoS on DNS roots, BGP route leak, IXP outage) plus
beyond-the-paper events (anycast catchment shifts, BGP hijacks, diurnal
congestion ramps, probe churn) and a seeded :class:`ScenarioFuzzer`.
Every scenario emits a machine-readable ground-truth label set
(:meth:`Scenario.ground_truth`) scored by :mod:`repro.quality`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ANCHORING_MSM_BASE": "repro.simulation.platform",
    "BUILTIN_MSM_BASE": "repro.simulation.platform",
    "Anchor": "repro.simulation.topology",
    "AnycastInstance": "repro.simulation.topology",
    "AnycastService": "repro.simulation.topology",
    "AsInfo": "repro.simulation.topology",
    "AtlasPlatform": "repro.simulation.platform",
    "BgpHijackScenario": "repro.simulation.scenarios",
    "CampaignConfig": "repro.simulation.platform",
    "CatchmentShiftScenario": "repro.simulation.scenarios",
    "CompositeScenario": "repro.simulation.scenarios",
    "DdosScenario": "repro.simulation.scenarios",
    "DelaySampler": "repro.simulation.delays",
    "DiurnalCongestionScenario": "repro.simulation.scenarios",
    "IXP_ASES": "repro.simulation.topology",
    "IxpOutageScenario": "repro.simulation.scenarios",
    "LEAKER_AS": "repro.simulation.topology",
    "LOSS_LABEL_FLOOR": "repro.simulation.scenarios",
    "LinkPerturbation": "repro.simulation.scenarios",
    "NoRouteError": "repro.simulation.routing",
    "NoiseParams": "repro.simulation.delays",
    "Probe": "repro.simulation.topology",
    "ProbeChurnScenario": "repro.simulation.scenarios",
    "ROOT_SERVICES": "repro.simulation.topology",
    "RouteLeakScenario": "repro.simulation.scenarios",
    "RouterInfo": "repro.simulation.topology",
    "RoutingEngine": "repro.simulation.routing",
    "Scenario": "repro.simulation.scenarios",
    "ScenarioFuzzer": "repro.simulation.scenarios",
    "TIER1_ASES": "repro.simulation.topology",
    "TargetSpec": "repro.simulation.tracer",
    "Topology": "repro.simulation.topology",
    "TopologyBuilder": "repro.simulation.topology",
    "TopologyParams": "repro.simulation.topology",
    "TracerouteEngine": "repro.simulation.tracer",
    "WindowedLinkScenario": "repro.simulation.scenarios",
    "build_topology": "repro.simulation.topology",
    "combined_loss": "repro.simulation.delays",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
