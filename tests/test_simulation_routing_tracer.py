"""Tests for the routing engine and traceroute engine."""

import numpy as np
import pytest

from repro.simulation import (
    AtlasPlatform,
    CampaignConfig,
    NoRouteError,
    RoutingEngine,
    TargetSpec,
    TopologyParams,
    TracerouteEngine,
    build_topology,
)


@pytest.fixture(scope="module")
def topo():
    return build_topology(seed=11)


@pytest.fixture(scope="module")
def routing(topo):
    return RoutingEngine(topo)


@pytest.fixture(scope="module")
def engine(topo):
    return TracerouteEngine(topo, seed=5)


class TestRouting:
    def test_forward_path_endpoints(self, topo, routing):
        probe = topo.probes[0]
        anchor = topo.anchors[0]
        path = routing.forward_path(probe.router, anchor.node)
        assert path[0] == probe.router
        assert path[-1] == anchor.node

    def test_forward_path_cached(self, topo, routing):
        probe = topo.probes[0]
        anchor = topo.anchors[0]
        first = routing.forward_path(probe.router, anchor.node)
        second = routing.forward_path(probe.router, anchor.node)
        assert first is second

    def test_anycast_path_ends_at_instance(self, topo, routing):
        kroot = topo.services["K-root"]
        instance_nodes = {i.node for i in kroot.instances}
        for probe in topo.probes[:10]:
            path = routing.forward_path_to_service(probe.router, kroot)
            assert path[-1] in instance_nodes

    def test_anycast_catchments_differ(self, topo, routing):
        """Different probes should reach different K-root instances."""
        kroot = topo.services["K-root"]
        instances = {
            routing.instance_for(probe.router, kroot)
            for probe in topo.probes
        }
        assert len(instances) >= 2

    def test_return_path_differs_from_forward(self, topo, routing):
        """Route asymmetry: at least some pairs take different routes."""
        asymmetric = 0
        checked = 0
        for probe in topo.probes[:12]:
            for anchor in topo.anchors:
                forward = routing.forward_path(probe.router, anchor.node)
                backward = routing.return_path(anchor.node, probe.router)
                checked += 1
                if list(reversed(backward)) != forward:
                    asymmetric += 1
        assert checked > 0
        assert asymmetric / checked > 0.2

    def test_waypoint_path_passes_waypoint(self, topo, routing):
        probe = topo.probes[0]
        anchor = topo.anchors[-1]
        waypoint = topo.routers_of_as(4788)[0]
        path = routing.forward_path_via(probe.router, waypoint, anchor.node)
        assert waypoint in path
        assert path[-1] == anchor.node

    def test_no_route_error(self, topo):
        routing = RoutingEngine(topo)
        with pytest.raises(NoRouteError):
            routing.forward_path("does-not-exist", topo.probes[0].router)

    def test_path_base_delay_positive(self, topo, routing):
        probe = topo.probes[0]
        anchor = topo.anchors[0]
        path = routing.forward_path(probe.router, anchor.node)
        assert routing.path_base_delay_ms(path) > 0


class TestTracerouteEngine:
    def test_traceroute_shape(self, topo, engine):
        probe = topo.probes[0]
        target = TargetSpec.for_anchor(topo.anchors[0])
        tr = engine.run(probe, target, t=0)
        assert tr.prb_id == probe.probe_id
        assert tr.src_addr == probe.ip
        assert tr.dst_addr == target.dst_ip
        assert tr.from_asn == probe.asn
        assert len(tr.hops) >= 2
        for hop in tr.hops:
            assert len(hop.replies) == 3

    def test_rtts_increase_along_path(self, topo, engine):
        """Median RTT should be (weakly) increasing with TTL, modulo
        asymmetric return paths; at least the last hop exceeds the first."""
        probe = topo.probes[1]
        target = TargetSpec.for_anchor(topo.anchors[0])
        tr = engine.run(probe, target, t=60)
        rtts = [np.median(h.rtts) for h in tr.hops if h.rtts]
        assert len(rtts) >= 2
        assert rtts[-1] > rtts[0]

    def test_destination_reached_and_reported(self, topo, engine):
        probe = topo.probes[2]
        target = TargetSpec.for_anchor(topo.anchors[1])
        tr = engine.run(probe, target, t=120)
        assert tr.destination_reached
        assert tr.hops[-1].primary_ip == target.dst_ip

    def test_anycast_last_hop_is_service_ip(self, topo, engine):
        kroot = topo.services["K-root"]
        target = TargetSpec.for_service(kroot)
        tr = engine.run(topo.probes[3], target, t=0)
        assert tr.hops[-1].primary_ip == kroot.service_ip

    def test_deterministic_paths_across_time(self, topo, engine):
        """Paris traceroute: same (probe, target) -> same hop IPs."""
        probe = topo.probes[4]
        target = TargetSpec.for_anchor(topo.anchors[0])
        first = engine.run(probe, target, t=0)
        second = engine.run(probe, target, t=3600)
        assert [h.primary_ip for h in first.hops] == [
            h.primary_ip for h in second.hops
        ]

    def test_rtt_values_are_plain_floats(self, topo, engine):
        import json

        probe = topo.probes[5]
        target = TargetSpec.for_anchor(topo.anchors[0])
        tr = engine.run(probe, target, t=0)
        json.dumps(tr.to_json())  # must not raise on numpy types

    def test_unresponsive_router_shows_timeouts(self, topo):
        """Every unresponsive router a path crosses is a timed-out hop.

        Searches every (probe, target) pair of both target kinds until a
        path crosses one; the topology has unresponsive routers off the
        anchor paths too, so trying one router against anchors only may
        find none.
        """
        unresponsive = {
            r.node for r in topo.routers.values() if not r.responsive
        }
        engine = TracerouteEngine(topo, seed=1)
        targets = [TargetSpec.for_anchor(a) for a in topo.anchors] + [
            TargetSpec.for_service(s) for s in topo.services.values()
        ]
        for probe in topo.probes:
            for target in targets:
                plan = engine._plan_for(probe, target, None)
                nodes = [hp.node for hp in plan.hops]
                crossed = [
                    index
                    for index, node in enumerate(nodes[:-1])
                    if node in unresponsive
                ]
                if crossed:
                    tr = engine.run(probe, target, t=0)
                    assert all(tr.hops[i].is_unresponsive for i in crossed)
                    return
        pytest.fail("no path crosses an unresponsive router")

    def test_packets_per_hop_validation(self, topo):
        with pytest.raises(ValueError):
            TracerouteEngine(topo, packets_per_hop=0)


class TestPlatform:
    def test_campaign_size_matches_run(self, topo):
        platform = AtlasPlatform(topo, seed=3)
        config = CampaignConfig(duration_s=3600)
        expected = platform.campaign_size(config)
        results = list(platform.run_campaign(config))
        assert len(results) == expected
        assert expected > 0

    def test_results_sorted_by_timestamp(self, topo):
        platform = AtlasPlatform(topo, seed=3)
        config = CampaignConfig(duration_s=3600)
        stamps = [tr.timestamp for tr in platform.run_campaign(config)]
        assert stamps == sorted(stamps)

    def test_probe_and_target_filters(self, topo):
        platform = AtlasPlatform(topo, seed=3)
        config = CampaignConfig(
            duration_s=3600,
            probe_ids=[0, 1],
            service_names=["K-root"],
            include_anchoring=False,
        )
        results = list(platform.run_campaign(config))
        assert {tr.prb_id for tr in results} == {0, 1}
        assert {tr.dst_addr for tr in results} == {
            topo.services["K-root"].service_ip
        }

    def test_builtin_cadence(self, topo):
        platform = AtlasPlatform(topo, seed=3)
        config = CampaignConfig(
            duration_s=7200,
            probe_ids=[0],
            service_names=["K-root"],
            include_anchoring=False,
        )
        results = list(platform.run_campaign(config))
        assert len(results) == 4  # every 30 min over 2 hours

    def test_as_mapper_resolves_hops(self, topo):
        platform = AtlasPlatform(topo, seed=3)
        mapper = platform.as_mapper()
        config = CampaignConfig(
            duration_s=1800, probe_ids=[0, 1, 2], include_anchoring=False
        )
        unresolved = 0
        total = 0
        for tr in platform.run_campaign(config):
            for hop in tr.hops:
                ip = hop.primary_ip
                if ip is None:
                    continue
                total += 1
                if mapper.asn_of(ip) is None:
                    unresolved += 1
        assert total > 0
        assert unresolved == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(duration_s=0)
        with pytest.raises(ValueError):
            CampaignConfig(include_builtin=False, include_anchoring=False)

    def test_empty_probe_filter_raises(self, topo):
        platform = AtlasPlatform(topo, seed=3)
        config = CampaignConfig(duration_s=3600, probe_ids=[99999])
        with pytest.raises(ValueError):
            list(platform.run_campaign(config))
