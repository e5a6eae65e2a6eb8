"""Tests for the event scenarios (DDoS, route leak, IXP outage)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import (
    CompositeScenario,
    DdosScenario,
    IxpOutageScenario,
    RouteLeakScenario,
    Scenario,
    TargetSpec,
    TracerouteEngine,
    build_topology,
)


@pytest.fixture(scope="module")
def topo():
    return build_topology(seed=21)


WINDOW = (10 * 3600, 12 * 3600)


@pytest.fixture(scope="module")
def ddos(topo):
    kroot = topo.services["K-root"]
    attacked = [kroot.instances[0].node, kroot.instances[2].node]
    return DdosScenario(
        topo, "K-root", attacked, windows=[WINDOW], seed=3
    )


class TestNeutralScenario:
    def test_neutral_never_active(self):
        scenario = Scenario()
        assert not scenario.active(0)
        assert scenario.extra_delay_ms("a", "b", 0) == 0.0
        assert scenario.extra_loss("a", "b", 0) == 0.0
        assert scenario.waypoint(0, "x", 0) is None
        assert scenario.windows() == []


class TestDdosScenario:
    def test_active_only_in_window(self, ddos):
        assert not ddos.active(WINDOW[0] - 1)
        assert ddos.active(WINDOW[0])
        assert ddos.active(WINDOW[1] - 1)
        assert not ddos.active(WINDOW[1])

    def test_perturbs_last_hop_edges(self, topo, ddos):
        kroot = topo.services["K-root"]
        attacked = ddos.attacked_instances[0]
        upstream_edges = [
            (u, v)
            for u, v in topo.service_last_hop_edges("K-root")
            if v == attacked
        ]
        assert upstream_edges
        u, v = upstream_edges[0]
        assert ddos.extra_delay_ms(u, v, WINDOW[0]) > 0
        assert ddos.extra_loss(u, v, WINDOW[0]) > 0

    def test_does_not_perturb_unattacked_instance(self, topo, ddos):
        kroot = topo.services["K-root"]
        attacked = set(ddos.attacked_instances)
        spared = [i.node for i in kroot.instances if i.node not in attacked]
        assert spared
        for node in spared:
            for u, v in topo.service_last_hop_edges("K-root"):
                if v == node:
                    assert ddos.extra_delay_ms(u, v, WINDOW[0]) == 0.0

    def test_inactive_outside_window(self, ddos):
        for u, v in list(ddos.perturbed_edges)[:3]:
            assert ddos.extra_delay_ms(u, v, 0) == 0.0
            assert ddos.extra_loss(u, v, 0) == 0.0

    def test_rejects_unknown_instance(self, topo):
        with pytest.raises(ValueError):
            DdosScenario(topo, "K-root", ["nonsense"], windows=[WINDOW])

    def test_delay_shift_in_requested_range(self, topo):
        kroot = topo.services["K-root"]
        scenario = DdosScenario(
            topo,
            "K-root",
            [kroot.instances[0].node],
            windows=[WINDOW],
            min_shift_ms=5.0,
            max_shift_ms=6.0,
        )
        shifts = [
            scenario.extra_delay_ms(u, v, WINDOW[0])
            for u, v in scenario.perturbed_edges
        ]
        assert all(5.0 <= s <= 6.0 for s in shifts)

    def test_traceroute_rtt_rises_during_attack(self, topo, ddos):
        """End-to-end check: RTT to an attacked instance shifts upward."""
        engine = TracerouteEngine(topo, scenario=ddos, seed=9)
        kroot = topo.services["K-root"]
        target = TargetSpec.for_service(kroot)
        attacked = set(ddos.attacked_instances)
        probe_hit = None
        for probe in topo.probes:
            if engine.routing.instance_for(probe.router, kroot) in attacked:
                probe_hit = probe
                break
        assert probe_hit is not None, "no probe routed to an attacked instance"

        def last_hop_median(t):
            tr = engine.run(probe_hit, target, t)
            rtts = tr.hops[-1].rtts
            return np.median(rtts) if rtts else None

        quiet = [last_hop_median(3600 + i * 600) for i in range(6)]
        busy = [last_hop_median(WINDOW[0] + i * 600) for i in range(6)]
        quiet = [q for q in quiet if q is not None]
        busy = [b for b in busy if b is not None]
        assert np.median(busy) > np.median(quiet) + 5.0


class TestRouteLeakScenario:
    @pytest.fixture(scope="class")
    def leak(self, topo):
        waypoint = topo.routers_of_as(4788)[0]
        level3_edges = topo.edges_of_as(3549)[:10]
        return RouteLeakScenario(
            topo,
            leak_waypoint=waypoint,
            leaked_targets={a.name for a in topo.anchors[:3]},
            congested_edges=level3_edges,
            window=WINDOW,
            seed=5,
        )

    def test_waypoint_only_for_leaked_targets_in_window(self, topo, leak):
        target = topo.anchors[0].name
        assert leak.waypoint(0, target, WINDOW[0]) is not None
        assert leak.waypoint(0, target, 0) is None
        assert leak.waypoint(0, "not-leaked", WINDOW[0]) is None

    def test_congestion_in_window(self, leak):
        edge = next(iter(leak.perturbed_edges))
        assert leak.extra_delay_ms(*edge, WINDOW[0]) >= 80.0
        assert leak.extra_loss(*edge, WINDOW[0]) > 0.0
        assert leak.extra_delay_ms(*edge, 0) == 0.0

    def test_rejects_unknown_waypoint(self, topo):
        with pytest.raises(ValueError):
            RouteLeakScenario(
                topo,
                leak_waypoint="missing",
                leaked_targets=set(),
                congested_edges=[],
                window=WINDOW,
            )

    def test_paths_change_during_leak(self, topo, leak):
        engine = TracerouteEngine(topo, scenario=leak, seed=2)
        anchor = topo.anchors[0]
        target = TargetSpec.for_anchor(anchor)
        waypoint_asn = 4788
        mapper_nodes = set(topo.routers_of_as(waypoint_asn))
        changed = 0
        for probe in topo.probes[:10]:
            normal = engine._plan_for(probe, target, None)
            leaked_plan = engine._plan_for(probe, target, leak.leak_waypoint)
            normal_nodes = [h.node for h in normal.hops]
            leaked_nodes = [h.node for h in leaked_plan.hops]
            if set(leaked_nodes) & mapper_nodes and not (
                set(normal_nodes) & mapper_nodes
            ):
                changed += 1
        assert changed > 0


class TestIxpOutageScenario:
    @pytest.fixture(scope="class")
    def outage(self, topo):
        return IxpOutageScenario(topo, ixp_asn=1200, window=WINDOW)

    def test_full_loss_on_lan_edges(self, topo, outage):
        for u, v in topo.ixp_lan_edges(1200)[:5]:
            assert outage.extra_loss(u, v, WINDOW[0]) == 1.0
            assert outage.extra_loss(u, v, 0) == 0.0
            assert outage.extra_delay_ms(u, v, WINDOW[0]) == 0.0

    def test_rejects_unknown_ixp(self, topo):
        with pytest.raises(ValueError):
            IxpOutageScenario(topo, ixp_asn=99999, window=WINDOW)

    def test_hops_behind_lan_time_out(self, topo, outage):
        """The first hop reached over the AMS-IX LAN times out during
        the outage and answers before it.

        Searches every (probe, target) pair of both target kinds: the
        root services' paths may all avoid the LAN, the anchors' do not.
        """
        engine = TracerouteEngine(topo, scenario=outage, seed=4)
        lan_edges = set(topo.ixp_lan_edges(1200))
        targets = [
            TargetSpec.for_service(service)
            for service in topo.services.values()
        ] + [TargetSpec.for_anchor(anchor) for anchor in topo.anchors]
        for probe in topo.probes:
            for target in targets:
                plan = engine._plan_for(probe, target, None)
                crossing = None
                for index, hop_plan in enumerate(plan.hops):
                    if set(hop_plan.forward_edges) & lan_edges:
                        crossing = index
                        break
                if crossing is None:
                    continue
                during = engine.run(probe, target, WINDOW[0] + 300)
                before = engine.run(probe, target, WINDOW[0] - 7200)
                assert during.hops[crossing].is_unresponsive
                assert not before.hops[crossing].is_unresponsive
                return
        pytest.fail("no path crosses the AMS-IX LAN")


class TestCompositeScenario:
    def test_delays_add_and_losses_combine(self, topo, ddos):
        outage = IxpOutageScenario(topo, ixp_asn=1200, window=WINDOW)
        combo = CompositeScenario([ddos, outage])
        assert combo.active(WINDOW[0])
        assert not combo.active(0)
        edge = next(iter(ddos.perturbed_edges))
        assert combo.extra_delay_ms(*edge, WINDOW[0]) == pytest.approx(
            ddos.extra_delay_ms(*edge, WINDOW[0])
        )
        lan_edge = topo.ixp_lan_edges(1200)[0]
        assert combo.extra_loss(*lan_edge, WINDOW[0]) == 1.0

    def test_windows_merged(self, topo, ddos):
        outage = IxpOutageScenario(topo, ixp_asn=1200, window=(0, 3600))
        combo = CompositeScenario([ddos, outage])
        assert (0, 3600) in combo.windows()
        assert WINDOW in combo.windows()

    def test_empty_composite_is_neutral(self):
        combo = CompositeScenario([])
        assert combo.name == "neutral"
        assert not combo.active(0)


class TestCatchmentShiftScenario:
    def test_shifted_probes_reach_other_instance(self, topo):
        from repro.simulation import CatchmentShiftScenario, RoutingEngine

        scenario = CatchmentShiftScenario.largest_shift(
            topo, "K-root", WINDOW
        )
        routing = RoutingEngine(topo)
        service = topo.services["K-root"]
        probe = next(iter(scenario.shifted_probes))
        src = next(
            p.router for p in topo.probes if p.probe_id == probe
        )
        normal = routing.forward_path_to_service(src, service)
        via = scenario.waypoint(probe, "K-root", WINDOW[0])
        assert via is not None
        shifted = routing.forward_path_via_to_service(src, via, service)
        assert shifted[-1] != normal[-1]  # lands on another instance
        # Outside the window (or for other targets) nothing moves.
        assert scenario.waypoint(probe, "K-root", 0) is None
        assert scenario.waypoint(probe, "other", WINDOW[0]) is None

    def test_rejects_same_instance(self, topo):
        from repro.simulation import CatchmentShiftScenario

        service = topo.services["K-root"]
        node = service.instances[0].node
        with pytest.raises(ValueError):
            CatchmentShiftScenario(topo, "K-root", node, node, WINDOW)


class TestBgpHijackScenario:
    def test_subprefix_captures_everyone(self, topo):
        from repro.simulation import BgpHijackScenario

        hijacker = topo.routers_of_as(174)[0]
        target = topo.anchors[0].name
        scenario = BgpHijackScenario(
            topo, hijacker, [target], WINDOW, mode="subprefix"
        )
        for probe in topo.probes:
            assert (
                scenario.waypoint(probe.probe_id, target, WINDOW[0])
                == (hijacker,)
            )
            assert scenario.waypoint(probe.probe_id, target, 0) is None

    def test_exact_mode_honours_distance(self, topo):
        from repro.simulation import BgpHijackScenario

        hijacker = topo.routers_of_as(174)[0]
        target = topo.anchors[0].name
        scenario = BgpHijackScenario(
            topo, hijacker, [target], WINDOW, mode="exact"
        )
        captured = scenario.captured[target]
        for probe in topo.probes:
            expected = (hijacker,) if probe.probe_id in captured else None
            assert (
                scenario.waypoint(probe.probe_id, target, WINDOW[0])
                == expected
            )

    def test_rejects_bad_mode_and_targets(self, topo):
        from repro.simulation import BgpHijackScenario

        hijacker = topo.routers_of_as(174)[0]
        with pytest.raises(ValueError):
            BgpHijackScenario(
                topo, hijacker, [topo.anchors[0].name], WINDOW, mode="nope"
            )
        with pytest.raises(ValueError):
            BgpHijackScenario(topo, hijacker, ["missing"], WINDOW)
        with pytest.raises(ValueError):
            BgpHijackScenario(topo, hijacker, [], WINDOW)


class TestProbeChurnScenario:
    def test_campaign_skips_jobs_while_down(self, topo):
        from repro.simulation import (
            AtlasPlatform,
            CampaignConfig,
            ProbeChurnScenario,
        )

        scenario = ProbeChurnScenario(
            topo, windows=[WINDOW], fraction=0.5, seed=1
        )
        platform = AtlasPlatform(topo, scenario=scenario, seed=2)
        config = CampaignConfig(
            duration_s=13 * 3600,
            probe_ids=sorted(scenario.churned_probes)[:5],
            include_anchoring=False,
        )
        produced = sum(1 for _ in platform.run_campaign(config))
        assert produced < platform.campaign_size(config)

    def test_flaps_only_inside_window(self, topo):
        from repro.simulation import ProbeChurnScenario

        scenario = ProbeChurnScenario(
            topo, windows=[WINDOW], fraction=0.5, period_s=1800, seed=1
        )
        probe = sorted(scenario.churned_probes)[0]
        assert scenario.probe_active(probe, 0)
        assert scenario.probe_active(probe, WINDOW[1] + 10)
        in_window = [
            scenario.probe_active(probe, t)
            for t in range(WINDOW[0], WINDOW[1], 60)
        ]
        assert not all(in_window)  # goes down at some point
        assert any(in_window)  # but not for the whole window

    def test_data_plane_untouched(self, topo):
        from repro.simulation import ProbeChurnScenario

        scenario = ProbeChurnScenario(topo, windows=[WINDOW], seed=1)
        assert not scenario.active(WINDOW[0])
        assert scenario.extra_delay_ms("a", "b", WINDOW[0]) == 0.0
        assert scenario.extra_loss("a", "b", WINDOW[0]) == 0.0

    def test_validates_parameters(self, topo):
        from repro.simulation import ProbeChurnScenario

        with pytest.raises(ValueError):
            ProbeChurnScenario(topo, windows=[WINDOW], fraction=0.0)
        with pytest.raises(ValueError):
            ProbeChurnScenario(topo, windows=[WINDOW], period_s=0)
        with pytest.raises(ValueError):
            ProbeChurnScenario(
                topo, windows=[WINDOW], period_s=600, down_time_s=601
            )


class TestDiurnalCongestionScenario:
    def test_ramp_shape(self, topo):
        from repro.simulation import DiurnalCongestionScenario

        scenario = DiurnalCongestionScenario(
            topo, windows=[WINDOW], asn=174, seed=2
        )
        edge = sorted(scenario.perturbed_edges)[0]
        start, end = WINDOW
        mid = (start + end) // 2
        quarter = start + (end - start) // 4
        assert scenario.extra_delay_ms(*edge, start) == 0.0
        assert scenario.extra_delay_ms(*edge, mid) == pytest.approx(
            scenario.peak_shift_ms(edge)
        )
        assert (
            0.0
            < scenario.extra_delay_ms(*edge, quarter)
            < scenario.extra_delay_ms(*edge, mid)
        )
        assert scenario.extra_delay_ms(*edge, end + 1) == 0.0

    def test_unperturbed_edges_untouched(self, topo):
        from repro.simulation import DiurnalCongestionScenario

        scenario = DiurnalCongestionScenario(
            topo, windows=[WINDOW], asn=174, seed=2
        )
        mid = (WINDOW[0] + WINDOW[1]) // 2
        assert scenario.extra_delay_ms("nope", "nada", mid) == 0.0
        assert scenario.extra_loss("nope", "nada", mid) == 0.0


def _one_of_each(topo):
    """One scenario of every class, each with its windows inside
    ``WINDOW`` (a composite one layers a DDoS on a route leak)."""
    from repro.simulation import (
        BgpHijackScenario,
        CatchmentShiftScenario,
        DiurnalCongestionScenario,
        ProbeChurnScenario,
    )

    kroot = topo.services["K-root"]
    anchors = [a.name for a in topo.anchors[:2]]
    ddos = DdosScenario(
        topo, "K-root", [kroot.instances[0].node], windows=[WINDOW], seed=3
    )
    leak = RouteLeakScenario(
        topo,
        leak_waypoint=topo.routers_of_as(4788)[0],
        leak_entry=topo.routers_of_as(3549)[0],
        leaked_targets=anchors,
        window=WINDOW,
        seed=4,
    )
    return [
        Scenario(),
        ddos,
        leak,
        IxpOutageScenario(topo, ixp_asn=1200, window=WINDOW),
        CatchmentShiftScenario.largest_shift(topo, "K-root", WINDOW),
        BgpHijackScenario(
            topo, topo.routers_of_as(174)[0], anchors, WINDOW, "subprefix"
        ),
        BgpHijackScenario(
            topo, topo.routers_of_as(174)[0], anchors, WINDOW, "exact"
        ),
        DiurnalCongestionScenario(topo, windows=[WINDOW], asn=174, seed=2),
        ProbeChurnScenario(topo, windows=[WINDOW], seed=5),
        CompositeScenario([ddos, leak]),
    ]


class TestPerturbedEdgesContract:
    """``TracerouteEngine.run`` queries delay and loss only on a
    scenario's ``perturbed_edges``: every other edge must read exactly
    ``0.0`` of both, at any time."""

    @pytest.fixture(scope="class")
    def scenarios(self, topo):
        return _one_of_each(topo)

    @pytest.fixture(scope="class")
    def edges(self, topo):
        return sorted(topo.graph.edges()) + [("nope", "nada")]

    @staticmethod
    def _assert_zero_outside(scenario, edges, t):
        perturbed = scenario.perturbed_edges
        for u, v in edges:
            if (u, v) in perturbed:
                continue
            assert scenario.extra_delay_ms(u, v, t) == 0.0, (u, v, t)
            assert scenario.extra_loss(u, v, t) == 0.0, (u, v, t)

    @settings(max_examples=30, deadline=None)
    @given(
        index=st.integers(0, 9),
        t=st.one_of(
            st.integers(0, 30 * 3600),
            st.sampled_from([WINDOW[0], (WINDOW[0] + WINDOW[1]) // 2]),
        ),
    )
    def test_every_class_reads_zero_outside(self, scenarios, edges, index, t):
        self._assert_zero_outside(scenarios[index], edges, t)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), t=st.integers(0, 24 * 3600))
    def test_fuzzer_samples_read_zero_outside(self, topo, edges, seed, t):
        from repro.simulation import ScenarioFuzzer

        composite = ScenarioFuzzer(topo, seed=seed).sample()
        self._assert_zero_outside(composite, edges, t)
        for member in composite.members:
            self._assert_zero_outside(member, edges, t)

    def test_waypoint_and_churn_scenarios_perturb_no_edge(self, scenarios):
        quiet = [
            s for s in scenarios
            if s.name == "neutral"
            or s.name.startswith(("catchment", "hijack", "probe-churn"))
        ]
        assert len(quiet) == 5
        for scenario in quiet:
            assert scenario.perturbed_edges == set(), scenario.name

    def test_link_scenarios_perturb_edges(self, scenarios):
        loud = [
            s for s in scenarios
            if s.name.startswith(("ddos", "route-leak", "ixp", "diurnal"))
        ]
        assert len(loud) == 5  # the composite's name starts "ddos:"
        for scenario in loud:
            assert scenario.perturbed_edges, scenario.name

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), n_events=st.integers(1, 4))
    def test_composite_is_the_union_of_its_members(self, topo, seed, n_events):
        from repro.simulation import ScenarioFuzzer

        composite = ScenarioFuzzer(topo, seed=seed).sample(n_events)
        union = set()
        for member in composite.members:
            union |= member.perturbed_edges
        assert composite.perturbed_edges == union
        assert CompositeScenario([]).perturbed_edges == set()
