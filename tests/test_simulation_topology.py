"""Tests for the synthetic topology builder."""

import hashlib
import subprocess
import sys

import networkx as nx
import pytest

from repro.atlas.io import write_traceroutes
from repro.cli import SCENARIO_CHOICES
from repro.cli import main as cli_main
from repro.net import AsMapper, ip_in_prefix
from repro.simulation import (
    IXP_ASES,
    LEAKER_AS,
    TIER1_ASES,
    TopologyParams,
    build_topology,
)
from repro.simulation.platform import AtlasPlatform, CampaignConfig
from repro.simulation.scenarios import (
    CompositeScenario,
    DdosScenario,
    RouteLeakScenario,
)


@pytest.fixture(scope="module")
def topo():
    return build_topology(seed=7)


class TestStructure:
    def test_named_ases_present(self, topo):
        for asn, _ in TIER1_ASES:
            assert asn in topo.ases
            assert topo.ases[asn].tier == 1
        for asn, _ in IXP_ASES:
            assert asn in topo.ases
            assert topo.ases[asn].tier == 0
        assert LEAKER_AS[0] in topo.ases

    def test_counts_follow_params(self, topo):
        params = topo.params
        assert len(topo.probes) == params.n_probes
        assert len(topo.anchors) == params.n_anchors
        stubs = [a for a in topo.ases.values() if a.tier == 3 and a.name.startswith("Stub")]
        assert len(stubs) == params.n_stub

    def test_graph_strongly_connected_over_routers(self, topo):
        """Every probe must reach every anchor and vice versa."""
        real_nodes = [
            n for n, d in topo.graph.nodes(data=True) if not d.get("virtual")
        ]
        subgraph = topo.graph.subgraph(real_nodes)
        assert nx.is_strongly_connected(subgraph)

    def test_every_edge_has_required_attributes(self, topo):
        for u, v, data in topo.graph.edges(data=True):
            assert "base_delay_ms" in data
            assert "weight" in data
            assert "loss" in data
            if not topo.graph.nodes[v].get("virtual"):
                assert data["ingress_ip"] is not None
                assert data["base_delay_ms"] > 0

    def test_asymmetric_weights(self, topo):
        """Opposite directions of a link must (usually) differ in weight."""
        diffs = []
        for u, v, data in topo.graph.edges(data=True):
            if topo.graph.has_edge(v, u):
                diffs.append(data["weight"] != topo.graph[v][u]["weight"])
        assert sum(diffs) / len(diffs) > 0.9

    def test_deterministic_given_seed(self):
        a = build_topology(seed=3)
        b = build_topology(seed=3)
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())
        assert [p.ip for p in a.probes] == [p.ip for p in b.probes]

    def test_different_seeds_differ(self):
        a = build_topology(seed=3)
        b = build_topology(seed=4)
        assert sorted(a.graph.edges()) != sorted(b.graph.edges())


class TestAddressing:
    def test_prefix_table_covers_probe_ips(self, topo):
        mapper = AsMapper(topo.prefix_table())
        for probe in topo.probes:
            assert mapper.asn_of(probe.ip) == probe.asn

    def test_ingress_ips_belong_to_claimed_as(self, topo):
        mapper = AsMapper(topo.prefix_table())
        for u, v, data in topo.graph.edges(data=True):
            ip = data.get("ingress_ip")
            if ip is None:
                continue
            assert mapper.asn_of(ip) == data["ingress_asn"], (u, v, ip)

    def test_service_ips_map_to_service_asn(self, topo):
        mapper = AsMapper(topo.prefix_table())
        for service in topo.services.values():
            assert mapper.asn_of(service.service_ip) == service.asn

    def test_ixp_lan_edges_in_ixp_prefix(self, topo):
        for ixp_asn, _ in IXP_ASES:
            edges = topo.ixp_lan_edges(ixp_asn)
            assert edges, f"AS{ixp_asn} has no LAN edges"
            prefix = topo.ases[ixp_asn]
            for u, v in edges:
                ip = topo.graph[u][v]["ingress_ip"]
                assert ip_in_prefix(ip, prefix.prefix, prefix.prefix_len)

    def test_unique_interface_ips(self, topo):
        """No two interfaces share an address (except anycast service IPs)."""
        service_ips = {s.service_ip for s in topo.services.values()}
        seen = set()
        for _, _, data in topo.graph.edges(data=True):
            ip = data.get("ingress_ip")
            if ip is None or ip in service_ips:
                continue
            assert ip not in seen, f"duplicate interface ip {ip}"
            seen.add(ip)


class TestAnycast:
    def test_kroot_has_multiple_instances(self, topo):
        kroot = topo.services["K-root"]
        assert len(kroot.instances) >= 3
        assert kroot.service_ip == "193.0.14.129"
        assert kroot.asn == 25152

    def test_instances_not_in_leaker_as(self, topo):
        for service in topo.services.values():
            for instance in service.instances:
                assert instance.host_asn != LEAKER_AS[0]

    def test_last_hop_edges_report_service_ip(self, topo):
        edges = topo.service_last_hop_edges("K-root")
        assert edges
        kroot = topo.services["K-root"]
        instance_nodes = {i.node for i in kroot.instances}
        for _, v in edges:
            assert v in instance_nodes

    def test_virtual_sink_reachable_from_instances(self, topo):
        kroot = topo.services["K-root"]
        for instance in kroot.instances:
            assert topo.graph.has_edge(instance.node, kroot.virtual_node)


class TestCustomParams:
    def test_small_topology(self):
        params = TopologyParams(n_tier2=2, n_stub=4, n_probes=8, n_anchors=2)
        topo = build_topology(params, seed=1)
        assert len(topo.probes) == 8
        assert len(topo.anchors) == 2

    def test_unresponsive_routers_exist_with_high_fraction(self):
        params = TopologyParams(unresponsive_fraction=0.5)
        topo = build_topology(params, seed=5)
        responsive = [r.responsive for r in topo.routers.values()]
        assert not all(responsive)


class TestPinnedBytes:
    """The routing graph is replayed lazily from the builder's log; these
    digests (computed with the builder writing straight into an
    ``nx.DiGraph``) prove the replay is order-identical.  The campaign
    digests pin the traceroute engine's output bytes: its RNG draw
    order and its scenario queries."""

    GRAPH_DIGESTS = {
        1: "6acfb77ccebaf995f31618b4fb38e40d",
        5: "13ced8b2f444b22f6e9a3757152ffce7",
    }
    GENERATE_DIGEST = "bf1954312201a8bd3431f6fca8b3308e"

    @pytest.mark.parametrize("seed", sorted(GRAPH_DIGESTS))
    def test_case_study_graph_digest(self, seed):
        graph = build_topology(TopologyParams.case_study(), seed=seed).graph
        text = repr(list(graph.nodes(data=True))) + repr(
            list(graph.edges(data=True))
        )
        digest = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
        assert digest == self.GRAPH_DIGESTS[seed]

    def test_generate_output_digest(self, tmp_path):
        out = tmp_path / "campaign.jsonl"
        argv = ["generate", "--hours", "2", "--seed", "5",
                "--scenario", "ddos", "--out", str(out)]
        assert cli_main(argv) == 0
        digest = hashlib.blake2b(out.read_bytes(), digest_size=16).hexdigest()
        assert digest == self.GENERATE_DIGEST

    #: ``generate --hours 2 --seed 5 --probes 12 --scenario NAME``: the
    #: window covers the whole campaign, so every traceroute goes
    #: through the scenario's delay, loss and waypoint queries.
    SCENARIO_DIGESTS = {
        "ddos": "489d3cc10cd03d9a94b5e347c837b121",
        "leak": "3eb9161a704daa6e90c7ed94063a0217",
        "outage": "cc3f72a6668e8887bb43d737a75ff81a",
        "catchment": "bda49073d56930e697a6d206e1fdf32e",
        "hijack-subprefix": "61f7ae2c8a8a109f738f4881e67c2b32",
        "hijack-exact": "628717c544b4320bab7dd0f75a794f1c",
        "diurnal": "db9dbb29b995091fd96469dad53e9b0b",
        "churn": "650a7b640fad65c685019387cc6f7458",
        "fuzz": "b4263fdf5f420b4a0b472e43c767b99c",
    }
    #: An IPv6 campaign under a DDoS layered with a route leak.
    V6_DIGEST = "f28a8cce1abfcb198daeb7935db22774"

    def test_every_scenario_choice_is_pinned(self):
        assert tuple(sorted(self.SCENARIO_DIGESTS)) == tuple(
            sorted(SCENARIO_CHOICES)
        )

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_DIGESTS))
    def test_generate_scenario_digest(self, tmp_path, scenario):
        out = tmp_path / "campaign.jsonl"
        argv = ["generate", "--hours", "2", "--seed", "5", "--probes", "12",
                "--scenario", scenario, "--out", str(out)]
        assert cli_main(argv) == 0
        digest = hashlib.blake2b(out.read_bytes(), digest_size=16).hexdigest()
        assert digest == self.SCENARIO_DIGESTS[scenario]

    def test_v6_campaign_digest(self, tmp_path):
        params = TopologyParams.case_study()
        params.n_probes = 12
        topology = build_topology(params, seed=5)
        kroot = topology.services["K-root"]
        window = (0, 2 * 3600)
        scenario = CompositeScenario(
            [
                DdosScenario(
                    topology, "K-root",
                    [kroot.instances[0].node, kroot.instances[-1].node],
                    windows=[window], seed=5,
                ),
                RouteLeakScenario(
                    topology,
                    leak_waypoint=topology.routers_of_as(4788)[0],
                    leak_entry=topology.routers_of_as(3549)[0],
                    leaked_targets={a.name for a in topology.anchors[:3]},
                    window=window,
                    seed=5,
                ),
            ]
        )
        platform = AtlasPlatform(topology, scenario=scenario, seed=5)
        config = CampaignConfig(duration_s=2 * 3600, address_family=6)
        out = tmp_path / "v6.jsonl"
        assert write_traceroutes(out, platform.run_campaign(config)) > 0
        digest = hashlib.blake2b(out.read_bytes(), digest_size=16).hexdigest()
        assert digest == self.V6_DIGEST

    def test_graph_is_built_once(self, topo):
        assert topo.graph is topo.graph

    def test_as_mapper_needs_no_graph(self):
        code = (
            "import sys\n"
            "from repro.simulation.topology import build_topology\n"
            "mapper = build_topology(seed=3).as_mapper()\n"
            "assert mapper.asn_of('193.0.14.129') == 25152\n"
            "assert 'networkx' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
