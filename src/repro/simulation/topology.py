"""Synthetic Internet topology — the substrate replacing the real Internet.

The paper measures the production Internet through ~10,000 RIPE Atlas
probes.  Offline we need a stand-in that preserves the statistical
features the detection methods depend on:

* a transit hierarchy (tier-1 full mesh, multi-homed tier-2s, stub ASes)
  so links are observed from **multiple origin ASes** (§4.3),
* Internet exchange points with peering LANs owning their own prefix/ASN
  (the AMS-IX case study, §7.3),
* **anycast** DNS root services with instances at several locations (the
  K-root case study, §7.1),
* per-direction link weights so forward and return paths are
  **asymmetric** (the ε terms of §4.1), and
* named entities matching the case studies (Level3 AS3356/AS3549, Cogent
  AS174, AMS-IX AS1200, K-root AS25152, Telekom Malaysia AS4788, ...) so
  scenarios and benchmarks read like the paper.

Nodes of the routing graph are router identifiers; each **directed** edge
carries the interface IP of its head router (``ingress_ip`` — what
traceroute reports), a base one-way delay, a routing weight, and a base
loss probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.asmap import AsMapper

if TYPE_CHECKING:  # networkx loads when the routing graph is first read
    import networkx as nx

# ---------------------------------------------------------------------------
# Named entities from the paper's case studies.
# ---------------------------------------------------------------------------

#: (asn, name) of the tier-1 networks always present in the topology.
TIER1_ASES: Tuple[Tuple[int, str], ...] = (
    (3356, "Level3"),
    (3549, "Level3-GlobalCrossing"),
    (174, "Cogent"),
    (6939, "HurricaneElectric"),
)

#: (asn, name) of the IXPs (peering LANs own the ASN, like AMS-IX AS1200).
IXP_ASES: Tuple[Tuple[int, str], ...] = (
    (1200, "AMS-IX"),
    (6695, "DE-CIX"),
)

#: Anycast root services: (service name, asn, service IPv4, service IPv6).
ROOT_SERVICES: Tuple[Tuple[str, int, str, str], ...] = (
    ("K-root", 25152, "193.0.14.129", "2001:7fd::1"),
    ("F-root", 3557, "192.5.5.241", "2001:500:2f::f"),
    ("I-root", 29216, "192.36.148.17", "2001:7fe::53"),
)

#: Telekom Malaysia, the leaker of the §7.2 case study (a tier-2).
LEAKER_AS: Tuple[int, str] = (4788, "TelekomMalaysia")


@dataclass(frozen=True)
class AsInfo:
    """One autonomous system of the synthetic topology.

    Every AS is dual-stacked: it owns one IPv4 covering prefix and one
    IPv6 covering prefix (the paper monitors both address families).
    """

    asn: int
    name: str
    tier: int  # 1 = transit core, 2 = regional transit, 3 = stub
    prefix: str  # covering IPv4 prefix, e.g. "10.5.0.0"
    prefix_len: int
    prefix6: str = ""  # covering IPv6 prefix, e.g. "2001:db8:5::"
    prefix6_len: int = 48


@dataclass(frozen=True)
class RouterInfo:
    """One router: graph node id, owner AS and loopback addresses."""

    node: str
    asn: int
    loopback_ip: str
    responsive: bool = True
    loopback_ip6: str = ""


@dataclass(frozen=True)
class Probe:
    """An Atlas-like vantage point attached to a router (dual-stack)."""

    probe_id: int
    ip: str
    asn: int
    router: str
    ip6: str = ""


@dataclass(frozen=True)
class AnycastInstance:
    """One instance of an anycast service (e.g. K-root at AMS-IX)."""

    node: str
    location: str  # host AS name or IXP name
    host_asn: int


@dataclass(frozen=True)
class AnycastService:
    """An anycast service: one IP per family, many instances."""

    name: str
    asn: int
    service_ip: str
    instances: Tuple[AnycastInstance, ...]
    service_ip6: str = ""

    @property
    def virtual_node(self) -> str:
        """Virtual sink node used for anycast routing."""
        return f"anycast:{self.name}"


@dataclass(frozen=True)
class Anchor:
    """A unicast traceroute target (Atlas anchor equivalent)."""

    name: str
    ip: str
    node: str
    asn: int
    ip6: str = ""


@dataclass
class TopologyParams:
    """Size and behaviour knobs of the generated topology."""

    n_tier2: int = 8  # generated tier-2 ASes in addition to the leaker
    n_stub: int = 18
    routers_per_tier1: int = 4
    routers_per_tier2: int = 3
    routers_per_stub: int = 2
    n_probes: int = 30
    n_anchors: int = 6
    unresponsive_fraction: float = 0.05
    # Probability a stub AS buys a second tier-2 uplink.  Dual homing
    # spreads a stub's paths over two corridors, which dilutes per-link
    # probe diversity; case-study configurations lower it to concentrate
    # observation on fewer, better-covered links.
    stub_dual_home_prob: float = 0.5

    @classmethod
    def case_study(cls) -> "TopologyParams":
        """Configuration used by the §7 case-study replays and benches.

        Single-homed stubs concentrated on few tier-2s give every core
        link probe-diverse coverage (≥3 origin ASes), the regime the
        paper reaches with ~10,000 probes.
        """
        return cls(
            n_tier2=6, n_stub=24, n_probes=100, stub_dual_home_prob=0.0
        )
    # Delay ranges in milliseconds (one way).
    tier1_link_delay: Tuple[float, float] = (8.0, 35.0)
    tier2_uplink_delay: Tuple[float, float] = (4.0, 18.0)
    stub_uplink_delay: Tuple[float, float] = (2.0, 9.0)
    intra_as_delay: Tuple[float, float] = (0.3, 2.0)
    ixp_lan_delay: Tuple[float, float] = (0.2, 0.8)
    base_loss: float = 0.0005
    # Routing weight = delay * Uniform(1-jitter, 1+jitter), per direction:
    # the source of forward/return path asymmetry.
    weight_jitter: float = 0.35
    # Routing-weight penalty on IXP peering-LAN edges.  Physically the LAN
    # is sub-millisecond, but peering is not universal transit: without a
    # penalty every inter-tier-1 path would shortcut through the LANs and
    # the tier-1 mesh would carry (and congest) nothing.
    ixp_weight_penalty: float = 25.0


@dataclass
class Topology:
    """The generated synthetic Internet.

    ``nodes`` and ``edges`` are the builder's creation-order log of the
    routing graph; :attr:`graph` replays it into networkx on first read,
    so consumers of the prefix table alone never load the router.
    """

    nodes: Dict[str, dict]
    edges: Dict[Tuple[str, str], dict]
    ases: Dict[int, AsInfo]
    routers: Dict[str, RouterInfo]
    probes: List[Probe]
    services: Dict[str, AnycastService]
    anchors: List[Anchor]
    params: TopologyParams
    seed: int

    @cached_property
    def graph(self) -> nx.DiGraph:
        """The routing graph: the log replayed once, in creation order.

        Same insertion order as building it in place, hence the same
        adjacency iteration, routes and campaign bytes.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes.items())
        graph.add_edges_from(
            (u, v, data) for (u, v), data in self.edges.items()
        )
        return graph

    def as_mapper(self) -> AsMapper:
        """IP→AS mapper loaded with :meth:`prefix_table` (graph-free)."""
        return AsMapper(self.prefix_table())

    def prefix_table(self) -> List[Tuple[str, int, int]]:
        """(network, length, asn) rows for :class:`repro.net.AsMapper`.

        Contains both address families: the mapper is dual-stack.
        """
        rows = []
        for info in self.ases.values():
            rows.append((info.prefix, info.prefix_len, info.asn))
            if info.prefix6:
                rows.append((info.prefix6, info.prefix6_len, info.asn))
        for service in self.services.values():
            network = service.service_ip.rsplit(".", 1)[0] + ".0"
            rows.append((network, 24, service.asn))
            if service.service_ip6:
                head = service.service_ip6.rsplit("::", 1)[0]
                rows.append((f"{head}::", 48, service.asn))
        return rows

    def routers_of_as(self, asn: int) -> List[str]:
        return [r.node for r in self.routers.values() if r.asn == asn]

    def interface_map(self, af: int = 4) -> Dict[str, str]:
        """Ground-truth interface→router mapping for alias evaluation.

        Covers loopbacks and per-edge ingress interfaces; anycast service
        addresses are excluded (they intentionally alias *across*
        physical instances).
        """
        if af not in (4, 6):
            raise ValueError(f"af must be 4 or 6: {af}")
        service_ips = {
            ip
            for service in self.services.values()
            for ip in (service.service_ip, service.service_ip6)
        }
        mapping: Dict[str, str] = {}
        for info in self.routers.values():
            loopback = info.loopback_ip if af == 4 else info.loopback_ip6
            if loopback:
                mapping[loopback] = info.node
        attr = "ingress_ip" if af == 4 else "ingress_ip6"
        for _, v, data in self.graph.edges(data=True):
            ip = data.get(attr)
            if ip is None or ip in service_ips:
                continue
            if not self.graph.nodes[v].get("virtual"):
                mapping[ip] = v
        return mapping

    def edges_of_as(self, asn: int) -> List[Tuple[str, str]]:
        """Directed edges whose reported (ingress) IP belongs to *asn*."""
        result = []
        for u, v, data in self.graph.edges(data=True):
            if data.get("ingress_asn") == asn:
                result.append((u, v))
        return result

    def ixp_lan_edges(self, ixp_asn: int) -> List[Tuple[str, str]]:
        """Directed edges crossing the given IXP's peering LAN."""
        return self.edges_of_as(ixp_asn)

    def service_last_hop_edges(self, service_name: str) -> List[Tuple[str, str]]:
        """Directed edges whose ingress IP is the anycast service address."""
        service = self.services[service_name]
        return [
            (u, v)
            for u, v, data in self.graph.edges(data=True)
            if data.get("ingress_ip") == service.service_ip
        ]


class _AddressAllocator:
    """Sequential interface-address allocation inside one dual-stack prefix."""

    def __init__(self, base: str, base6: str) -> None:
        # base like "10.5" (for a /16) or "172.16.1" (for a /24);
        # base6 like "2001:db8:5" (for a /48).
        self._base = base
        self._base6 = base6
        self._counter = 0
        self._counter6 = 0

    def next_ip(self) -> str:
        self._counter += 1
        if self._base.count(".") == 1:  # /16-style base "a.b"
            high, low = divmod(self._counter, 250)
            if high > 250:
                raise RuntimeError(f"prefix {self._base} exhausted")
            return f"{self._base}.{high}.{low + 1}"
        # /24-style base "a.b.c"
        if self._counter > 250:
            raise RuntimeError(f"prefix {self._base} exhausted")
        return f"{self._base}.{self._counter}"

    def next_ip6(self) -> str:
        self._counter6 += 1
        return f"{self._base6}::{self._counter6:x}"


class TopologyBuilder:
    """Deterministic builder for the synthetic Internet."""

    def __init__(self, params: Optional[TopologyParams] = None, seed: int = 0):
        self.params = params or TopologyParams()
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._nodes: Dict[str, dict] = {}
        self._edges: Dict[Tuple[str, str], dict] = {}
        self._ases: Dict[int, AsInfo] = {}
        self._routers: Dict[str, RouterInfo] = {}
        self._allocators: Dict[int, _AddressAllocator] = {}
        self._as_index = 0

    # -- AS / router creation ----------------------------------------------

    def _add_as(self, asn: int, name: str, tier: int) -> AsInfo:
        self._as_index += 1
        if tier == 0:  # IXP peering LAN: small /24, and 2001:7f8::/48-style
            base = f"172.16.{self._as_index}"
            base6 = f"2001:7f8:{self._as_index:x}"
            info = AsInfo(
                asn, name, tier, f"{base}.0", 24, f"{base6}::", 48
            )
        else:
            base = f"10.{self._as_index}"
            base6 = f"2001:db8:{self._as_index:x}"
            info = AsInfo(
                asn, name, tier, f"{base}.0.0", 16, f"{base6}::", 48
            )
        self._ases[asn] = info
        self._allocators[asn] = _AddressAllocator(base, base6)
        return info

    def _add_router(self, asn: int, index: int, responsive: bool = True) -> str:
        node = f"as{asn}_r{index}"
        allocator = self._allocators[asn]
        self._routers[node] = RouterInfo(
            node,
            asn,
            allocator.next_ip(),
            responsive,
            loopback_ip6=allocator.next_ip6(),
        )
        self._nodes[node] = dict(asn=asn)
        return node

    def _delay(self, bounds: Tuple[float, float]) -> float:
        low, high = bounds
        return float(self._rng.uniform(low, high))

    def _weight(self, delay: float) -> float:
        jitter = self.params.weight_jitter
        return delay * float(self._rng.uniform(1.0 - jitter, 1.0 + jitter))

    def _link(
        self,
        u: str,
        v: str,
        delay_bounds: Tuple[float, float],
        ingress_asn_override: Optional[int] = None,
    ) -> None:
        """Create the two directed edges of a physical link u <-> v.

        Each direction gets its own ingress IP (interface of the head
        router), base delay and routing weight.  Slightly different
        per-direction delays and weights create the asymmetry the paper's
        differential RTT analysis must cope with.
        """
        base = self._delay(delay_bounds)
        for src, dst in ((u, v), (v, u)):
            if (src, dst) in self._edges:
                continue
            # The ingress IP belongs to the head router's AS, unless the
            # link crosses an IXP LAN (override), in which case the head
            # interface sits in the IXP prefix.
            owner_asn = (
                ingress_asn_override
                if ingress_asn_override is not None
                else self._routers[dst].asn
            )
            allocator = self._allocators[owner_asn]
            ingress_ip = allocator.next_ip()
            ingress_ip6 = allocator.next_ip6()
            one_way = base * float(self._rng.uniform(0.92, 1.08))
            weight = self._weight(one_way)
            if ingress_asn_override is not None:
                weight *= self.params.ixp_weight_penalty
            self._edges[src, dst] = dict(
                ingress_ip=ingress_ip,
                ingress_ip6=ingress_ip6,
                ingress_asn=owner_asn,
                base_delay_ms=one_way,
                weight=weight,
                loss=self.params.base_loss,
            )

    def _wire_intra_as(self, nodes: Sequence[str]) -> None:
        """Ring plus hub chords: connected, with some path diversity."""
        if len(nodes) == 1:
            return
        for a, b in zip(nodes, nodes[1:]):
            self._link(a, b, self.params.intra_as_delay)
        if len(nodes) > 2:
            self._link(nodes[-1], nodes[0], self.params.intra_as_delay)
        for extra in nodes[3::2]:
            self._link(nodes[0], extra, self.params.intra_as_delay)

    def _pick(self, nodes: Sequence[str]) -> str:
        return nodes[int(self._rng.integers(0, len(nodes)))]

    # -- build --------------------------------------------------------------

    def build(self) -> Topology:
        params = self.params
        rng = self._rng

        # Tier-1 core: named ASes, full mesh.
        tier1_nodes: Dict[int, List[str]] = {}
        for asn, name in TIER1_ASES:
            self._add_as(asn, name, tier=1)
            nodes = [
                self._add_router(
                    asn, i, responsive=rng.random() > params.unresponsive_fraction
                )
                for i in range(params.routers_per_tier1)
            ]
            self._wire_intra_as(nodes)
            tier1_nodes[asn] = nodes
        tier1_list = list(tier1_nodes)
        for i, a in enumerate(tier1_list):
            for b in tier1_list[i + 1 :]:
                self._link(
                    self._pick(tier1_nodes[a]),
                    self._pick(tier1_nodes[b]),
                    params.tier1_link_delay,
                )

        # Tier-2: the leaker plus generated regional transits, each
        # multi-homed to two tier-1 providers.
        tier2_nodes: Dict[int, List[str]] = {}
        tier2_asns = [LEAKER_AS[0]]
        self._add_as(*LEAKER_AS, tier=2)
        for index in range(params.n_tier2):
            asn = 65000 + index
            self._add_as(asn, f"Transit{index}", tier=2)
            tier2_asns.append(asn)
        for asn in tier2_asns:
            nodes = [
                self._add_router(
                    asn, i, responsive=rng.random() > params.unresponsive_fraction
                )
                for i in range(params.routers_per_tier2)
            ]
            self._wire_intra_as(nodes)
            tier2_nodes[asn] = nodes
            providers = rng.choice(tier1_list, size=2, replace=False)
            for provider in providers:
                self._link(
                    self._pick(nodes),
                    self._pick(tier1_nodes[int(provider)]),
                    params.tier2_uplink_delay,
                )

        # Stub ASes: single- or dual-homed to tier-2s; they host probes.
        stub_nodes: Dict[int, List[str]] = {}
        stub_asns = []
        tier2_list = list(tier2_nodes)
        for index in range(params.n_stub):
            asn = 64600 + index
            self._add_as(asn, f"Stub{index}", tier=3)
            stub_asns.append(asn)
            nodes = [
                self._add_router(asn, i)
                for i in range(params.routers_per_stub)
            ]
            self._wire_intra_as(nodes)
            stub_nodes[asn] = nodes
            n_uplinks = 1 + int(rng.random() < params.stub_dual_home_prob)
            providers = rng.choice(tier2_list, size=n_uplinks, replace=False)
            for provider in providers:
                self._link(
                    self._pick(nodes),
                    self._pick(tier2_nodes[int(provider)]),
                    params.stub_uplink_delay,
                )

        # IXPs: peering LANs interconnecting tier-1s and some tier-2s.
        ixp_members: Dict[int, List[str]] = {}
        for asn, name in IXP_ASES:
            self._add_as(asn, name, tier=0)
            members = [self._pick(tier1_nodes[t1]) for t1 in tier1_list]
            extra_t2 = rng.choice(tier2_list, size=2, replace=False)
            members += [self._pick(tier2_nodes[int(t2)]) for t2 in extra_t2]
            ixp_members[asn] = members
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    self._link(
                        a, b, params.ixp_lan_delay, ingress_asn_override=asn
                    )

        # Anycast root services: instances at IXPs and tier-2 hosts.
        services: Dict[str, AnycastService] = {}
        ixp_list = list(ixp_members)
        # Instances avoid the leaker AS (tier2_list[0]) so the route-leak
        # scenario does not accidentally shorten paths to a root server.
        service_hosts = {
            "K-root": [
                ("ixp", ixp_list[0]),
                ("ixp", ixp_list[1]),
                ("as", tier2_list[1 % len(tier2_list)]),
                ("as", tier2_list[2 % len(tier2_list)]),
            ],
            "F-root": [("ixp", ixp_list[0]), ("as", tier2_list[-1])],
            "I-root": [("ixp", ixp_list[1])],
        }
        for service_name, service_asn, service_ip, service_ip6 in ROOT_SERVICES:
            if service_asn not in self._ases:
                self._add_as(service_asn, service_name, tier=3)
            instances = []
            for kind, host in service_hosts[service_name]:
                instance_index = len(instances)
                node = self._add_router(service_asn, 100 + instance_index)
                if kind == "ixp":
                    # Connect the instance to every member of the LAN; the
                    # ingress interface of the instance carries the anycast
                    # service address, so last hops read (router, service).
                    for member in ixp_members[host]:
                        self._instance_link(
                            member, node, service_ip, service_ip6, host
                        )
                    location = self._ases[host].name
                    host_asn = host
                else:
                    border = self._pick(tier2_nodes[host])
                    self._instance_link(
                        border, node, service_ip, service_ip6, None
                    )
                    location = self._ases[host].name
                    host_asn = host
                instances.append(
                    AnycastInstance(node=node, location=location, host_asn=host_asn)
                )
            service = AnycastService(
                name=service_name,
                asn=service_asn,
                service_ip=service_ip,
                instances=tuple(instances),
                service_ip6=service_ip6,
            )
            services[service_name] = service
            # Virtual sink for anycast routing.
            sink = service.virtual_node
            self._nodes[sink] = dict(asn=service_asn, virtual=True)
            for instance in instances:
                self._edges[instance.node, sink] = dict(
                    ingress_ip=None,
                    ingress_ip6=None,
                    ingress_asn=service_asn,
                    base_delay_ms=0.0,
                    weight=1e-6,
                    loss=0.0,
                )

        # Probes: spread across stub ASes (round robin), plus a few in
        # tier-2s for extra AS diversity.
        probes: List[Probe] = []
        host_cycle = stub_asns + tier2_asns[1:3]
        for probe_id in range(params.n_probes):
            asn = host_cycle[probe_id % len(host_cycle)]
            nodes = stub_nodes.get(asn) or tier2_nodes[asn]
            router = nodes[probe_id % len(nodes)]
            allocator = self._allocators[asn]
            probes.append(
                Probe(
                    probe_id,
                    allocator.next_ip(),
                    asn,
                    router,
                    ip6=allocator.next_ip6(),
                )
            )

        # Anchors: unicast targets in stub and tier-2 ASes.
        anchors: List[Anchor] = []
        anchor_hosts = (stub_asns[::3] + tier2_list[1:])[: params.n_anchors]
        for index, asn in enumerate(anchor_hosts):
            nodes = stub_nodes.get(asn) or tier2_nodes[asn]
            # Attach to the AS's last router so an anchor never coincides
            # with the router a co-located probe sits on (probes fill the
            # list from the front) — real anchors are dedicated machines.
            node = nodes[-1]
            allocator = self._allocators[asn]
            anchors.append(
                Anchor(
                    f"anchor{index}",
                    allocator.next_ip(),
                    node,
                    asn,
                    ip6=allocator.next_ip6(),
                )
            )

        return Topology(
            nodes=self._nodes,
            edges=self._edges,
            ases=self._ases,
            routers=self._routers,
            probes=probes,
            services=services,
            anchors=anchors,
            params=params,
            seed=self.seed,
        )

    def _instance_link(
        self,
        upstream: str,
        instance: str,
        service_ip: str,
        service_ip6: str,
        ixp_asn: Optional[int],
    ) -> None:
        """Wire an anycast instance to an upstream router.

        The forward edge's ingress IPs are the anycast service addresses
        (the last hop of a traceroute to the service); the return edge
        uses normal interfaces of the upstream router.
        """
        params = self.params
        base = self._delay(params.ixp_lan_delay)
        instance_asn = self._routers[instance].asn
        self._edges[upstream, instance] = dict(
            ingress_ip=service_ip,
            ingress_ip6=service_ip6,
            ingress_asn=instance_asn,
            base_delay_ms=base,
            weight=self._weight(base),
            loss=params.base_loss,
        )
        owner = ixp_asn if ixp_asn is not None else self._routers[upstream].asn
        allocator = self._allocators[owner]
        # The exit edge carries a prohibitive routing weight: replies from
        # the instance still use it (every return path must), but no
        # transit path ever enters-and-exits a root server — servers
        # answer queries, they do not forward traffic.
        self._edges[instance, upstream] = dict(
            ingress_ip=allocator.next_ip(),
            ingress_ip6=allocator.next_ip6(),
            ingress_asn=owner,
            base_delay_ms=base * float(self._rng.uniform(0.92, 1.08)),
            weight=self._weight(base) + 1e9,
            loss=params.base_loss,
        )


def build_topology(
    params: Optional[TopologyParams] = None, seed: int = 0
) -> Topology:
    """Build the synthetic Internet with the given parameters and seed."""
    return TopologyBuilder(params, seed).build()
