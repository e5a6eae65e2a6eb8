"""Event scenarios replaying (and stressing beyond) the paper's case studies.

The paper validates its methods on three 2015 events.  Each scenario here
injects the same *signal type* into the simulated network:

* :class:`DdosScenario` (§7.1) — congestion (large delay shifts, mild
  loss) on the last-hop and upstream links of a subset of anycast root
  instances, over one or more attack windows.  Some instances are hit by
  both attacks, some by one, some spared — matching Figure 7.
* :class:`RouteLeakScenario` (§7.2) — traffic to a set of destinations is
  rerouted through a leaker AS (waypoint routing) while links inside the
  affected tier-1 carry heavy extra delay and packet loss, producing
  simultaneous delay *and* forwarding anomalies (Figures 9-12).
* :class:`IxpOutageScenario` (§7.3) — the IXP peering LAN blackholes all
  traffic: pure packet loss, **no** RTT samples, detectable only by the
  forwarding model (Figure 13).

Beyond the paper's three events, the quality bench adds scenarios the
case studies do not exercise:

* :class:`CatchmentShiftScenario` — an anycast catchment flip: probes
  served by one instance are silently redirected to another.  A pure
  forwarding signal (new paths reuse existing links, so differential
  RTTs barely move).
* :class:`BgpHijackScenario` — an interception hijack pulling traffic
  through a hijacker router, either for every probe (sub-prefix: more
  specific wins everywhere) or only for probes closer to the hijacker
  than to the victim (exact-prefix: propagation is distance-limited).
* :class:`DiurnalCongestionScenario` — a smooth sinusoidal congestion
  ramp instead of a step, stressing the EWMA reference: early ramp bins
  sit below the detection threshold, so time-to-detection grows and
  recall floors are documented looser.
* :class:`ProbeChurnScenario` — probes flap on and off the platform (a
  schedule perturbation, not a data-plane one).  It emits an *empty*
  label set, so every alarm it provokes scores as a false positive —
  the bench's false-alarm-resistance probe.
* :class:`ScenarioFuzzer` — a seeded generator composing random labeled
  scenarios (optionally on random topologies) into adversarial
  :class:`CompositeScenario` campaigns.

Every scenario emits a machine-readable
:class:`~repro.quality.labels.GroundTruth` via :meth:`Scenario.ground_truth`
— per-(link, bin) delay labels and per-(model-key, bin) forwarding
labels derived from the exact perturbations applied — which
:mod:`repro.quality.scoring` matches against pipeline alarms.  Reroute
labels are computed by *divergence analysis*: for each affected
(probe, target) pair the normal and rerouted node paths are compared,
and the last common router whose **visible** next hop changes (at the
reported-IP level, honouring unresponsive routers) owns the forwarding
model the detector should flag.

Scenarios expose a small time-dependent interface consumed by the
traceroute engine; :class:`CompositeScenario` layers several events on one
campaign (used for the Figure 5 magnitude distributions).  All scenario
randomness iterates **sorted** containers when pairing RNG draws with
edges/probes, so identically-seeded scenarios are identical across
processes regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.quality.labels import DelayLabel, ForwardingLabel, GroundTruth
from repro.simulation.routing import NoRouteError, RoutingEngine
from repro.simulation.topology import (
    IXP_ASES,
    Topology,
    TopologyParams,
    build_topology,
)

Edge = Tuple[str, str]
Window = Tuple[int, int]

#: Per-edge loss at or above this rate earns a forwarding ``loss`` label:
#: the upstream pattern's next-hop bucket visibly collapses into ``*``.
#: Milder loss (e.g. the DDoS scenario's 5%) shifts RTTs, not patterns.
LOSS_LABEL_FLOOR = 0.5


def _in_any_window(t: int, windows: Sequence[Window]) -> bool:
    return any(start <= t < end for start, end in windows)


class Scenario:
    """Neutral scenario: nothing ever happens.

    Subclasses override the queries they affect.  All methods must be
    cheap; the traceroute engine calls them for every traceroute.
    """

    name = "neutral"

    def active(self, t: int) -> bool:
        """Fast gate: False lets the engine skip all other queries."""
        return False

    def extra_delay_ms(self, u: str, v: str, t: int) -> float:
        """Additional one-way delay on directed edge (u, v) at time t."""
        return 0.0

    def extra_loss(self, u: str, v: str, t: int) -> float:
        """Additional loss probability on directed edge (u, v) at time t."""
        return 0.0

    @property
    def perturbed_edges(self) -> Set[Edge]:
        """Directed edges whose delay or loss this scenario may change:
        on any other edge :meth:`extra_delay_ms` and :meth:`extra_loss`
        are exactly 0.0 at any t, so the traceroute engine skips them."""
        return set()

    def waypoint(
        self, probe_id: int, target_name: str, t: int
    ) -> Optional[Tuple[str, ...]]:
        """Reroute: ordered router nodes traffic must transit, or None."""
        return None

    def probe_active(self, probe_id: int, t: int) -> bool:
        """Whether the probe is connected to the platform at time t.

        Consulted by :class:`~repro.simulation.platform.AtlasPlatform`
        for every scheduled job, independent of :meth:`active` (churn
        perturbs the measurement schedule, not the data plane).
        """
        return True

    def windows(self) -> List[Window]:
        """Event windows, for benchmarks/reporting."""
        return []

    def ground_truth(self) -> GroundTruth:
        """Expected-anomaly labels for this scenario (empty when neutral)."""
        return GroundTruth()


@dataclass
class LinkPerturbation:
    """Delay/loss perturbation applied to a set of directed edges."""

    edges: Set[Edge]
    delay_shift_ms: Dict[Edge, float]
    loss: Dict[Edge, float]


# -- ground-truth derivation helpers ---------------------------------------


def _edge_ip(topology: Optional[Topology], edge: Edge) -> str:
    """Ingress interface IP of a directed topology edge ("" if unknown)."""
    if topology is None:
        return ""
    graph = topology.graph
    if not graph.has_edge(*edge):
        return ""
    return graph[edge[0]][edge[1]].get("ingress_ip") or ""


def _perturbation_truth(
    topology: Optional[Topology],
    name: str,
    perturbation: LinkPerturbation,
    windows: Sequence[Window],
) -> GroundTruth:
    """Labels for a fixed link perturbation: one per (edge, window).

    Delay-shifted edges yield :class:`DelayLabel`\\ s; edges losing at
    least :data:`LOSS_LABEL_FLOOR` of their packets yield forwarding
    ``loss`` labels.  Without a topology the interface IP is left empty
    (labels remain usable for coverage property tests).
    """
    delay: List[DelayLabel] = []
    forwarding: List[ForwardingLabel] = []
    for start, end in windows:
        for edge in sorted(perturbation.edges):
            ip = _edge_ip(topology, edge)
            shift = perturbation.delay_shift_ms.get(edge, 0.0)
            if shift > 0.0:
                delay.append(
                    DelayLabel(
                        edge=edge,
                        ip=ip,
                        start=start,
                        end=end,
                        shift_ms=shift,
                        event=name,
                    )
                )
            if perturbation.loss.get(edge, 0.0) >= LOSS_LABEL_FLOOR:
                forwarding.append(
                    ForwardingLabel(
                        edge=edge,
                        ip=ip,
                        start=start,
                        end=end,
                        kind="loss",
                        event=name,
                    )
                )
    return GroundTruth(tuple(delay), tuple(forwarding))


def _divergence_index(normal: List[str], via: List[str]) -> Optional[int]:
    """First position where the two node paths differ (None if identical)."""
    n = min(len(normal), len(via))
    for i in range(n):
        if normal[i] != via[i]:
            return i
    if len(normal) != len(via):
        return n
    return None


def _reported_ip(topology: Topology, path: List[str], k: int) -> Optional[str]:
    """IP by which router ``path[k]`` is reported on this path (IPv4).

    Mirrors the traceroute engine: hop 0 answers from its loopback,
    later hops from the ingress interface of the edge they were entered
    by; unresponsive routers report nothing.
    """
    node = path[k]
    info = topology.routers.get(node)
    if info is None or not info.responsive:
        return None
    if k == 0:
        return info.loopback_ip
    return topology.graph[path[k - 1]][node].get("ingress_ip")


def _visible_next_hop(
    topology: Topology, path: List[str], k: int, dst_ip: str
) -> str:
    """Reported next-hop token composing router k's forwarding pattern."""
    nxt = path[k + 1]
    if k + 1 == len(path) - 1:
        return dst_ip  # the destination answers from the target address
    if not topology.routers[nxt].responsive:
        return "*"
    return topology.graph[path[k]][nxt].get("ingress_ip") or "*"


def _pattern_change_ip(
    topology: Topology, normal: List[str], via: List[str], dst_ip: str
) -> Optional[str]:
    """Router IP whose forwarding pattern visibly changes under a reroute.

    Walks back from the path-divergence point to the nearest responsive
    router and checks that its *reported* next hop actually differs
    between the two paths — unresponsive routers and ``*`` collisions
    can make a topological reroute invisible at the traceroute level, in
    which case no label is emitted (the detector cannot see it either).
    """
    i = _divergence_index(normal, via)
    if i is None or i == 0:
        return None
    for k in range(i - 1, -1, -1):
        if k >= len(normal) - 1 or k >= len(via) - 1:
            continue
        ip = _reported_ip(topology, normal, k)
        if ip is None:
            continue  # no pattern owned here; look one hop upstream
        near = _visible_next_hop(topology, normal, k, dst_ip)
        far = _visible_next_hop(topology, via, k, dst_ip)
        if near == far:
            return None  # change invisible at the reporting level
        return ip
    return None


def _reroute_labels(
    topology: Topology,
    cases: Iterable[Tuple[List[str], List[str], str]],
    window: Window,
    event: str,
) -> List[ForwardingLabel]:
    """Deduplicated reroute labels for (normal, via, dst_ip) path cases."""
    keys: Set[Tuple[str, str]] = set()
    for normal, via, dst_ip in cases:
        ip = _pattern_change_ip(topology, normal, via, dst_ip)
        if ip:
            keys.add((ip, dst_ip))
    start, end = window
    return [
        ForwardingLabel(
            ip=ip,
            destination=dst,
            start=start,
            end=end,
            kind="reroute",
            event=event,
        )
        for ip, dst in sorted(keys)
    ]


class WindowedLinkScenario(Scenario):
    """Base for scenarios that perturb fixed link sets in fixed windows.

    When constructed with a *topology*, :meth:`ground_truth` resolves
    each perturbed edge to its ingress interface IP so labels can be
    matched against alarms; without one, labels carry the edge only.
    """

    def __init__(
        self,
        name: str,
        perturbation: LinkPerturbation,
        windows: Sequence[Window],
        topology: Optional[Topology] = None,
    ) -> None:
        self.name = name
        self._perturbation = perturbation
        self._windows = list(windows)
        self._topology = topology
        self._truth: Optional[GroundTruth] = None

    def active(self, t: int) -> bool:
        return _in_any_window(t, self._windows)

    def extra_delay_ms(self, u: str, v: str, t: int) -> float:
        if not self.active(t):
            return 0.0
        return self._perturbation.delay_shift_ms.get((u, v), 0.0)

    def extra_loss(self, u: str, v: str, t: int) -> float:
        if not self.active(t):
            return 0.0
        return self._perturbation.loss.get((u, v), 0.0)

    def windows(self) -> List[Window]:
        return list(self._windows)

    @property
    def perturbed_edges(self) -> Set[Edge]:
        return set(self._perturbation.edges)

    def ground_truth(self) -> GroundTruth:
        """Per-(edge, window) delay and loss labels (computed lazily)."""
        if self._truth is None:
            self._truth = _perturbation_truth(
                self._topology, self.name, self._perturbation, self._windows
            )
        return self._truth


def _both_directions(edges: Iterable[Edge]) -> Set[Edge]:
    result: Set[Edge] = set()
    for u, v in edges:
        result.add((u, v))
        result.add((v, u))
    return result


class DdosScenario(WindowedLinkScenario):
    """DDoS against an anycast service (§7.1, K-root case study).

    Congests the last-hop edges of the *attacked* instances plus one ring
    of upstream edges.  Delay shifts are drawn per link from
    ``[min_shift, max_shift]``; a mild loss rate models saturated queues
    (root operators reported negligible loss at the servers themselves,
    but their upstreams dropped some packets).
    """

    def __init__(
        self,
        topology: Topology,
        service_name: str,
        attacked_instances: Sequence[str],
        windows: Sequence[Window],
        min_shift_ms: float = 8.0,
        max_shift_ms: float = 30.0,
        loss: float = 0.05,
        seed: int = 0,
    ) -> None:
        service = topology.services[service_name]
        known = {instance.node for instance in service.instances}
        unknown = set(attacked_instances) - known
        if unknown:
            raise ValueError(f"unknown instances: {sorted(unknown)}")
        rng = np.random.default_rng(seed)
        graph = topology.graph
        # Instance routers of *any* service must not enter the upstream
        # ring: at an IXP, instances of several roots share the peering
        # LAN and we would otherwise congest a spared instance's last hop.
        all_instances = {
            instance.node
            for svc in topology.services.values()
            for instance in svc.instances
        }
        edges: Set[Edge] = set()
        for instance_node in attacked_instances:
            # Last-hop edges into the attacked instance...
            for upstream in graph.predecessors(instance_node):
                if graph.nodes[upstream].get("virtual"):
                    continue
                edges |= _both_directions([(upstream, instance_node)])
                # ...and one ring of upstream edges feeding that router.
                for far in graph.predecessors(upstream):
                    if graph.nodes[far].get("virtual"):
                        continue
                    if far in all_instances:
                        continue
                    edges |= _both_directions([(far, upstream)])
        delay_shift = {}
        loss_map = {}
        # Sorted iteration: the per-edge uniform draws pair with edges
        # in a stable order, so campaigns are reproducible across
        # processes (set order follows the per-process string-hash seed).
        for u, v in sorted(edges):
            delay_shift[(u, v)] = float(rng.uniform(min_shift_ms, max_shift_ms))
            loss_map[(u, v)] = loss
        super().__init__(
            name=f"ddos:{service_name}",
            perturbation=LinkPerturbation(edges, delay_shift, loss_map),
            windows=windows,
            topology=topology,
        )
        self.service_name = service_name
        self.attacked_instances = list(attacked_instances)


class RouteLeakScenario(Scenario):
    """BGP route leak pulling traffic through a leaker AS (§7.2).

    During the leak window, traceroutes towards the *leaked targets* are
    attracted into the victim tier-1 at ``leak_entry`` (the border that
    accepted the leaked announcements — Level(3) Global Crossing in the
    2015 event) and forwarded on to ``leak_waypoint`` (a router of the
    leaker AS) before resuming towards the destination.  Simultaneously
    the ``congested_edges`` — by default the links around the entry
    router plus the entry→leaker corridor — suffer a large delay shift
    and packet loss, reproducing the Level(3) congestion of Figs. 9-12.

    The default loss (0.2 per edge) compounds along multi-edge paths
    through the victim: hops a few congested edges deep lose the
    majority of their packets — enough for the forwarding model to
    devalue the victim's next hops (Fig. 10) — while links near the
    edge of the congested region keep enough diverse RTT samples for
    the delay method to fire too (Fig. 11a).
    """

    def __init__(
        self,
        topology: Topology,
        leak_waypoint: str,
        leaked_targets: Sequence[str],
        window: Window,
        leak_entry: Optional[str] = None,
        congested_edges: Optional[Iterable[Edge]] = None,
        delay_shift_range_ms: Tuple[float, float] = (80.0, 250.0),
        loss: float = 0.2,
        seed: int = 0,
    ) -> None:
        if leak_waypoint not in topology.graph:
            raise ValueError(f"unknown waypoint node: {leak_waypoint}")
        if leak_entry is not None and leak_entry not in topology.graph:
            raise ValueError(f"unknown entry node: {leak_entry}")
        self.name = "route-leak"
        self.leak_waypoint = leak_waypoint
        self.leak_entry = leak_entry
        self.leaked_targets = set(leaked_targets)
        self._window = window
        if congested_edges is None:
            congested_edges = self._default_congested_edges(topology)
        rng = np.random.default_rng(seed)
        edges = _both_directions(congested_edges)
        # Sorted for cross-process reproducibility (see DdosScenario).
        self._delay_shift = {
            edge: float(rng.uniform(*delay_shift_range_ms))
            for edge in sorted(edges)
        }
        self._loss = {edge: loss for edge in edges}
        self._edges = edges
        self._topology = topology
        self._truth: Optional[GroundTruth] = None

    def _default_congested_edges(self, topology: Topology) -> List[Edge]:
        """Victim-AS links plus the corridor into the leaker.

        The 2015 event congested links *inside* both Level(3) ASes — even
        traffic not rerouted through Malaysia suffered (paper §7.2) — so
        the default congests every link whose reported interface belongs
        to the entry router's AS (and its sibling tier-1, Level(3)
        Communications, when the entry is Level(3) Global Crossing),
        plus the links feeding the leaker.
        """
        graph = topology.graph
        edges: List[Edge] = []
        victim_asns = set()
        if self.leak_entry is not None:
            entry_asn = graph.nodes[self.leak_entry].get("asn")
            if entry_asn is not None:
                victim_asns.add(entry_asn)
            if entry_asn == 3549:  # the 2015 pair of Level(3) ASes
                victim_asns.add(3356)
        for asn in victim_asns:
            edges.extend(topology.edges_of_as(asn))
        for neighbour in graph.predecessors(self.leak_waypoint):
            if not graph.nodes[neighbour].get("virtual"):
                edges.append((neighbour, self.leak_waypoint))
        if not edges:
            raise ValueError("no congested edges could be derived")
        return edges

    def active(self, t: int) -> bool:
        start, end = self._window
        return start <= t < end

    def extra_delay_ms(self, u: str, v: str, t: int) -> float:
        if not self.active(t):
            return 0.0
        return self._delay_shift.get((u, v), 0.0)

    def extra_loss(self, u: str, v: str, t: int) -> float:
        if not self.active(t):
            return 0.0
        return self._loss.get((u, v), 0.0)

    def waypoint(
        self, probe_id: int, target_name: str, t: int
    ) -> Optional[Tuple[str, ...]]:
        if self.active(t) and target_name in self.leaked_targets:
            if self.leak_entry is not None:
                return (self.leak_entry, self.leak_waypoint)
            return (self.leak_waypoint,)
        return None

    def windows(self) -> List[Window]:
        return [self._window]

    @property
    def perturbed_edges(self) -> Set[Edge]:
        return set(self._edges)

    def ground_truth(self) -> GroundTruth:
        """Congestion delay labels plus divergence-derived reroute labels."""
        if self._truth is None:
            self._truth = self._build_truth()
        return self._truth

    def _build_truth(self) -> GroundTruth:
        topology = self._topology
        start, end = self._window
        perturbation = LinkPerturbation(
            self._edges, self._delay_shift, self._loss
        )
        base = _perturbation_truth(
            topology, self.name, perturbation, [self._window]
        )
        routing = RoutingEngine(topology)
        if self.leak_entry is not None:
            waypoints = [self.leak_entry, self.leak_waypoint]
        else:
            waypoints = [self.leak_waypoint]
        anchors = {a.name: a for a in topology.anchors}
        services = topology.services
        cases = []
        for name in sorted(self.leaked_targets):
            for probe in topology.probes:
                try:
                    if name in anchors:
                        anchor = anchors[name]
                        normal = routing.forward_path(probe.router, anchor.node)
                        via = routing.forward_path_via(
                            probe.router, waypoints, anchor.node
                        )
                        cases.append((normal, via, anchor.ip))
                    elif name in services:
                        svc = services[name]
                        normal = routing.forward_path_to_service(
                            probe.router, svc
                        )
                        via = routing.forward_path_via_to_service(
                            probe.router, waypoints, svc
                        )
                        cases.append((normal, via, svc.service_ip))
                except NoRouteError:
                    continue
        reroutes = _reroute_labels(topology, cases, self._window, self.name)
        return GroundTruth(
            base.delay, tuple(list(base.forwarding) + reroutes)
        )


class IxpOutageScenario(WindowedLinkScenario):
    """IXP peering-LAN blackhole (§7.3, AMS-IX case study).

    Every directed edge whose ingress interface sits in the IXP prefix
    drops all packets during the outage window: hops behind the LAN stop
    responding entirely, so the delay method starves while the forwarding
    model sees the LAN next hops vanish (negative responsibility).
    """

    def __init__(
        self, topology: Topology, ixp_asn: int, window: Window
    ) -> None:
        lan_edges = set(topology.ixp_lan_edges(ixp_asn))
        if not lan_edges:
            raise ValueError(f"AS{ixp_asn} has no peering-LAN edges")
        super().__init__(
            name=f"ixp-outage:AS{ixp_asn}",
            perturbation=LinkPerturbation(
                edges=lan_edges,
                delay_shift_ms={},
                loss={edge: 1.0 for edge in lan_edges},
            ),
            windows=[window],
            topology=topology,
        )
        self.ixp_asn = ixp_asn


class CatchmentShiftScenario(Scenario):
    """Anycast catchment flip: one instance's probes land on another.

    Models a routing-policy change (or withdrawal-and-reannounce) that
    silently moves the catchment of ``from_instance`` to
    ``to_instance`` during the window — the failure mode anycast
    operators fear because users see latency change with no outage.  The
    data plane is untouched: affected probes are simply waypointed
    through an upstream of the destination instance, so the signal is
    purely a forwarding-pattern change at each probe's path-divergence
    router (no delay labels).
    """

    def __init__(
        self,
        topology: Topology,
        service_name: str,
        from_instance: str,
        to_instance: str,
        window: Window,
        probe_ids: Optional[Sequence[int]] = None,
    ) -> None:
        if service_name not in topology.services:
            raise ValueError(f"unknown service: {service_name}")
        service = topology.services[service_name]
        known = {instance.node for instance in service.instances}
        for node in (from_instance, to_instance):
            if node not in known:
                raise ValueError(f"unknown instance: {node}")
        if from_instance == to_instance:
            raise ValueError("from_instance and to_instance must differ")
        graph = topology.graph
        entries = sorted(
            node
            for node in graph.predecessors(to_instance)
            if not graph.nodes[node].get("virtual")
        )
        if not entries:
            raise ValueError(f"{to_instance} has no physical upstream")
        self.name = f"catchment:{service_name}"
        self.service_name = service_name
        self.from_instance = from_instance
        self.to_instance = to_instance
        self._window = window
        self._via = (entries[0],)
        self._topology = topology
        self._routing = RoutingEngine(topology)
        probes = topology.probes
        if probe_ids is not None:
            wanted = set(probe_ids)
            probes = [p for p in probes if p.probe_id in wanted]
        self.shifted_probes = {
            probe.probe_id
            for probe in probes
            if self._routing.instance_for(probe.router, service)
            == from_instance
        }
        self._truth: Optional[GroundTruth] = None

    @classmethod
    def largest_shift(
        cls,
        topology: Topology,
        service_name: str,
        window: Window,
        probe_ids: Optional[Sequence[int]] = None,
    ) -> "CatchmentShiftScenario":
        """Shift the most-populated catchment onto the least-populated one.

        Convenience constructor for benches and the CLI: picks the
        (from, to) instance pair maximising affected probes.
        """
        service = topology.services[service_name]
        routing = RoutingEngine(topology)
        probes = topology.probes
        if probe_ids is not None:
            wanted = set(probe_ids)
            probes = [p for p in probes if p.probe_id in wanted]
        counts = {instance.node: 0 for instance in service.instances}
        for probe in probes:
            counts[routing.instance_for(probe.router, service)] += 1
        ranked = sorted(counts, key=lambda node: (counts[node], node))
        return cls(
            topology,
            service_name,
            from_instance=ranked[-1],
            to_instance=ranked[0],
            window=window,
            probe_ids=probe_ids,
        )

    def active(self, t: int) -> bool:
        start, end = self._window
        return start <= t < end

    def waypoint(
        self, probe_id: int, target_name: str, t: int
    ) -> Optional[Tuple[str, ...]]:
        if (
            self.active(t)
            and target_name == self.service_name
            and probe_id in self.shifted_probes
        ):
            return self._via
        return None

    def windows(self) -> List[Window]:
        return [self._window]

    def ground_truth(self) -> GroundTruth:
        """Divergence-derived reroute labels for every shifted probe."""
        if self._truth is None:
            topology = self._topology
            service = topology.services[self.service_name]
            cases = []
            for probe in topology.probes:
                if probe.probe_id not in self.shifted_probes:
                    continue
                try:
                    normal = self._routing.forward_path_to_service(
                        probe.router, service
                    )
                    via = self._routing.forward_path_via_to_service(
                        probe.router, list(self._via), service
                    )
                except NoRouteError:
                    continue
                cases.append((normal, via, service.service_ip))
            self._truth = GroundTruth(
                forwarding=tuple(
                    _reroute_labels(
                        topology, cases, self._window, self.name
                    )
                )
            )
        return self._truth


class BgpHijackScenario(Scenario):
    """Interception hijack: traffic to victim anchors transits a hijacker.

    ``mode="subprefix"`` announces a more-specific prefix, which wins
    everywhere: every probe's traffic to the targets detours through the
    ``hijacker`` router.  ``mode="exact"`` announces the same prefix, so
    BGP's shortest-path preference limits the blast radius: only probes
    whose routing distance to the hijacker is smaller than to the victim
    are captured.  Traffic still reaches the destination (an
    interception, not a blackhole), so the only signal is the forwarding
    pattern flip at each captured probe's divergence router.
    """

    def __init__(
        self,
        topology: Topology,
        hijacker: str,
        target_names: Sequence[str],
        window: Window,
        mode: str = "subprefix",
        probe_ids: Optional[Sequence[int]] = None,
    ) -> None:
        if hijacker not in topology.routers:
            raise ValueError(f"unknown hijacker router: {hijacker}")
        if mode not in ("subprefix", "exact"):
            raise ValueError(f"mode must be subprefix or exact: {mode}")
        anchors = {a.name: a for a in topology.anchors}
        unknown = set(target_names) - set(anchors)
        if unknown:
            raise ValueError(f"unknown anchors: {sorted(unknown)}")
        if not target_names:
            raise ValueError("hijack needs at least one target")
        self.name = f"hijack-{mode}"
        self.hijacker = hijacker
        self.mode = mode
        self._window = window
        self._topology = topology
        self._targets = {name: anchors[name] for name in sorted(target_names)}
        probes = topology.probes
        if probe_ids is not None:
            wanted = set(probe_ids)
            probes = [p for p in probes if p.probe_id in wanted]
        self._probes = list(probes)
        graph = topology.graph
        if mode == "subprefix":
            everyone = {p.probe_id for p in probes}
            self.captured = {name: set(everyone) for name in self._targets}
        else:
            import networkx as nx

            reversed_graph = graph.reverse(copy=False)
            to_hijacker = nx.single_source_dijkstra_path_length(
                reversed_graph, hijacker, weight="weight"
            )
            self.captured = {}
            for name, anchor in self._targets.items():
                to_victim = nx.single_source_dijkstra_path_length(
                    reversed_graph, anchor.node, weight="weight"
                )
                self.captured[name] = {
                    p.probe_id
                    for p in probes
                    if to_hijacker.get(p.router, math.inf)
                    < to_victim.get(p.router, math.inf)
                }
        self._truth: Optional[GroundTruth] = None

    def active(self, t: int) -> bool:
        start, end = self._window
        return start <= t < end

    def waypoint(
        self, probe_id: int, target_name: str, t: int
    ) -> Optional[Tuple[str, ...]]:
        if not self.active(t):
            return None
        captured = self.captured.get(target_name)
        if captured is not None and probe_id in captured:
            return (self.hijacker,)
        return None

    def windows(self) -> List[Window]:
        return [self._window]

    def ground_truth(self) -> GroundTruth:
        """Reroute labels at the divergence router of each captured path."""
        if self._truth is None:
            topology = self._topology
            routing = RoutingEngine(topology)
            cases = []
            for name, anchor in self._targets.items():
                captured = self.captured[name]
                for probe in self._probes:
                    if probe.probe_id not in captured:
                        continue
                    try:
                        normal = routing.forward_path(
                            probe.router, anchor.node
                        )
                        via = routing.forward_path_via(
                            probe.router, [self.hijacker], anchor.node
                        )
                    except NoRouteError:
                        continue
                    cases.append((normal, via, anchor.ip))
            self._truth = GroundTruth(
                forwarding=tuple(
                    _reroute_labels(topology, cases, self._window, self.name)
                )
            )
        return self._truth


class DiurnalCongestionScenario(Scenario):
    """Gradual diurnal congestion ramp — stresses the EWMA, not a step.

    Extra delay on the target edges follows a raised-sine profile inside
    each window: zero at the window edges, the per-edge peak at the
    midpoint.  Early ramp bins sit below the confidence-interval
    separation the detector requires, so detection lags the window start
    — the quality bench documents looser recall floors and a non-zero
    time-to-detection for this scenario, unlike the step events.

    Labels cover the *full* window for every ramped edge (the
    perturbation is genuinely applied there, however small), which is
    exactly why the documented floors are looser.
    """

    def __init__(
        self,
        topology: Topology,
        windows: Sequence[Window],
        asn: int = 174,
        edges: Optional[Iterable[Edge]] = None,
        peak_shift_range_ms: Tuple[float, float] = (15.0, 40.0),
        seed: int = 0,
    ) -> None:
        if edges is None:
            edges = topology.edges_of_as(asn)
        edge_set = set(edges)
        if not edge_set:
            raise ValueError(f"no edges to ramp (AS{asn})")
        for start, end in windows:
            if end <= start:
                raise ValueError(f"bad window: {(start, end)}")
        rng = np.random.default_rng(seed)
        # Sorted for cross-process reproducibility (see DdosScenario).
        self._peaks = {
            edge: float(rng.uniform(*peak_shift_range_ms))
            for edge in sorted(edge_set)
        }
        self.name = f"diurnal:AS{asn}"
        self._windows = list(windows)
        self._topology = topology
        self._truth: Optional[GroundTruth] = None

    def active(self, t: int) -> bool:
        return _in_any_window(t, self._windows)

    def _shape(self, t: int) -> float:
        """Raised-sine ramp factor in [0, 1] (0 outside all windows)."""
        for start, end in self._windows:
            if start <= t < end:
                phase = (t - start) / (end - start)
                return math.sin(math.pi * phase) ** 2
        return 0.0

    def extra_delay_ms(self, u: str, v: str, t: int) -> float:
        peak = self._peaks.get((u, v))
        if peak is None:
            return 0.0
        return peak * self._shape(t)

    def windows(self) -> List[Window]:
        return list(self._windows)

    @property
    def perturbed_edges(self) -> Set[Edge]:
        """Directed edges carrying the congestion ramp."""
        return set(self._peaks)

    def peak_shift_ms(self, edge: Edge) -> float:
        """Peak (mid-window) delay shift applied to *edge*."""
        return self._peaks.get(edge, 0.0)

    def ground_truth(self) -> GroundTruth:
        """Full-window delay labels at each ramped edge's peak magnitude."""
        if self._truth is None:
            perturbation = LinkPerturbation(
                edges=set(self._peaks), delay_shift_ms=dict(self._peaks), loss={}
            )
            self._truth = _perturbation_truth(
                self._topology, self.name, perturbation, self._windows
            )
        return self._truth


class ProbeChurnScenario(Scenario):
    """Probes flap on and off the platform during the windows.

    A measurement-schedule perturbation: affected probes periodically
    disconnect (their scheduled traceroutes never run), as Atlas probes
    do behind flaky home connections.  No link or path is touched, so
    the ground truth is **empty** — every alarm raised during a churn
    campaign is a false positive, making this the bench's
    false-alarm-resistance scenario (the paper's methods are explicitly
    designed to survive probe arrival/departure, §4.1).
    """

    def __init__(
        self,
        topology: Topology,
        windows: Sequence[Window],
        fraction: float = 0.25,
        period_s: int = 1800,
        down_time_s: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1]: {fraction}")
        if period_s <= 0:
            raise ValueError(f"period_s must be positive: {period_s}")
        down = period_s // 2 if down_time_s is None else down_time_s
        if not 0 < down <= period_s:
            raise ValueError(f"down_time_s must be in (0, period]: {down}")
        self.name = "probe-churn"
        self._windows = list(windows)
        self._period = period_s
        self._down = down
        rng = np.random.default_rng(seed)
        # Sorted ids, then rng.choice: deterministic across processes.
        probe_ids = np.asarray(
            sorted(p.probe_id for p in topology.probes), dtype=np.int64
        )
        n_churned = max(1, int(round(fraction * len(probe_ids))))
        chosen = rng.choice(probe_ids, size=n_churned, replace=False)
        self._phases = {
            int(pid): int(rng.integers(0, period_s)) for pid in chosen.tolist()
        }

    @property
    def churned_probes(self) -> Set[int]:
        """Probe ids subject to flapping."""
        return set(self._phases)

    def probe_active(self, probe_id: int, t: int) -> bool:
        """False while an affected probe is in the down part of its cycle."""
        if not _in_any_window(t, self._windows):
            return True
        phase = self._phases.get(probe_id)
        if phase is None:
            return True
        return (t + phase) % self._period >= self._down

    def windows(self) -> List[Window]:
        return list(self._windows)


class CompositeScenario(Scenario):
    """Several scenarios layered on one campaign.

    Delay shifts add; losses combine as independent drop processes; the
    first member claiming a waypoint wins (route leaks rarely overlap);
    a probe is active only when every member agrees.  Ground truth is
    the merged label set of the members, with duplicate event names
    disambiguated.
    """

    def __init__(self, scenarios: Sequence[Scenario]) -> None:
        self.name = "+".join(s.name for s in scenarios) or "neutral"
        self._scenarios = list(scenarios)
        self._perturbed = set().union(*(s.perturbed_edges for s in scenarios))
        self._truth: Optional[GroundTruth] = None

    @property
    def members(self) -> List[Scenario]:
        """The layered member scenarios, in precedence order."""
        return list(self._scenarios)

    def active(self, t: int) -> bool:
        return any(s.active(t) for s in self._scenarios)

    def extra_delay_ms(self, u: str, v: str, t: int) -> float:
        return sum(s.extra_delay_ms(u, v, t) for s in self._scenarios)

    def extra_loss(self, u: str, v: str, t: int) -> float:
        survival = 1.0
        for scenario in self._scenarios:
            survival *= 1.0 - min(1.0, scenario.extra_loss(u, v, t))
        return 1.0 - survival

    @property
    def perturbed_edges(self) -> Set[Edge]:
        """Union of the members' perturbed edges."""
        return set(self._perturbed)

    def waypoint(
        self, probe_id: int, target_name: str, t: int
    ) -> Optional[Tuple[str, ...]]:
        for scenario in self._scenarios:
            via = scenario.waypoint(probe_id, target_name, t)
            if via is not None:
                return via
        return None

    def probe_active(self, probe_id: int, t: int) -> bool:
        return all(s.probe_active(probe_id, t) for s in self._scenarios)

    def windows(self) -> List[Window]:
        merged: List[Window] = []
        for scenario in self._scenarios:
            merged.extend(scenario.windows())
        return sorted(merged)

    def ground_truth(self) -> GroundTruth:
        """Union of the members' labels (duplicate events suffixed)."""
        if self._truth is None:
            self._truth = GroundTruth.merged(
                [s.ground_truth() for s in self._scenarios]
            )
        return self._truth


class ScenarioFuzzer:
    """Seeded generator of random labeled scenarios on a topology.

    Samples scenario *families* with randomized parameters and windows,
    composing them into adversarial :class:`CompositeScenario`
    campaigns whose merged ground truth stays exact — the quality bench
    and property tests use it to cover parameter space no hand-written
    case study reaches.  All draws come from one
    ``numpy.random.default_rng(seed)`` over sorted candidate lists, so
    equal seeds produce identical scenarios in any process.
    """

    #: Scenario families the fuzzer can draw from.
    FAMILIES: Tuple[str, ...] = (
        "ddos",
        "route-leak",
        "ixp-outage",
        "catchment-shift",
        "bgp-hijack",
        "diurnal",
        "probe-churn",
    )

    def __init__(
        self,
        topology: Topology,
        horizon_s: Window = (4 * 3600, 22 * 3600),
        seed: int = 0,
        families: Optional[Sequence[str]] = None,
    ) -> None:
        chosen = tuple(families) if families is not None else self.FAMILIES
        unknown = set(chosen) - set(self.FAMILIES)
        if unknown:
            raise ValueError(f"unknown families: {sorted(unknown)}")
        if not chosen:
            raise ValueError("need at least one family")
        if horizon_s[1] - horizon_s[0] < 3600:
            raise ValueError(f"horizon too short: {horizon_s}")
        self.topology = topology
        self.horizon_s = horizon_s
        self.families = chosen
        self._rng = np.random.default_rng(seed)

    @classmethod
    def on_random_topology(
        cls, seed: int = 0, **kwargs
    ) -> "ScenarioFuzzer":
        """Build a fuzzer over a randomly-sized generated topology."""
        rng = np.random.default_rng(seed ^ 0x70B0)
        params = TopologyParams(
            n_tier2=int(rng.integers(4, 8)),
            n_stub=int(rng.integers(8, 20)),
            n_probes=int(rng.integers(20, 60)),
            stub_dual_home_prob=float(rng.uniform(0.0, 0.5)),
        )
        topology = build_topology(
            params, seed=int(rng.integers(0, 2**31 - 1))
        )
        return cls(topology, seed=int(rng.integers(0, 2**31 - 1)), **kwargs)

    # -- sampling ----------------------------------------------------------

    def _choice(self, candidates: Sequence) -> object:
        """Uniform draw from an (already deterministic) ordered sequence."""
        return candidates[int(self._rng.integers(0, len(candidates)))]

    def _sample_window(self) -> Window:
        rng = self._rng
        h0, h1 = self.horizon_s
        duration = int(rng.integers(1, 4)) * 3600
        latest = max(h0, h1 - duration)
        slots = (latest - h0) // 600 + 1
        start = h0 + int(rng.integers(0, slots)) * 600
        return (start, start + duration)

    def sample_member(self, family: Optional[str] = None) -> Scenario:
        """Sample one randomized scenario (random family unless given)."""
        rng = self._rng
        if family is None:
            family = str(self._choice(self.families))
        topology = self.topology
        window = self._sample_window()
        seed = int(rng.integers(0, 2**31 - 1))
        if family == "ddos":
            service_name = str(self._choice(sorted(topology.services)))
            nodes = sorted(
                i.node for i in topology.services[service_name].instances
            )
            count = int(rng.integers(1, len(nodes) + 1))
            attacked = [
                str(node)
                for node in rng.choice(
                    np.asarray(nodes, dtype=object), size=count, replace=False
                )
            ]
            return DdosScenario(
                topology, service_name, attacked, windows=[window], seed=seed
            )
        if family == "route-leak":
            waypoint = str(self._choice(sorted(topology.routers)))
            anchor_names = sorted(a.name for a in topology.anchors)
            count = int(rng.integers(1, min(3, len(anchor_names)) + 1))
            leaked = {
                str(name)
                for name in rng.choice(
                    np.asarray(anchor_names, dtype=object),
                    size=count,
                    replace=False,
                )
            }
            return RouteLeakScenario(
                topology,
                leak_waypoint=waypoint,
                leaked_targets=leaked,
                window=window,
                seed=seed,
            )
        if family == "ixp-outage":
            candidates = [
                asn for asn, _ in IXP_ASES if topology.ixp_lan_edges(asn)
            ]
            return IxpOutageScenario(
                topology, ixp_asn=int(self._choice(candidates)), window=window
            )
        if family == "catchment-shift":
            service_name = str(self._choice(sorted(topology.services)))
            nodes = sorted(
                i.node for i in topology.services[service_name].instances
            )
            if len(nodes) < 2:
                return ProbeChurnScenario(
                    topology, windows=[window], seed=seed
                )
            src = str(self._choice(nodes))
            dst = str(self._choice([n for n in nodes if n != src]))
            return CatchmentShiftScenario(
                topology,
                service_name,
                from_instance=src,
                to_instance=dst,
                window=window,
            )
        if family == "bgp-hijack":
            hijacker = str(self._choice(sorted(topology.routers)))
            anchor_names = sorted(a.name for a in topology.anchors)
            count = int(rng.integers(1, min(2, len(anchor_names)) + 1))
            targets = [
                str(name)
                for name in rng.choice(
                    np.asarray(anchor_names, dtype=object),
                    size=count,
                    replace=False,
                )
            ]
            mode = str(self._choice(["subprefix", "exact"]))
            return BgpHijackScenario(
                topology, hijacker, targets, window=window, mode=mode
            )
        if family == "diurnal":
            candidates = sorted(
                asn
                for asn, info in topology.ases.items()
                if info.tier <= 2 and topology.edges_of_as(asn)
            )
            return DiurnalCongestionScenario(
                topology,
                windows=[window],
                asn=int(self._choice(candidates)),
                seed=seed,
            )
        # probe-churn
        return ProbeChurnScenario(
            topology,
            windows=[window],
            fraction=float(rng.uniform(0.1, 0.4)),
            period_s=int(self._choice([900, 1800, 3600])),
            seed=seed,
        )

    def sample(self, n_events: Optional[int] = None) -> CompositeScenario:
        """Compose a random campaign of ``n_events`` member scenarios."""
        if n_events is None:
            n_events = int(self._rng.integers(1, 4))
        if n_events < 1:
            raise ValueError(f"n_events must be >= 1: {n_events}")
        return CompositeScenario(
            [self.sample_member() for _ in range(n_events)]
        )
