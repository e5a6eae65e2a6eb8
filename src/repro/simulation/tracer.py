"""Paris-traceroute engine producing Atlas-schema results.

Given a probe, a target and a launch time, :class:`TracerouteEngine`
emits a :class:`~repro.atlas.model.Traceroute` identical in structure to
a RIPE Atlas result: one hop per TTL, three replies per hop, ``*``
timeouts for lost packets or unresponsive routers.

Round-trip times follow the paper's Figure 1 decomposition: the RTT to
hop *k* is the forward delay over edges 1..k **plus the delay of the
return path from hop k back to the probe**, which the routing engine
resolves independently per hop — so adjacent-hop differential RTTs
contain exactly the ε error terms of Equation 3.

Paris traceroute keeps flow identifiers stable, so within one
(probe, target) pair the forward path is deterministic; path changes come
only from scenario reroutes, as with real measurements under stable
routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.atlas.model import Hop, Reply, Traceroute
from repro.simulation.delays import DelaySampler, NoiseParams, combined_loss
from repro.simulation.routing import RoutingEngine
from repro.simulation.scenarios import Scenario
from repro.simulation.topology import AnycastService, Anchor, Probe, Topology


@dataclass(frozen=True)
class TargetSpec:
    """One traceroute target: an anycast service or a unicast anchor.

    ``af`` selects the address family of the measurement (4 or 6); the
    same physical target is reached over either plane, like dual-stack
    root servers and anchors on the real platform.
    """

    name: str
    dst_ip: str
    kind: str  # "anycast" | "anchor"
    node: Optional[str] = None  # anchor router node
    service: Optional[AnycastService] = None
    msm_id: int = 0
    af: int = 4

    @classmethod
    def for_service(
        cls, service: AnycastService, msm_id: int = 0, af: int = 4
    ) -> "TargetSpec":
        if af not in (4, 6):
            raise ValueError(f"af must be 4 or 6: {af}")
        dst_ip = service.service_ip if af == 4 else service.service_ip6
        return cls(
            name=service.name,
            dst_ip=dst_ip,
            kind="anycast",
            service=service,
            msm_id=msm_id,
            af=af,
        )

    @classmethod
    def for_anchor(
        cls, anchor: Anchor, msm_id: int = 0, af: int = 4
    ) -> "TargetSpec":
        if af not in (4, 6):
            raise ValueError(f"af must be 4 or 6: {af}")
        dst_ip = anchor.ip if af == 4 else anchor.ip6
        return cls(
            name=anchor.name,
            dst_ip=dst_ip,
            kind="anchor",
            node=anchor.node,
            msm_id=msm_id,
            af=af,
        )


@dataclass
class _HopPlan:
    """Static per-hop data of one forward path (cached)."""

    node: str
    reported_ip: Optional[str]  # None -> router never responds
    forward_edges: List[Tuple[str, str]]
    base_rtt_ms: float  # forward + return base delay
    base_loss: float  # forward + return combined base loss
    #: forward then return edges the scenario perturbs, in path order
    scenario_edges: Tuple[Tuple[str, str], ...]


@dataclass
class _PathPlan:
    """Cached plan for one (probe, target, waypoint) route."""

    hops: List[_HopPlan]

    def __post_init__(self) -> None:
        self.live = [hop for hop in self.hops if hop.reported_ip is not None]
        self.bases = [hop.base_rtt_ms for hop in self.live]
        self.losses = [hop.base_loss for hop in self.live]
        edges = (edge for hop in self.hops for edge in hop.scenario_edges)
        self.scenario_edges = tuple(dict.fromkeys(edges))


_LOST = Reply(ip=None, rtt_ms=None)  # immutable: shared by every hop


class TracerouteEngine:
    """Simulate Paris traceroutes over the synthetic topology."""

    def __init__(
        self,
        topology: Topology,
        scenario: Optional[Scenario] = None,
        noise: Optional[NoiseParams] = None,
        seed: int = 0,
        packets_per_hop: int = 3,
    ) -> None:
        if packets_per_hop < 1:
            raise ValueError(f"packets_per_hop must be >= 1: {packets_per_hop}")
        self.topology = topology
        self.scenario = scenario or Scenario()
        self.routing = RoutingEngine(topology)
        self.sampler = DelaySampler(noise, seed=seed)
        self.packets_per_hop = packets_per_hop
        self._all_lost = (_LOST,) * packets_per_hop
        self._perturbed = frozenset(self.scenario.perturbed_edges)
        self._plans: Dict[Tuple[int, str, Optional[str]], _PathPlan] = {}

    # -- plan construction ---------------------------------------------------

    def _node_path(
        self, probe: Probe, target: TargetSpec, waypoint: Optional[str]
    ) -> List[str]:
        if target.kind == "anycast":
            if waypoint is None:
                return self.routing.forward_path_to_service(
                    probe.router, target.service
                )
            return self.routing.forward_path_via_to_service(
                probe.router, waypoint, target.service
            )
        if waypoint is None:
            return self.routing.forward_path(probe.router, target.node)
        return self.routing.forward_path_via(probe.router, waypoint, target.node)

    def _build_plan(
        self, probe: Probe, target: TargetSpec, waypoint
    ) -> _PathPlan:
        graph = self.topology.graph
        routers = self.topology.routers
        ingress_attr = "ingress_ip" if target.af == 4 else "ingress_ip6"
        path = self._node_path(probe, target, waypoint)
        path_edges = self.routing.path_edges(path)
        hops: List[_HopPlan] = []
        forward_delay = 0.0
        forward_losses: List[float] = []
        for index, node in enumerate(path):
            if index > 0:
                data = graph[path[index - 1]][node]
                forward_delay += data["base_delay_ms"]
                forward_losses.append(data["loss"])
                reported = data[ingress_attr]
            else:
                info = routers[node]
                reported = (
                    info.loopback_ip if target.af == 4 else info.loopback_ip6
                )
            is_last = index == len(path) - 1
            if is_last:
                # The destination answers from the target address itself.
                reported = target.dst_ip
            if not routers[node].responsive and not is_last:
                reported = None
            forward_edges = path_edges[:index]
            return_path = self.routing.return_path(node, probe.router)
            return_edges = self.routing.path_edges(return_path)
            both = forward_edges + return_edges
            return_delay = self.routing.path_base_delay_ms(return_path)
            return_losses = [graph[u][v]["loss"] for u, v in return_edges]
            hops.append(
                _HopPlan(
                    node=node,
                    reported_ip=reported,
                    forward_edges=forward_edges,
                    base_rtt_ms=forward_delay + return_delay,
                    base_loss=combined_loss(forward_losses + return_losses),
                    scenario_edges=tuple(e for e in both if e in self._perturbed),
                )
            )
        return _PathPlan(hops=hops)

    def _plan_for(
        self, probe: Probe, target: TargetSpec, waypoint
    ) -> _PathPlan:
        key = (probe.probe_id, target.name, target.af, waypoint)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._build_plan(probe, target, waypoint)
            self._plans[key] = plan
        return plan

    # -- execution -------------------------------------------------------------

    def run(self, probe: Probe, target: TargetSpec, t: int) -> Traceroute:
        """Run one traceroute from *probe* to *target* at time *t*."""
        scenario = self.scenario
        scenario_active = scenario.active(t)
        waypoint = (
            scenario.waypoint(probe.probe_id, target.name, t)
            if scenario_active
            else None
        )
        plan = self._plan_for(probe, target, waypoint)
        bases, losses = plan.bases, plan.losses
        if scenario_active and plan.scenario_edges:
            # Only perturbed edges are queried, once each: any other edge
            # adds exactly 0.0 delay and loss.  Hops sum them in path order.
            extra = {
                e: (scenario.extra_delay_ms(*e, t), scenario.extra_loss(*e, t))
                for e in plan.scenario_edges
            }
            bases, losses = [], []
            for hop in plan.live:
                delay, loss = 0.0, [hop.base_loss]
                for shift, drop in map(extra.get, hop.scenario_edges):
                    delay += shift
                    if drop > 0.0:
                        loss.append(drop)
                bases.append(hop.base_rtt_ms + delay)
                losses.append(combined_loss(loss) if len(loss) > 1 else loss[0])
        alive, noise = self.sampler.hop_samples(losses, self.packets_per_hop)
        rtts = (np.array(bases)[:, None] + noise).round(3).tolist()
        samples = iter(zip(rtts, alive.tolist()))
        hops: List[Hop] = []
        for ttl, hop_plan in enumerate(plan.hops, start=1):
            ip = hop_plan.reported_ip
            replies = self._all_lost
            if ip is not None:
                hop_rtts, hop_alive = next(samples)
                replies = tuple([
                    Reply(ip, rtt) if ok else _LOST
                    for rtt, ok in zip(hop_rtts, hop_alive)
                ])
            hops.append(Hop(ttl, replies))
        return Traceroute(
            prb_id=probe.probe_id,
            src_addr=probe.ip if target.af == 4 else probe.ip6,
            dst_addr=target.dst_ip,
            timestamp=t,
            hops=tuple(hops),
            from_asn=probe.asn,
            msm_id=target.msm_id,
            af=target.af,
        )
