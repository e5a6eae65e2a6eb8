"""Alarm connectivity graphs (paper Figures 8 and 12).

The paper assesses an event's topological extent by building a graph
whose nodes are IP addresses and whose edges are the delay alarms of one
time bin, then extracting the connected component around an address of
interest (e.g. the K-root service IP).  Nodes also involved in
forwarding alarms are flagged (the red nodes of Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.alarms import UNRESPONSIVE, DelayAlarm, ForwardingAlarm

if TYPE_CHECKING:  # networkx loads on first use, not with ``import repro``
    import networkx as nx


def alarm_graph(
    delay_alarms: Iterable[DelayAlarm],
    forwarding_alarms: Iterable[ForwardingAlarm] = (),
) -> nx.Graph:
    """Build the IP-level alarm graph of one (or more) time bins.

    Edge attributes: ``deviation`` (Eq. 6), ``median_shift_ms`` (the
    Figure 12 edge labels) and ``direction``.  Node attribute
    ``in_forwarding_alarm`` marks addresses reported by the forwarding
    method (as reporting router or as anomalous next hop).
    """
    import networkx as nx

    graph = nx.Graph()
    for alarm in delay_alarms:
        near, far = alarm.link
        previous = graph.get_edge_data(near, far)
        if previous is None or alarm.deviation > previous["deviation"]:
            graph.add_edge(
                near,
                far,
                deviation=alarm.deviation,
                median_shift_ms=alarm.median_shift_ms,
                direction=alarm.direction,
            )
    flagged: Set[str] = set()
    for alarm in forwarding_alarms:
        flagged.add(alarm.router_ip)
        for hop_ip, responsibility in alarm.responsibilities.items():
            if hop_ip != UNRESPONSIVE and responsibility != 0.0:
                flagged.add(hop_ip)
    for node in graph.nodes:
        graph.nodes[node]["in_forwarding_alarm"] = node in flagged
    return graph


def component_of(graph: nx.Graph, ip: str) -> nx.Graph:
    """Connected component containing *ip* (empty graph if absent)."""
    import networkx as nx

    if ip not in graph:
        return nx.Graph()
    nodes = nx.node_connected_component(graph, ip)
    return graph.subgraph(nodes).copy()


@dataclass(frozen=True)
class ComponentSummary:
    """Size and composition of one alarm component (Figure 8 captions)."""

    n_nodes: int
    n_edges: int
    anycast_ips: Tuple[str, ...]
    max_median_shift_ms: float
    n_forwarding_flagged: int

    @property
    def is_empty(self) -> bool:
        return self.n_nodes == 0


def summarize_component(
    component: nx.Graph, anycast_ips: Iterable[str] = ()
) -> ComponentSummary:
    """Summary statistics of an alarm component."""
    anycast_present = tuple(
        ip for ip in anycast_ips if ip in component
    )
    shifts = [
        data.get("median_shift_ms", 0.0)
        for _, _, data in component.edges(data=True)
    ]
    flagged = sum(
        1
        for _, data in component.nodes(data=True)
        if data.get("in_forwarding_alarm")
    )
    return ComponentSummary(
        n_nodes=component.number_of_nodes(),
        n_edges=component.number_of_edges(),
        anycast_ips=anycast_present,
        max_median_shift_ms=max(shifts) if shifts else 0.0,
        n_forwarding_flagged=flagged,
    )


def components_by_size(graph: nx.Graph) -> List[nx.Graph]:
    """All connected components, largest first."""
    import networkx as nx

    return [
        graph.subgraph(nodes).copy()
        for nodes in sorted(nx.connected_components(graph), key=len, reverse=True)
    ]
