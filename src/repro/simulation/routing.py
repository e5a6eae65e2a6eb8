"""Routing engine over the synthetic topology.

Forward and return paths are shortest paths over the **directed** routing
graph; because each direction of every physical link has its own weight
(jittered at build time), forward and return routes frequently differ —
recreating the route asymmetry the paper's differential-RTT method is
designed to survive (§3, Challenge 1; §4.1).

The engine also supports *waypoint* routing ("reach the destination via
this AS") which is how the route-leak scenario (§7.2) redirects traffic
through Telekom Malaysia.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.simulation.topology import AnycastService, Topology


class NoRouteError(RuntimeError):
    """Raised when the routing graph offers no path for a request."""


def _strip_loops(path: List[str]) -> List[str]:
    """Remove revisits: keep the segment between first and last visit.

    Forwarding loops do not persist in converged routing; collapsing them
    keeps concatenated waypoint legs realistic.
    """
    result: List[str] = []
    positions: Dict[str, int] = {}
    for node in path:
        if node in positions:
            del result[positions[node] + 1 :]
            # Rebuild the position index after truncation.
            positions = {n: i for i, n in enumerate(result)}
        else:
            result.append(node)
            positions[node] = len(result) - 1
    return result


class RoutingEngine:
    """Shortest-path routing with per-pair caching.

    All path queries return lists of router **nodes**; the traceroute
    engine maps node sequences to reported interface IPs using edge
    attributes.
    """

    def __init__(self, topology: Topology, weight: str = "weight") -> None:
        self.topology = topology
        self.graph = topology.graph
        self.weight = weight
        self._forward_cache: Dict[Tuple[str, str], List[str]] = {}
        self._return_cache: Dict[Tuple[str, str], List[str]] = {}

    def clear_cache(self) -> None:
        self._forward_cache.clear()
        self._return_cache.clear()

    # -- raw shortest paths --------------------------------------------------

    def _shortest(self, src: str, dst: str) -> List[str]:
        import networkx as nx  # loaded on first use, not with the package

        try:
            return nx.shortest_path(self.graph, src, dst, weight=self.weight)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise NoRouteError(f"no route {src} -> {dst}") from exc

    def forward_path(self, src: str, dst: str) -> List[str]:
        """Forward route between two router nodes (cached)."""
        key = (src, dst)
        if key not in self._forward_cache:
            self._forward_cache[key] = self._shortest(src, dst)
        return self._forward_cache[key]

    def forward_path_to_service(
        self, src: str, service: AnycastService
    ) -> List[str]:
        """Anycast route: shortest path to the nearest instance.

        Routing to the virtual sink node selects the catchment instance;
        the sink itself is stripped from the returned path.
        """
        path = self.forward_path(src, service.virtual_node)
        return path[:-1]

    def return_path(self, src: str, probe_router: str) -> List[str]:
        """Return route from a responding router back to the probe.

        Cached separately from forward paths because the hot loop asks
        for the same (hop, probe) pairs for every traceroute.
        """
        key = (src, probe_router)
        if key not in self._return_cache:
            self._return_cache[key] = self._shortest(src, probe_router)
        return self._return_cache[key]

    def forward_path_via(
        self, src: str, waypoints: Sequence[str], dst: str
    ) -> List[str]:
        """Forward route constrained through *waypoints*, in order.

        Models traffic attraction: the route-leak scenario sends packets
        through the leak acceptor (a Level(3) border) and then the leaker
        before resuming towards the destination.  Legs are concatenated;
        a waypoint already on the natural path degenerates gracefully.
        Revisited nodes are collapsed so the path stays loop-free at the
        reporting level.
        """
        if isinstance(waypoints, str):
            waypoints = [waypoints]
        legs = [src, *waypoints, dst]
        path: List[str] = [src]
        for leg_src, leg_dst in zip(legs, legs[1:]):
            path += self.forward_path(leg_src, leg_dst)[1:]
        return _strip_loops(path)

    def forward_path_via_to_service(
        self, src: str, waypoints: Sequence[str], service: AnycastService
    ) -> List[str]:
        """Waypoint-constrained anycast route."""
        if isinstance(waypoints, str):
            waypoints = [waypoints]
        last = waypoints[-1]
        first_legs = self.forward_path_via(src, waypoints[:-1], last)
        second = self.forward_path_to_service(last, service)
        return _strip_loops(first_legs + second[1:])

    # -- path metrics ---------------------------------------------------------

    def path_edges(self, path: List[str]) -> List[Tuple[str, str]]:
        """Directed edges traversed by a node path."""
        return list(zip(path, path[1:]))

    def path_base_delay_ms(self, path: List[str]) -> float:
        """Sum of one-way base delays along a node path."""
        graph = self.graph
        return sum(
            graph[u][v]["base_delay_ms"] for u, v in zip(path, path[1:])
        )

    def instance_for(self, src: str, service: AnycastService) -> str:
        """Which instance node the probe's catchment selects."""
        path = self.forward_path_to_service(src, service)
        return path[-1]
