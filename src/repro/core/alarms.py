"""Alarm record types emitted by the two detection methods.

A *delay-change alarm* (§4.2.3) names a link — an ordered pair of adjacent
IP addresses — whose hourly differential-RTT confidence interval stopped
overlapping its normal reference.  A *forwarding alarm* (§5.2) names a
router/destination pair whose forwarding pattern anti-correlates with its
reference, with per-next-hop responsibility scores.  A *detected event*
(§6) is a significant peak in one AS's aggregated severity series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.stats.wilson import WilsonInterval

#: An IP-level link: ordered pair (near IP, far IP) as seen in traceroutes.
Link = Tuple[str, str]

#: Sentinel next-hop key for lost packets / unresponsive routers (§5.1 "Z").
UNRESPONSIVE = "*"


@dataclass(frozen=True)
class DelayAlarm:
    """One anomalous differential-RTT observation for one link.

    ``deviation`` is Eq. 6's d(Δ) — always positive; ``direction`` carries
    the sign of the shift (+1 delay increase, -1 decrease).
    """

    timestamp: int
    link: Link
    observed: WilsonInterval
    reference: WilsonInterval
    deviation: float
    direction: int
    n_probes: int
    n_asns: int

    @property
    def median_shift_ms(self) -> float:
        """Absolute difference between the observed and reference medians
        (the labels on the Figure 12 graph edges)."""
        return abs(self.observed.median - self.reference.median)

    def involves(self, ip: str) -> bool:
        return ip in self.link


@dataclass(frozen=True)
class ForwardingAlarm:
    """One anomalous forwarding pattern for (router, destination).

    ``responsibilities`` maps next-hop IPs (or ``UNRESPONSIVE``) to Eq. 9
    scores: positive = newly observed hop, negative = devalued hop.
    """

    timestamp: int
    router_ip: str
    destination: str
    correlation: float
    responsibilities: Dict[str, float]
    pattern: Dict[str, float]
    reference: Dict[str, float]

    @property
    def devalued_hops(self) -> Dict[str, float]:
        """Next hops receiving abnormally few packets (score < 0)."""
        return {
            hop: score
            for hop, score in self.responsibilities.items()
            if score < 0
        }

    @property
    def new_hops(self) -> Dict[str, float]:
        """Next hops receiving abnormally many packets (score > 0)."""
        return {
            hop: score
            for hop, score in self.responsibilities.items()
            if score > 0
        }

    @property
    def packet_loss_suspected(self) -> bool:
        """True when the unresponsive bucket gained share — the §7.3
        signature of dropped (not rerouted) traffic."""
        return self.responsibilities.get(UNRESPONSIVE, 0.0) > 0


@dataclass(frozen=True)
class DetectedEvent:
    """One significant peak in an AS severity series (Eq. 10, §6)."""

    asn: int
    timestamp: int
    magnitude: float
    kind: str  # "delay" | "forwarding"
