"""Cross-method event correlation (paper §6, abstract: "aggregating
results from each method allows us to easily monitor a network and
correlate related reports of significant network disruptions, reducing
uninteresting alarms").

A *correlated event* groups magnitude peaks that plausibly describe one
disruption: same AS with both a delay peak and a forwarding trough in
overlapping hours (the route-leak signature), or multiple ASes peaking
simultaneously (the DDoS signature of Figure 8's wide component).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.alarms import DetectedEvent

if TYPE_CHECKING:
    from repro.reference.report import AlarmAggregator


@dataclass(frozen=True)
class CorrelatedEvent:
    """One disruption assembled from per-AS magnitude peaks."""

    start_timestamp: int
    end_timestamp: int
    asns: Tuple[int, ...]
    delay_events: Tuple[DetectedEvent, ...]
    forwarding_events: Tuple[DetectedEvent, ...]
    bin_s: int = 3600

    @property
    def both_methods(self) -> bool:
        """True when delay and forwarding evidence coincide (§7.2)."""
        return bool(self.delay_events) and bool(self.forwarding_events)

    @property
    def n_ases(self) -> int:
        return len(self.asns)

    @property
    def severity(self) -> float:
        """Largest absolute magnitude across the grouped peaks."""
        magnitudes = [
            abs(e.magnitude)
            for e in (*self.delay_events, *self.forwarding_events)
        ]
        return max(magnitudes) if magnitudes else 0.0

    @property
    def duration_bins(self) -> int:
        return (self.end_timestamp - self.start_timestamp) // self.bin_s + 1


def correlate_events(
    aggregator: AlarmAggregator,
    delay_threshold: float = 5.0,
    forwarding_threshold: float = 2.0,
    window_bins: Optional[int] = None,
    gap_bins: int = 1,
) -> List[CorrelatedEvent]:
    """Group magnitude peaks into correlated events.

    Peaks (from both methods, all ASes) are sorted by time and merged
    when separated by at most *gap_bins* bins — a disruption spanning
    several consecutive hours and several ASes becomes one event, the
    paper's antidote to alarm fatigue.  Events are returned most severe
    first.
    """
    if gap_bins < 0:
        raise ValueError(f"gap_bins must be >= 0: {gap_bins}")
    delay_events = aggregator.detect_events(
        "delay", delay_threshold, window_bins
    )
    forwarding_events = aggregator.detect_events(
        "forwarding", forwarding_threshold, window_bins
    )
    peaks: List[Tuple[int, str, DetectedEvent]] = [
        (e.timestamp, "delay", e) for e in delay_events
    ] + [(e.timestamp, "forwarding", e) for e in forwarding_events]
    if not peaks:
        return []
    peaks.sort(key=lambda item: item[0])
    bin_s = aggregator.bin_s

    groups: List[List[Tuple[int, str, DetectedEvent]]] = [[peaks[0]]]
    for peak in peaks[1:]:
        last_ts = groups[-1][-1][0]
        if peak[0] - last_ts <= gap_bins * bin_s:
            groups[-1].append(peak)
        else:
            groups.append([peak])

    events = []
    for group in groups:
        delay_part = tuple(e for _, kind, e in group if kind == "delay")
        forwarding_part = tuple(
            e for _, kind, e in group if kind == "forwarding"
        )
        asns = tuple(
            sorted({e.asn for _, _, e in group})
        )
        events.append(
            CorrelatedEvent(
                start_timestamp=group[0][0],
                end_timestamp=group[-1][0],
                asns=asns,
                delay_events=delay_part,
                forwarding_events=forwarding_part,
                bin_s=bin_s,
            )
        )
    events.sort(key=lambda e: -e.severity)
    return events
