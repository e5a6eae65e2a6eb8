"""Internet-Health-Report-style query API (paper §8).

The authors expose their results through the IHR website and API so that
operators can monitor ASes they care about.  :class:`InternetHealthReport`
provides the equivalent offline: per-AS condition summaries, event lists,
link-level drill-down, and JSON export — all computed from a
:class:`~repro.core.pipeline.CampaignAnalysis`.  No command builds it:
``analyze`` and ``serve`` answer from
:class:`~repro.service.query.StoreQuery`, and this class is the oracle
they are tested against.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.alarms import DelayAlarm, ForwardingAlarm, Link
from repro.core.events import DetectedEvent

if TYPE_CHECKING:  # `serve` answers AsCondition/LinkHealth, no pipeline
    from repro.core.pipeline import CampaignAnalysis, CampaignStats


@dataclass(frozen=True)
class AsCondition:
    """One AS's health summary over the analyzed period.

    An AS the campaign never alarmed on — including every AS of an
    entirely alarm-free (or empty) campaign — yields the explicit
    healthy summary: zero counts, zero magnitudes, ``None`` hours.
    """

    asn: int
    delay_alarm_count: int
    forwarding_alarm_count: int
    peak_delay_magnitude: float
    peak_delay_hour: Optional[int]
    trough_forwarding_magnitude: float
    trough_forwarding_hour: Optional[int]

    @property
    def healthy(self) -> bool:
        """No pronounced magnitude excursions either way."""
        return (
            self.peak_delay_magnitude < 1.0
            and self.trough_forwarding_magnitude > -1.0
        )


@dataclass(frozen=True)
class LinkHealth:
    """Per-link delay-alarm drill-down for one AS (IHR link view)."""

    link: Link
    alarm_count: int
    peak_deviation: float
    total_deviation: float
    last_timestamp: int


class InternetHealthReport:
    """Query layer over a completed campaign analysis.

    Every ranking this report produces is deterministically ordered
    (severity, then ASN/timestamp/link tie-breaks) and every query is
    total: an empty or alarm-free campaign yields empty lists and
    healthy :class:`AsCondition` summaries, never an exception.  The
    on-disk serving layer (:mod:`repro.service`) answers the same
    queries bit-identically from its persistent store, with this class
    as the oracle.
    """

    def __init__(
        self,
        analysis: CampaignAnalysis,
        window_bins: Optional[int] = None,
    ) -> None:
        self.analysis = analysis
        self.window_bins = window_bins
        self._delay_magnitudes = analysis.aggregator.delay_magnitudes(
            window_bins
        )
        self._forwarding_magnitudes = (
            analysis.aggregator.forwarding_magnitudes(window_bins)
        )
        self._start = analysis.aggregator.start
        self._bin_s = analysis.aggregator.bin_s

    # -- per-AS queries -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the campaign raised no alarms of either kind."""
        return (
            not self.analysis.delay_alarms
            and not self.analysis.forwarding_alarms
        )

    def monitored_asns(self) -> List[int]:
        """Every AS with at least one alarm in either series."""
        return sorted(
            set(self._delay_magnitudes) | set(self._forwarding_magnitudes)
        )

    def _hour_of(self, index: int) -> int:
        return (index * self._bin_s) // 3600

    def as_condition(self, asn: int) -> AsCondition:
        """Summarise one AS (zeros if the AS never raised alarms)."""
        delay = self._delay_magnitudes.get(asn)
        forwarding = self._forwarding_magnitudes.get(asn)
        peak_value, peak_hour = 0.0, None
        if delay is not None and delay.size:
            index = int(np.argmax(delay))
            peak_value, peak_hour = float(delay[index]), self._hour_of(index)
        trough_value, trough_hour = 0.0, None
        if forwarding is not None and forwarding.size:
            index = int(np.argmin(forwarding))
            trough_value = float(forwarding[index])
            trough_hour = self._hour_of(index)
        delay_count = sum(
            1
            for alarm in self.analysis.delay_alarms
            if asn in self.analysis.aggregator.mapper.asns_of_link(*alarm.link)
        )
        forwarding_count = sum(
            1
            for alarm in self.analysis.forwarding_alarms
            if self.analysis.aggregator.mapper.asn_of(alarm.router_ip) == asn
        )
        return AsCondition(
            asn=asn,
            delay_alarm_count=delay_count,
            forwarding_alarm_count=forwarding_count,
            peak_delay_magnitude=peak_value,
            peak_delay_hour=peak_hour,
            trough_forwarding_magnitude=trough_value,
            trough_forwarding_hour=trough_hour,
        )

    def magnitude_series(
        self, asn: int, kind: str = "delay"
    ) -> Tuple[List[int], np.ndarray]:
        """(timestamps, magnitudes) for one AS; empty when unknown."""
        if kind == "delay":
            table = self._delay_magnitudes
            series_table = self.analysis.aggregator.delay_series
        elif kind == "forwarding":
            table = self._forwarding_magnitudes
            series_table = self.analysis.aggregator.forwarding_series
        else:
            raise ValueError(f"kind must be 'delay' or 'forwarding': {kind}")
        if asn not in table:
            return [], np.array([])
        return series_table[asn].timestamps(), table[asn]

    def links_of(self, asn: int) -> List[LinkHealth]:
        """Per-link drill-down: this AS's delay alarms grouped by link.

        Links are ordered most-alarmed first (ties: larger summed
        deviation, then lexicographic link) — fully deterministic.
        """
        counts: Dict[Link, int] = {}
        peaks: Dict[Link, float] = {}
        totals: Dict[Link, float] = {}
        last: Dict[Link, int] = {}
        mapper = self.analysis.aggregator.mapper
        for alarm in self.analysis.delay_alarms:
            if asn not in mapper.asns_of_link(*alarm.link):
                continue
            link = alarm.link
            counts[link] = counts.get(link, 0) + 1
            peaks[link] = max(peaks.get(link, 0.0), alarm.deviation)
            totals[link] = totals.get(link, 0.0) + alarm.deviation
            last[link] = max(last.get(link, alarm.timestamp), alarm.timestamp)
        summaries = [
            LinkHealth(
                link=link,
                alarm_count=counts[link],
                peak_deviation=peaks[link],
                total_deviation=totals[link],
                last_timestamp=last[link],
            )
            for link in counts
        ]
        summaries.sort(
            key=lambda s: (-s.alarm_count, -s.total_deviation, s.link)
        )
        return summaries

    def _magnitude_table(self, kind: str) -> Dict[int, np.ndarray]:
        """The per-AS magnitude dict for *kind* (validates the kind)."""
        if kind == "delay":
            return self._delay_magnitudes
        if kind == "forwarding":
            return self._forwarding_magnitudes
        raise ValueError(f"kind must be 'delay' or 'forwarding': {kind}")

    def top_asns(
        self, kind: str = "delay", k: int = 10
    ) -> List[Tuple[int, float]]:
        """The *k* most anomalous ASes: (ASN, peak signed magnitude).

        Ranked by |peak magnitude| descending, ties broken by ASN — the
        IHR front page's "worst offenders" list.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0: {k}")
        ranking: List[Tuple[int, float]] = []
        table = self._magnitude_table(kind)
        for asn in sorted(table):
            magnitudes = table[asn]
            if not magnitudes.size:
                continue
            index = int(np.argmax(np.abs(magnitudes)))
            ranking.append((asn, float(magnitudes[index])))
        ranking.sort(key=lambda entry: (-abs(entry[1]), entry[0]))
        return ranking[:k]

    # -- event queries ----------------------------------------------------------

    def top_events(
        self, kind: str = "delay", threshold: float = 5.0, limit: int = 10
    ) -> List[DetectedEvent]:
        """Most severe magnitude excursions, like the IHR front page."""
        events = self.analysis.aggregator.detect_events(
            kind, threshold, self.window_bins
        )
        return events[:limit]

    def events_in(
        self,
        start_timestamp: int,
        end_timestamp: int,
        kind: str = "delay",
        threshold: float = 5.0,
    ) -> List[DetectedEvent]:
        """Events within ``[start, end)``, most severe first."""
        if end_timestamp < start_timestamp:
            raise ValueError(
                f"end {end_timestamp} precedes start {start_timestamp}"
            )
        return [
            event
            for event in self.analysis.aggregator.detect_events(
                kind, threshold, self.window_bins
            )
            if start_timestamp <= event.timestamp < end_timestamp
        ]

    def alarms_at(
        self, timestamp: int
    ) -> Tuple[List[DelayAlarm], List[ForwardingAlarm]]:
        """Both alarm lists for the bin containing *timestamp*."""
        bin_start = (timestamp // self._bin_s) * self._bin_s
        delay = [
            a
            for a in self.analysis.delay_alarms
            if (a.timestamp // self._bin_s) * self._bin_s == bin_start
        ]
        forwarding = [
            a
            for a in self.analysis.forwarding_alarms
            if (a.timestamp // self._bin_s) * self._bin_s == bin_start
        ]
        return delay, forwarding

    def alarms_involving(self, ip: str) -> List[DelayAlarm]:
        """Delay alarms naming *ip* (e.g. all K-root pairs, §7.1)."""
        return [a for a in self.analysis.delay_alarms if a.involves(ip)]

    # -- export -------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialise the per-AS summary as the IHR API would."""
        return summary_json(self, self.is_empty, self.analysis.stats())


def summary_json(source, empty: bool, stats: CampaignStats) -> str:
    """The per-AS summary as the IHR API would serialise it.

    *source* answers ``monitored_asns()`` and ``as_condition(asn)``: an
    :class:`InternetHealthReport`, or the
    :class:`~repro.service.query.StoreQuery` that ``analyze`` prints
    from.  An alarm-free campaign (*empty*) is an explicit healthy
    report (``empty`` true, no conditions) rather than an error.
    """
    asns = source.monitored_asns()
    payload = {
        "empty": empty,
        "monitored_asns": asns,
        "stats": asdict(stats),
        "conditions": [
            {**asdict(condition), "healthy": condition.healthy}
            for condition in map(source.as_condition, asns)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
