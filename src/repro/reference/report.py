"""The §6 aggregation and §8 report over alarm objects.

:class:`AlarmAggregator` builds every AS's severity series and Eq. 10
magnitudes from alarm objects; :class:`InternetHealthReport` answers the
IHR queries over it.  No command builds either: ``analyze`` and
``serve`` answer from alarm-store columns through
:class:`~repro.service.query.StoreQuery`, which is tested against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.alarms import (
    UNRESPONSIVE,
    DelayAlarm,
    DetectedEvent,
    ForwardingAlarm,
    Link,
)
from repro.net.asmap import AsMapper
from repro.reporting.ihr import AsCondition, LinkHealth, summary_json
from repro.stats.robust import sliding_magnitude, weekly_window_bins

if TYPE_CHECKING:
    from repro.core.pipeline import CampaignAnalysis

#: Eq. 10 uses a one-week sliding window.
MAGNITUDE_WINDOW_DAYS = 7


@dataclass
class AsTimeSeries:
    """One AS's hourly severity series on a uniform bin clock."""

    asn: int
    bin_s: int
    start: int
    values: List[float] = field(default_factory=list)

    def _index_for(self, timestamp: int) -> int:
        index = (timestamp - self.start) // self.bin_s
        if index < 0:
            raise ValueError(
                f"timestamp {timestamp} precedes series start {self.start}"
            )
        return int(index)

    def add(self, timestamp: int, value: float) -> None:
        """Accumulate *value* into the bin containing *timestamp*."""
        index = self._index_for(timestamp)
        while len(self.values) <= index:
            self.values.append(0.0)
        self.values[index] += value

    def timestamps(self) -> List[int]:
        return [self.start + i * self.bin_s for i in range(len(self.values))]

    def pad_to(self, end_timestamp: int) -> None:
        """Extend with zero bins so the series covers up to *end*."""
        index = self._index_for(end_timestamp)
        while len(self.values) <= index:
            self.values.append(0.0)

    def magnitudes(self, window_bins: Optional[int] = None) -> np.ndarray:
        """Eq. 10 magnitude of every bin (one-week window by default)."""
        if not self.values:
            return np.array([])
        if window_bins is None:
            window_bins = weekly_window_bins(self.bin_s, MAGNITUDE_WINDOW_DAYS)
        return sliding_magnitude(self.values, window=window_bins)


class AlarmAggregator:
    """Accumulates alarms into per-AS severity time series.

    ``start`` anchors the shared bin clock — typically the campaign start
    — so that all ASes share aligned series, which the sliding-window
    magnitude requires.
    """

    def __init__(self, mapper: AsMapper, bin_s: int = 3600, start: int = 0):
        if bin_s <= 0:
            raise ValueError(f"bin size must be positive: {bin_s}")
        self.mapper = mapper
        self.bin_s = bin_s
        self.start = start
        self.delay_series: Dict[int, AsTimeSeries] = {}
        self.forwarding_series: Dict[int, AsTimeSeries] = {}
        self._last_timestamp = start

    def _series(self, table: Dict[int, AsTimeSeries], asn: int) -> AsTimeSeries:
        series = table.get(asn)
        if series is None:
            series = AsTimeSeries(asn=asn, bin_s=self.bin_s, start=self.start)
            table[asn] = series
        return series

    # -- ingestion -------------------------------------------------------------

    def add_delay_alarm(self, alarm: DelayAlarm) -> List[int]:
        """Credit d(Δ) to the AS(es) of the link ends; returns the ASNs."""
        self._last_timestamp = max(self._last_timestamp, alarm.timestamp)
        asns = self.mapper.asns_of_link(*alarm.link)
        for asn in asns:
            self._series(self.delay_series, asn).add(
                alarm.timestamp, alarm.deviation
            )
        return asns

    def add_forwarding_alarm(self, alarm: ForwardingAlarm) -> List[int]:
        """Credit each next hop's r_i to that hop's AS; returns the ASNs.

        The unresponsive bucket has no address, hence no AS (§6 groups
        forwarding anomalies by next-hop IP).
        """
        self._last_timestamp = max(self._last_timestamp, alarm.timestamp)
        touched: List[int] = []
        for hop_ip, responsibility in alarm.responsibilities.items():
            if hop_ip == UNRESPONSIVE:
                continue
            if responsibility == 0.0:
                continue
            asn = self.mapper.asn_of(hop_ip)
            if asn is None:
                continue
            self._series(self.forwarding_series, asn).add(
                alarm.timestamp, responsibility
            )
            if asn not in touched:
                touched.append(asn)
        return touched

    def add_alarms(
        self,
        delay_alarms: Iterable[DelayAlarm] = (),
        forwarding_alarms: Iterable[ForwardingAlarm] = (),
    ) -> None:
        for alarm in delay_alarms:
            self.add_delay_alarm(alarm)
        for alarm in forwarding_alarms:
            self.add_forwarding_alarm(alarm)

    def close(self, end_timestamp: int) -> None:
        """Declare the campaign's final bin so quiet trailing hours are
        padded with zeros (alarm-free hours still advance the clock)."""
        self._last_timestamp = max(self._last_timestamp, end_timestamp)

    # -- analysis ---------------------------------------------------------------

    def _aligned(self, table: Dict[int, AsTimeSeries]) -> Dict[int, AsTimeSeries]:
        for series in table.values():
            series.pad_to(self._last_timestamp)
        return table

    def delay_magnitudes(
        self, window_bins: Optional[int] = None
    ) -> Dict[int, np.ndarray]:
        """Per-AS delay-change magnitude series (Figure 6/9 material)."""
        return {
            asn: series.magnitudes(window_bins)
            for asn, series in self._aligned(self.delay_series).items()
        }

    def forwarding_magnitudes(
        self, window_bins: Optional[int] = None
    ) -> Dict[int, np.ndarray]:
        """Per-AS forwarding magnitude series (Figure 10/13 material)."""
        return {
            asn: series.magnitudes(window_bins)
            for asn, series in self._aligned(self.forwarding_series).items()
        }

    def all_magnitude_values(
        self, kind: str, window_bins: Optional[int] = None
    ) -> np.ndarray:
        """Pooled hourly magnitudes over all ASes (Figure 5 samples)."""
        if kind == "delay":
            table = self.delay_magnitudes(window_bins)
        elif kind == "forwarding":
            table = self.forwarding_magnitudes(window_bins)
        else:
            raise ValueError(f"kind must be 'delay' or 'forwarding': {kind}")
        if not table:
            return np.array([])
        return np.concatenate(list(table.values()))

    def detect_events(
        self,
        kind: str,
        threshold: float,
        window_bins: Optional[int] = None,
    ) -> List[DetectedEvent]:
        """Bins whose |magnitude| exceeds *threshold*, sorted by severity.

        Delay events are positive peaks; forwarding events are usually
        negative (devalued hops), so the absolute value is thresholded
        and the signed magnitude reported.  Ordering is fully
        deterministic: severity first, ties broken by (ASN, timestamp) —
        never by dict insertion order, so two runs (or the on-disk store
        and the in-memory report) always agree on rankings.
        """
        if threshold <= 0:
            raise ValueError(f"threshold must be positive: {threshold}")
        if kind == "delay":
            magnitudes = self.delay_magnitudes(window_bins)
            table = self.delay_series
        elif kind == "forwarding":
            magnitudes = self.forwarding_magnitudes(window_bins)
            table = self.forwarding_series
        else:
            raise ValueError(f"kind must be 'delay' or 'forwarding': {kind}")
        events = []
        for asn in sorted(magnitudes):
            series = table[asn]
            for index, magnitude in enumerate(magnitudes[asn]):
                if abs(magnitude) > threshold:
                    events.append(
                        DetectedEvent(
                            asn=asn,
                            timestamp=series.start + index * series.bin_s,
                            magnitude=float(magnitude),
                            kind=kind,
                        )
                    )
        events.sort(key=lambda e: (-abs(e.magnitude), e.asn, e.timestamp))
        return events


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
