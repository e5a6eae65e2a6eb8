"""Query engine over the on-disk alarm store (IHR answers, no objects).

:class:`StoreQuery` answers the Internet-Health-Report queries —
per-AS condition summaries, magnitude series, event lists, top-K
rankings, link drill-down, alarm retrieval — **bit-identically** to
:class:`~repro.reporting.ihr.InternetHealthReport` computed over the
equivalent in-memory campaign, but from NumPy scans of the store's
mmapped columns instead of Python object traversal:

* per-AS severity series are rebuilt by scattering the store's AS-event
  journal (``np.add.at`` in row order — the exact accumulation order of
  :class:`~repro.core.events.AlarmAggregator`, so every float is
  identical) into one dense AS × bin matrix per alarm kind, scored for
  all ASes at once by
  :func:`~repro.stats.robust.sliding_magnitude_rows` (bit-identical to
  the per-series :func:`~repro.stats.robust.sliding_magnitude` the
  oracle uses);
* alarm objects are materialised only for the rows a query actually
  returns, through the canonical record constructors of
  :mod:`repro.reporting.export`;
* per-segment ASN/time min-max indexes prune segments before their
  columns are touched.

**Appends extend the answer.**  Matrices, counts and magnitudes are one
derived state that only comes to exist by *applying segments in
manifest order* (:meth:`StoreQuery._sync`): a fresh engine applies from
zero, a long-lived one from where it stopped.  A new generation is an
extension only when it provably is one — same store clock ``(store_id,
start, bin_s)`` **and** the applied ``(name, digest)`` list is a prefix
of the new manifest's; then only the new segments are scattered and,
magnitudes being trailing-window, only positions from the lowest bin
they touched are rescored (one column for a normal append).  Anything
else — a merge, coarsen or drop rewrote a segment, the store was
recreated, the first append set ``start`` — discards the state and
applies from zero through the same code.  Public query methods refresh
first and the state syncs at the first derived read of a generation, so
a long-lived engine always serves the current one.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.atlas.io import PathLike
from repro.core.alarms import DelayAlarm, ForwardingAlarm
from repro.core.events import DetectedEvent
from repro.obs.metrics import default_registry, exponential_buckets
from repro.reporting.export import (
    delay_alarm_from_record,
    forwarding_alarm_from_record,
)
from repro.reporting.ihr import AsCondition, LinkHealth
from repro.service.store import (
    KIND_DELAY,
    KIND_FORWARDING,
    AlarmSegment,
    AlarmStore,
    Manifest,
)
from repro.stats.robust import sliding_magnitude_rows, weekly_window_bins

_KINDS = {"delay": KIND_DELAY, "forwarding": KIND_FORWARDING}


def _fit(array: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """*array* with room for *shape*; an axis that is short at least doubles."""
    room = tuple(
        have if have >= need else max(need, 2 * have)
        for have, need in zip(array.shape, shape)
    )
    if room == array.shape:
        return array
    grown = np.zeros(room, dtype=array.dtype)
    grown[tuple(map(slice, array.shape))] = array
    return grown


class _Derived:
    """Everything computed from the segments applied so far.

    ``values``/``magnitudes`` are ``[kind code, AS row, bin]`` with
    spare capacity on the last two axes; ``events`` counts journal rows
    per ``[kind code, AS row]`` (zero: the AS has no series of that
    kind) and ``routers`` forwarding alarms per router AS.
    """

    def __init__(self, clock: Tuple[bytes, Optional[int], int]) -> None:
        self.clock = clock
        self.token: Optional[str] = None
        self.applied: List[Tuple[str, bytes]] = []
        self.n_bins = 0
        self.rows: Dict[int, int] = {}
        self.values = np.zeros((len(_KINDS), 0, 0))
        self.magnitudes = np.zeros((len(_KINDS), 0, 0))
        self.events = np.zeros((len(_KINDS), 0), dtype=np.int64)
        self.routers: Counter = Counter()

    def apply(self, segment: AlarmSegment, n_bins: int) -> int:
        """Scatter one segment's journal; returns the lowest bin touched."""
        _, start, bin_s = self.clock
        known = self.rows
        asns, inverse = np.unique(segment.e_asn, return_inverse=True)
        rows = np.array(
            [known.setdefault(asn, len(known)) for asn in asns.tolist()],
            dtype=np.intp,
        )[inverse]
        self.values = _fit(self.values, (len(_KINDS), len(known), n_bins))
        self.events = _fit(self.events, (len(_KINDS), len(known)))
        bins = (segment.e_ts - start) // bin_s
        # Journal order per cell: the aggregator's float accumulation.
        np.add.at(
            self.values[:, : len(known), :n_bins],
            (segment.e_kind, rows, bins),
            segment.e_value,
        )
        np.add.at(self.events, (segment.e_kind, rows), 1)
        asns, counts = np.unique(segment.f_router_asn, return_counts=True)
        self.routers.update(dict(zip(asns.tolist(), counts.tolist())))
        return int(bins.min()) if bins.size else n_bins


class StoreQuery:
    """IHR-equivalent query engine over an :class:`AlarmStore`.

    *window_bins* mirrors the ``InternetHealthReport`` constructor
    argument (default: the paper's one-week Eq. 10 window).
    """

    def __init__(
        self,
        store: Union[AlarmStore, PathLike],
        window_bins: Optional[int] = None,
    ) -> None:
        self.store = (
            store if isinstance(store, AlarmStore) else AlarmStore(store)
        )
        self.window_bins = window_bins
        self._cached_token: Optional[str] = None
        self._pin_depth = 0
        self._derived: Optional[_Derived] = None
        registry = default_registry()
        self._syncs = registry.counter(
            "repro_query_sync_total",
            "Derived-state syncs: extended by new segments, or rebuilt.",
            ("mode",),
        )
        self._sync_seconds = registry.histogram(
            "repro_query_sync_seconds",
            "Wall time of one derived-state sync (scatter + rescoring).",
            buckets=exponential_buckets(0.0001, 4.0, 8),  # 0.1 ms .. ~1.6 s
        )
        self._applied_segments = registry.gauge(
            "repro_query_applied_segments",
            "Segments applied to the derived state at its last sync.",
        )

    # -- generation tracking -------------------------------------------------

    @property
    def generation(self) -> int:
        """The store generation the engine's caches are valid for."""
        return self.store.generation

    @property
    def cache_token(self) -> str:
        """Epoch-qualified generation (unique across store recreations).

        Response caches and ETags must key on this, not on the bare
        generation: a recreated store restarts its generation counter,
        but draws a fresh epoch id.
        """
        return self.store.manifest.token

    def refresh(self) -> bool:
        """Pick up a newer store state; True when there was one.

        Only notes the new generation: the derived state catches up at
        its next read (:meth:`_synced`).  Inside a :meth:`pinned` block
        this is a no-op: the engine keeps answering at the pinned
        generation even if a writer publishes a newer one
        mid-computation.
        """
        if self._pin_depth:
            return False
        changed = self.store.refresh()
        if changed or self._cached_token != self.cache_token:
            self._cached_token = self.cache_token
            return True
        return False

    @contextmanager
    def pinned(self) -> Iterator["StoreQuery"]:
        """Suppress :meth:`refresh` so answers stay on one generation.

        The HTTP tiers compute each response under this pin: every
        public query method refreshes first, so without it a writer
        appending mid-request would let one response mix generations —
        or worse, cache a generation-N+1 body under a generation-N key
        and ETag (the coherence race fixed in ISSUE 9).  Re-entrant.
        """
        self._pin_depth += 1
        try:
            yield self
        finally:
            self._pin_depth -= 1

    # -- derived state (applied segments) ------------------------------------

    def _window(self) -> int:
        if self.window_bins is not None:
            return self.window_bins
        return weekly_window_bins(self.store.bin_s)

    def _synced(self) -> _Derived:
        """The derived state, caught up with the current manifest."""
        manifest = self.store.manifest
        state = self._derived
        if state is None or state.token != manifest.token:
            state = self._sync(manifest)
        return state

    def _sync(self, manifest: Manifest) -> _Derived:
        """Apply the manifest's unapplied segments (all, unless a prefix)."""
        started = perf_counter()
        # A failed sync must leave nothing half-applied behind.
        state, self._derived = self._derived, None
        clock = (manifest.store_id, manifest.start, manifest.bin_s)
        live = [(meta.name, meta.digest) for meta in manifest.segments]
        extend = (
            state is not None
            and state.clock == clock
            and live[: len(state.applied)] == state.applied
        )
        if not extend:
            state = _Derived(clock)
        n_bins = manifest.n_bins
        first = state.n_bins
        for meta in manifest.segments[len(state.applied) :]:
            first = min(first, state.apply(self.store.segment(meta), n_bins))
        n_as = len(state.rows)
        state.values = _fit(state.values, (len(_KINDS), n_as, n_bins))
        state.magnitudes = _fit(state.magnitudes, state.values.shape)
        # Trailing windows: positions before `first` cannot change (a
        # new AS's are the +0.0 its all-zero history scores).
        state.magnitudes[:, :n_as, first:n_bins] = sliding_magnitude_rows(
            state.values[:, :n_as, :n_bins], self._window(), first
        )
        state.applied, state.n_bins, state.token = live, n_bins, manifest.token
        self._derived = state
        self._syncs.labels("extend" if extend else "rebuild").inc()
        self._sync_seconds.observe(perf_counter() - started)
        self._applied_segments.set(len(live))
        return state

    def _asns(self, kind: str) -> List[int]:
        """Every AS with at least one severity contribution of *kind*."""
        state = self._synced()
        present = state.events[_KINDS[kind]].tolist()
        return [asn for asn, row in state.rows.items() if present[row]]

    def _magnitude_values(self, kind: str, asn: int) -> Optional[np.ndarray]:
        """Eq. 10 magnitudes of (kind, asn); None when the AS is absent.

        A view into the state's matrix: valid until the next sync.
        """
        state = self._synced()
        row = state.rows.get(asn)
        if row is None or not state.events[_KINDS[kind], row]:
            return None
        return state.magnitudes[_KINDS[kind], row, : state.n_bins]

    def _hour_of(self, index: int) -> int:
        return (index * self.store.bin_s) // 3600

    # -- per-AS queries ------------------------------------------------------

    def monitored_asns(self) -> List[int]:
        """Every AS with at least one alarm in either series."""
        self.refresh()
        return sorted(self._synced().rows)

    def as_condition(self, asn: int) -> AsCondition:
        """Summarise one AS (zeros if the AS never raised alarms)."""
        self.refresh()
        delay = self._magnitude_values("delay", asn)
        forwarding = self._magnitude_values("forwarding", asn)
        peak_value, peak_hour = 0.0, None
        if delay is not None and delay.size:
            index = int(np.argmax(delay))
            peak_value, peak_hour = float(delay[index]), self._hour_of(index)
        trough_value, trough_hour = 0.0, None
        if forwarding is not None and forwarding.size:
            index = int(np.argmin(forwarding))
            trough_value = float(forwarding[index])
            trough_hour = self._hour_of(index)
        state = self._synced()
        row = state.rows.get(asn)
        return AsCondition(
            asn=asn,
            delay_alarm_count=(
                0 if row is None else int(state.events[KIND_DELAY, row])
            ),
            forwarding_alarm_count=state.routers[asn],
            peak_delay_magnitude=peak_value,
            peak_delay_hour=peak_hour,
            trough_forwarding_magnitude=trough_value,
            trough_forwarding_hour=trough_hour,
        )

    def magnitude_series(
        self, asn: int, kind: str = "delay"
    ) -> Tuple[List[int], np.ndarray]:
        """(timestamps, magnitudes) for one AS; empty when unknown."""
        self.refresh()
        if kind not in _KINDS:
            raise ValueError(f"kind must be 'delay' or 'forwarding': {kind}")
        magnitudes = self._magnitude_values(kind, asn)
        if magnitudes is None:
            return [], np.array([])
        manifest = self.store.manifest
        timestamps = [
            manifest.start + index * manifest.bin_s
            for index in range(manifest.n_bins)
        ]
        return timestamps, magnitudes.copy()

    def links_of(self, asn: int) -> List[LinkHealth]:
        """Per-link drill-down: this AS's delay alarms grouped by link.

        Same grouping, accumulation order and sort as
        :meth:`InternetHealthReport.links_of`.
        """
        self.refresh()
        counts: Dict[Tuple[str, str], int] = {}
        peaks: Dict[Tuple[str, str], float] = {}
        totals: Dict[Tuple[str, str], float] = {}
        last: Dict[Tuple[str, str], int] = {}
        for segment in self.store.segments(asn=asn):
            mask = (segment.e_kind == KIND_DELAY) & (segment.e_asn == asn)
            for row in np.nonzero(mask)[0]:
                link = (
                    segment.strings[segment.e_near[row]],
                    segment.strings[segment.e_far[row]],
                )
                deviation = float(segment.e_value[row])
                timestamp = int(segment.e_ts[row])
                counts[link] = counts.get(link, 0) + 1
                peaks[link] = max(peaks.get(link, 0.0), deviation)
                totals[link] = totals.get(link, 0.0) + deviation
                last[link] = max(last.get(link, timestamp), timestamp)
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

    def top_asns(
        self, kind: str = "delay", k: int = 10
    ) -> List[Tuple[int, float]]:
        """The *k* most anomalous ASes: (ASN, peak signed magnitude)."""
        self.refresh()
        if kind not in _KINDS:
            raise ValueError(f"kind must be 'delay' or 'forwarding': {kind}")
        if k < 0:
            raise ValueError(f"k must be >= 0: {k}")
        ranking: List[Tuple[int, float]] = []
        for asn in sorted(self._asns(kind)):
            magnitudes = self._magnitude_values(kind, asn)
            if magnitudes is None or not magnitudes.size:
                continue
            index = int(np.argmax(np.abs(magnitudes)))
            ranking.append((asn, float(magnitudes[index])))
        ranking.sort(key=lambda entry: (-abs(entry[1]), entry[0]))
        return ranking[:k]

    # -- event queries -------------------------------------------------------

    def _detect_events(self, kind: str, threshold: float) -> List[DetectedEvent]:
        """Mirror of :meth:`AlarmAggregator.detect_events` on the store."""
        if threshold <= 0:
            raise ValueError(f"threshold must be positive: {threshold}")
        if kind not in _KINDS:
            raise ValueError(f"kind must be 'delay' or 'forwarding': {kind}")
        manifest = self.store.manifest
        events: List[DetectedEvent] = []
        for asn in sorted(self._asns(kind)):
            magnitudes = self._magnitude_values(kind, asn)
            if magnitudes is None:
                continue
            for index in np.nonzero(np.abs(magnitudes) > threshold)[0]:
                events.append(
                    DetectedEvent(
                        asn=asn,
                        timestamp=manifest.start + int(index) * manifest.bin_s,
                        magnitude=float(magnitudes[index]),
                        kind=kind,
                    )
                )
        events.sort(key=lambda e: (-abs(e.magnitude), e.asn, e.timestamp))
        return events

    def top_events(
        self, kind: str = "delay", threshold: float = 5.0, limit: int = 10
    ) -> List[DetectedEvent]:
        """Most severe magnitude excursions, like the IHR front page."""
        self.refresh()
        return self._detect_events(kind, threshold)[:limit]

    def events_in(
        self,
        start_timestamp: int,
        end_timestamp: int,
        kind: str = "delay",
        threshold: float = 5.0,
    ) -> List[DetectedEvent]:
        """Events within ``[start, end)``, most severe first."""
        self.refresh()
        if end_timestamp < start_timestamp:
            raise ValueError(
                f"end {end_timestamp} precedes start {start_timestamp}"
            )
        return [
            event
            for event in self._detect_events(kind, threshold)
            if start_timestamp <= event.timestamp < end_timestamp
        ]

    # -- alarm retrieval -----------------------------------------------------

    def _delay_alarm(self, segment: AlarmSegment, row: int) -> DelayAlarm:
        """Materialise one delay alarm row via the canonical record."""
        strings = segment.strings
        return delay_alarm_from_record(
            {
                "timestamp": int(segment.d_ts[row]),
                "link": [
                    strings[segment.d_near[row]],
                    strings[segment.d_far[row]],
                ],
                "observed": {
                    "median": float(segment.d_obs_median[row]),
                    "lower": float(segment.d_obs_lower[row]),
                    "upper": float(segment.d_obs_upper[row]),
                    "n": int(segment.d_obs_n[row]),
                },
                "reference": {
                    "median": float(segment.d_ref_median[row]),
                    "lower": float(segment.d_ref_lower[row]),
                    "upper": float(segment.d_ref_upper[row]),
                    "n": int(segment.d_ref_n[row]),
                },
                "deviation": float(segment.d_deviation[row]),
                "direction": int(segment.d_direction[row]),
                "n_probes": int(segment.d_n_probes[row]),
                "n_asns": int(segment.d_n_asns[row]),
            }
        )

    def _forwarding_alarm(
        self, segment: AlarmSegment, row: int
    ) -> ForwardingAlarm:
        """Materialise one forwarding alarm row via the canonical record."""
        strings = segment.strings

        def hop_map(offsets, hops, values) -> Dict[str, float]:
            lo, hi = int(offsets[row]), int(offsets[row + 1])
            return {
                strings[hops[i]]: float(values[i]) for i in range(lo, hi)
            }

        return forwarding_alarm_from_record(
            {
                "timestamp": int(segment.f_ts[row]),
                "router_ip": strings[segment.f_router[row]],
                "destination": strings[segment.f_dest[row]],
                "correlation": float(segment.f_correlation[row]),
                "responsibilities": hop_map(
                    segment.f_resp_offsets,
                    segment.f_resp_hop,
                    segment.f_resp_value,
                ),
                "pattern": hop_map(
                    segment.f_pat_offsets,
                    segment.f_pat_hop,
                    segment.f_pat_value,
                ),
                "reference": hop_map(
                    segment.f_ref_offsets,
                    segment.f_ref_hop,
                    segment.f_ref_value,
                ),
            }
        )

    def alarms_at(
        self, timestamp: int
    ) -> Tuple[List[DelayAlarm], List[ForwardingAlarm]]:
        """Both alarm lists for the bin containing *timestamp*."""
        self.refresh()
        bin_s = self.store.bin_s
        bin_start = (timestamp // bin_s) * bin_s
        delay: List[DelayAlarm] = []
        forwarding: List[ForwardingAlarm] = []
        for segment in self.store.segments(t0=bin_start, t1=bin_start + bin_s):
            for row in np.nonzero(
                (segment.d_ts // bin_s) * bin_s == bin_start
            )[0]:
                delay.append(self._delay_alarm(segment, int(row)))
            for row in np.nonzero(
                (segment.f_ts // bin_s) * bin_s == bin_start
            )[0]:
                forwarding.append(self._forwarding_alarm(segment, int(row)))
        return delay, forwarding

    def alarms_involving(self, ip: str) -> List[DelayAlarm]:
        """Delay alarms naming *ip* (e.g. all K-root pairs, §7.1)."""
        self.refresh()
        alarms: List[DelayAlarm] = []
        for segment in self.store.segments():
            identifier = segment.id_of(ip)
            if identifier is None:
                continue
            mask = (segment.d_near == identifier) | (
                segment.d_far == identifier
            )
            for row in np.nonzero(mask)[0]:
                alarms.append(self._delay_alarm(segment, int(row)))
        return alarms

    # -- store metadata ------------------------------------------------------

    def meta(self) -> Dict[str, object]:
        """Store-level summary for the HTTP index route."""
        self.refresh()
        manifest = self.store.manifest
        return {
            "generation": manifest.generation,
            "bin_s": manifest.bin_s,
            "start": manifest.start,
            "end": manifest.end if manifest.start is not None else None,
            "n_bins": manifest.n_bins,
            "n_segments": len(manifest.segments),
            "n_delay_alarms": sum(m.n_delay for m in manifest.segments),
            "n_forwarding_alarms": sum(
                m.n_forwarding for m in manifest.segments
            ),
            "n_events": sum(m.n_events for m in manifest.segments),
            "monitored_asns": len(self._synced().rows),
        }
