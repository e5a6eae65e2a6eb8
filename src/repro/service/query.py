"""Query engine over the on-disk alarm store (IHR answers, no objects).

:class:`StoreQuery` answers the Internet-Health-Report queries —
per-AS condition summaries, magnitude series, event lists, top-K
rankings, link drill-down, alarm retrieval — **bit-identically** to
:class:`~repro.reporting.ihr.InternetHealthReport` computed over the
equivalent in-memory campaign, from one state derived out of the
store's mmapped columns instead of Python object traversal:

* per-AS severity series are rebuilt by scattering the store's AS-event
  journal (``np.add.at`` in row order — the exact accumulation order of
  :class:`~repro.core.events.AlarmAggregator`, so every float is
  identical) into one dense AS × bin matrix per alarm kind, scored for
  all ASes at once by
  :func:`~repro.stats.robust.sliding_magnitude_rows` (bit-identical to
  the per-series :func:`~repro.stats.robust.sliding_magnitude` the
  oracle uses);
* the link drill-down reads a table of per-(AS, near IP, far IP)
  aggregates — alarm count, summed and peak deviation, newest
  timestamp — folded from the delay rows of the same journal, in the
  same order, as each segment is applied;
* per-AS peaks and troughs are one reduction along the bin axis per
  generation, and an event list is one threshold mask plus one
  ``lexsort``;
* result objects are materialised only for the rows a query returns,
  alarms through the canonical record constructors of
  :mod:`repro.reporting.export`.

A cache miss on ``/health``, ``/links``, ``/events`` or ``/top`` is
therefore a lookup into that state and never opens a segment; only
:meth:`StoreQuery.alarms_at` (segments pruned by their time range) and
:meth:`StoreQuery.alarms_involving` read segment columns per call.

**Appends extend the answer.**  Matrices, counts, link aggregates and
magnitudes are one derived state that only comes to exist by *applying
segments in manifest order* (:meth:`StoreQuery._sync`): a fresh engine
applies from zero, a long-lived one from where it stopped.  A new
generation is an extension only when it provably is one — same store
clock ``(store_id, start, bin_s)`` **and** the applied
``(name, digest)`` list is a prefix of the new manifest's; then only the
new segments are scattered and folded and, magnitudes being
trailing-window, only positions from the lowest bin they touched are
rescored (one column for a normal append).  Anything else — a merge,
coarsen or drop rewrote a segment, the store was recreated, the first
append set ``start`` — discards the state and applies from zero through
the same code.  Public query methods refresh first and the state syncs
at the first derived read of a generation (or earlier, at
:meth:`StoreQuery.sync`): a long-lived engine serves the current one.
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

#: One link of an AS's drill-down: :class:`LinkHealth`'s fields, in order.
LinkRow = Tuple[Tuple[str, str], int, float, float, int]


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
    kind), ``asns`` holds each row's ASN and ``routers`` counts
    forwarding alarms per router AS.

    The link table has one slot per (AS row, near IP, far IP) of the
    delay journal, kept in ascending ``link_keys`` order.  A key packs
    the row above the two link ends' ids into ``names``, each ``bits``
    wide, so one AS's slots are one contiguous slice.  Per slot:
    ``link_count`` journal rows, their summed (``link_total``) and
    largest (``link_peak``) deviation and the newest timestamp
    (``link_last``).

    ``extremes`` memoises per-row reductions of ``magnitudes`` until
    the next sync.
    """

    def __init__(self, clock: Tuple[bytes, Optional[int], int]) -> None:
        self.clock = clock
        self.token: Optional[str] = None
        self.applied: List[Tuple[str, bytes]] = []
        self.n_bins = 0
        self.rows: Dict[int, int] = {}
        self.asns = np.zeros(0, dtype=np.int64)
        self.values = np.zeros((len(_KINDS), 0, 0))
        self.magnitudes = np.zeros((len(_KINDS), 0, 0))
        self.events = np.zeros((len(_KINDS), 0), dtype=np.int64)
        self.routers: Counter = Counter()
        self.ids: Dict[str, int] = {}
        self.names: List[str] = []
        self.bits = 1
        self.link_keys = np.zeros(0, dtype=np.int64)
        self.link_count = np.zeros(0, dtype=np.int64)
        self.link_total = np.zeros(0)
        self.link_peak = np.zeros(0)
        self.link_last = np.zeros(0, dtype=np.int64)
        self.extremes: Dict[
            Tuple[int, str], Tuple[np.ndarray, np.ndarray]
        ] = {}

    def apply(self, segment: AlarmSegment, n_bins: int) -> int:
        """Scatter one segment's journal; returns the lowest bin touched."""
        _, start, bin_s = self.clock
        known = self.rows
        asns, inverse = np.unique(segment.e_asn, return_inverse=True)
        rows = np.array(
            [known.setdefault(asn, len(known)) for asn in asns.tolist()],
            dtype=np.intp,
        )[inverse]
        if len(known) != self.asns.size:
            self.asns = np.fromiter(known, dtype=np.int64, count=len(known))
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
        delay = segment.e_kind == KIND_DELAY
        if delay.any():
            self._fold_links(segment, rows[delay], delay)
        return int(bins.min()) if bins.size else n_bins

    def _fold_links(
        self, segment: AlarmSegment, rows: np.ndarray, delay: np.ndarray
    ) -> None:
        """Fold the segment's delay-journal rows into the link table.

        Journal order, like the oracle's per-alarm loop: totals by
        ``np.add.at`` from 0.0, peaks by ``np.fmax.at`` from 0.0.
        Python's ``max(peak, deviation)`` keeps ``peak`` unless the
        deviation is larger (a NaN never is), as ``fmax`` does — except
        that ``fmax(0.0, -0.0)`` is ``-0.0``, so deviations enter the
        peak fold as ``deviation + 0.0``.  New slots are inserted in key
        order; the temporaries are this segment's size.
        """
        near, far = segment.e_near[delay], segment.e_far[delay]
        used = np.zeros(len(segment.strings), dtype=bool)
        used[near] = used[far] = True
        gids = np.zeros(len(segment.strings), dtype=np.int64)
        ids, names = self.ids, self.names
        for index in np.flatnonzero(used).tolist():
            name = segment.strings[index]
            gid = ids.get(name)
            if gid is None:
                gid = ids[name] = len(names)
                names.append(name)
            gids[index] = gid
        bits = len(names).bit_length()
        if len(self.rows).bit_length() + 2 * bits > 62:
            raise OverflowError("link table keys need more than 62 bits")
        if bits != self.bits:  # wider ids: re-pack, the slot order holds
            old, keys = self.bits, self.link_keys
            mask = (1 << old) - 1
            self.link_keys = (
                ((keys >> 2 * old) << 2 * bits)
                | (((keys >> old) & mask) << bits)
                | (keys & mask)
            )
            self.bits = bits
        keys = (
            (rows.astype(np.int64) << 2 * bits)
            | (gids[near] << bits)
            | gids[far]
        )
        # Membership by binary search, not np.setdiff1d (which sorts
        # the whole table in with the new keys on every append).
        unique, inverse = np.unique(keys, return_inverse=True)
        at = np.searchsorted(self.link_keys, unique)
        held = at < self.link_keys.size
        held[held] = self.link_keys[at[held]] == unique[held]
        if not held.all():
            at, fresh = at[~held], unique[~held]
            self.link_keys = np.insert(self.link_keys, at, fresh)
            self.link_count = np.insert(self.link_count, at, 0)
            self.link_total = np.insert(self.link_total, at, 0.0)
            self.link_peak = np.insert(self.link_peak, at, 0.0)
            self.link_last = np.insert(
                self.link_last, at, np.iinfo(np.int64).min
            )
        slots = np.searchsorted(self.link_keys, unique)[inverse]
        deviations = segment.e_value[delay]
        np.add.at(self.link_count, slots, 1)
        np.add.at(self.link_total, slots, deviations)
        np.fmax.at(self.link_peak, slots, deviations + 0.0)
        np.maximum.at(self.link_last, slots, segment.e_ts[delay])

    def link_rows(self, row: int) -> List[LinkRow]:
        """The slots of AS *row*, sorted like the oracle's drill-down."""
        bits, names = self.bits, self.names
        mask = (1 << bits) - 1
        lo, hi = np.searchsorted(
            self.link_keys, [row << 2 * bits, (row + 1) << 2 * bits]
        )
        # Pre-ordered by numpy, the exact sort below is one linear pass
        # that only breaks (count, total) ties by link.
        totals, counts = self.link_total[lo:hi], self.link_count[lo:hi]
        at = lo + np.lexsort((-totals, -counts))
        rows = list(
            zip(
                [
                    (names[(k >> bits) & mask], names[k & mask])
                    for k in self.link_keys[at].tolist()
                ],
                self.link_count[at].tolist(),
                self.link_peak[at].tolist(),
                self.link_total[at].tolist(),
                self.link_last[at].tolist(),
            )
        )
        rows.sort(key=lambda r: (-r[1], -r[3], r[0]))
        return rows

    def extreme(self, code: int, how: str) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row (bin index, magnitude) where kind *code* peaks.

        *how* is ``"max"``, ``"min"`` or ``"abs"`` (largest
        ``|magnitude|``): the first such bin, as the oracle's per-series
        ``argmax``/``argmin`` — here one reduction for every row,
        computed on first use and kept until the next sync.
        """
        found = self.extremes.get((code, how))
        if found is None:
            n_as = len(self.rows)
            block = self.magnitudes[code, :n_as, : self.n_bins]
            if block.size:
                scored = np.abs(block) if how == "abs" else block
                index = (np.argmin if how == "min" else np.argmax)(
                    scored, axis=1
                )
                found = (index, block[np.arange(n_as), index])
            else:
                found = (np.zeros(n_as, dtype=np.intp), np.zeros(n_as))
            self.extremes[(code, how)] = found
        return found


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

    def sync(self) -> str:
        """Apply the manifest last seen by :meth:`refresh` now rather
        than at the next derived read; returns the token applied."""
        return self._synced().token

    @property
    def synced_token(self) -> Optional[str]:
        """The current token once it is applied (queries at it apply
        nothing), else ``None``."""
        state, token = self._derived, self.cache_token
        return token if state is not None and state.token == token else None

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
        state.extremes.clear()
        state.applied, state.n_bins, state.token = live, n_bins, manifest.token
        self._derived = state
        self._syncs.labels("extend" if extend else "rebuild").inc()
        self._sync_seconds.observe(perf_counter() - started)
        self._applied_segments.set(len(live))
        return state

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
        state = self._synced()
        row = state.rows.get(asn)
        delay_count = 0 if row is None else int(state.events[KIND_DELAY, row])
        peak_value, peak_hour = 0.0, None
        if delay_count:
            index, values = state.extreme(KIND_DELAY, "max")
            peak_value = float(values[row])
            peak_hour = self._hour_of(int(index[row]))
        trough_value, trough_hour = 0.0, None
        if row is not None and state.events[KIND_FORWARDING, row]:
            index, values = state.extreme(KIND_FORWARDING, "min")
            trough_value = float(values[row])
            trough_hour = self._hour_of(int(index[row]))
        return AsCondition(
            asn=asn,
            delay_alarm_count=delay_count,
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

    def link_rows(self, asn: int) -> List[LinkRow]:
        """:meth:`links_of` as plain rows, in the same order."""
        self.refresh()
        state = self._synced()
        row = state.rows.get(asn)
        return [] if row is None else state.link_rows(row)

    def links_of(self, asn: int) -> List[LinkHealth]:
        """Per-link drill-down: this AS's delay alarms grouped by link.

        Same grouping, accumulation order and sort as
        :meth:`InternetHealthReport.links_of`, read from the link table.
        """
        return [LinkHealth(*row) for row in self.link_rows(asn)]

    def top_asns(
        self, kind: str = "delay", k: int = 10
    ) -> List[Tuple[int, float]]:
        """The *k* most anomalous ASes: (ASN, peak signed magnitude)."""
        self.refresh()
        if kind not in _KINDS:
            raise ValueError(f"kind must be 'delay' or 'forwarding': {kind}")
        if k < 0:
            raise ValueError(f"k must be >= 0: {k}")
        state = self._synced()
        code = _KINDS[kind]
        present = np.flatnonzero(state.events[code, : len(state.rows)])
        peaks = state.extreme(code, "abs")[1][present]
        asns = state.asns[present]
        order = np.lexsort((asns, -np.abs(peaks)))[:k]
        return list(zip(asns[order].tolist(), peaks[order].tolist()))

    # -- event queries -------------------------------------------------------

    def _detect_events(
        self,
        kind: str,
        threshold: float,
        span: Optional[Tuple[int, int]] = None,
        limit: Optional[int] = None,
    ) -> List[DetectedEvent]:
        """Mirror of :meth:`AlarmAggregator.detect_events` on the store.

        One threshold mask over the magnitude matrix and one ``lexsort``
        on (-|magnitude|, ASN, timestamp); events outside ``[start,
        end)`` of *span* are dropped and only the first *limit* built.
        """
        if threshold <= 0:
            raise ValueError(f"threshold must be positive: {threshold}")
        if kind not in _KINDS:
            raise ValueError(f"kind must be 'delay' or 'forwarding': {kind}")
        state = self._synced()
        code = _KINDS[kind]
        block = state.magnitudes[code, : len(state.rows), : state.n_bins]
        # A row with no series of this kind scores 0.0 in every bin.
        rows, bins = np.nonzero(np.abs(block) > threshold)
        if not rows.size:
            return []
        _, start, bin_s = state.clock
        timestamps = start + bins * bin_s
        if span is not None:
            keep = (span[0] <= timestamps) & (timestamps < span[1])
            rows, bins, timestamps = rows[keep], bins[keep], timestamps[keep]
        magnitudes = block[rows, bins]
        asns = state.asns[rows]
        order = np.lexsort((timestamps, asns, -np.abs(magnitudes)))[:limit]
        return [
            DetectedEvent(
                asn=asn, timestamp=timestamp, magnitude=magnitude, kind=kind
            )
            for asn, timestamp, magnitude in zip(
                asns[order].tolist(),
                timestamps[order].tolist(),
                magnitudes[order].tolist(),
            )
        ]

    def top_events(
        self, kind: str = "delay", threshold: float = 5.0, limit: int = 10
    ) -> List[DetectedEvent]:
        """Most severe magnitude excursions, like the IHR front page."""
        self.refresh()
        return self._detect_events(kind, threshold, limit=limit)

    def events_in(
        self,
        start_timestamp: int,
        end_timestamp: int,
        kind: str = "delay",
        threshold: float = 5.0,
        limit: Optional[int] = None,
    ) -> List[DetectedEvent]:
        """Up to *limit* events within ``[start, end)``, most severe first."""
        self.refresh()
        if end_timestamp < start_timestamp:
            raise ValueError(
                f"end {end_timestamp} precedes start {start_timestamp}"
            )
        span = (start_timestamp, end_timestamp)
        return self._detect_events(kind, threshold, span, limit)

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
