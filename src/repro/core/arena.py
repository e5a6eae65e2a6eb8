"""Vectorized detector-state arena: structure-of-arrays detection kernels.

The scalar detectors (:class:`~repro.core.delaydetector.DelayChangeDetector`,
:class:`~repro.core.forwarding.ForwardingAnomalyDetector`) keep one small
Python object per key — three :class:`~repro.stats.smoothing.ExponentialSmoother`
instances per link, one :class:`~repro.stats.smoothing.VectorSmoother` per
(router, destination) — and judge each key with scalar branches.  At the
paper's scale (§7: hundreds of thousands of links and forwarding models
per bin) the per-key attribute lookups, method calls and dict updates
dominate detection time.

This module holds the same state as contiguous NumPy arrays indexed by a
dense key id:

* :class:`LinkInterner` maps hashable keys (links, model keys) to dense
  integer ids, exactly like the ingestion layer's
  :class:`~repro.atlas.columnar.IPInterner` maps IP strings;
* :class:`DelayArena` keeps every link's smoothed reference — median,
  lower and upper EWMA values, the §4.2.4 three-bin seed-median warm-up
  buffers, ``bins_seen`` and ``alarms_raised`` — as parallel arrays, and
  judges a whole bin with a handful of kernels: batched Eq. 6 deviation
  (:func:`~repro.core.delaydetector.deviation_score_batch`), vectorized
  min-shift/direction masks, vectorized winsorized clamping and a
  batched Eq. 7 EWMA + seed-median update.
  :class:`~repro.core.alarms.DelayAlarm` objects are materialised only
  for the anomalous subset;
* :class:`ForwardingArena` keeps per-model ``bins_seen``/``alarms_raised``
  arrays plus compact reference dicts, pools each bin's aligned
  (pattern, reference) values into CSR-style offset arrays feeding
  :func:`~repro.stats.correlation.pearson_correlation_pooled`, applies
  the Eq. 8 reference smoothing as one flat vectorized EWMA over every
  model's next hops at once, and computes Eq. 9 responsibilities only
  for flagged models.

Both arenas are **bit-identical** to their scalar counterparts: every
kernel performs the same float64 arithmetic the scalar code performs,
elementwise, which the hypothesis properties in
``tests/test_core_arena.py`` and the speedup benchmark
``benchmarks/bench_detect.py`` both assert.  The engine
(:mod:`repro.core.engine`) runs one arena pair; the serial
:class:`~repro.core.pipeline.Pipeline` keeps the scalar detectors as the
readable equivalence oracle.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.alarms import UNRESPONSIVE, DelayAlarm, ForwardingAlarm, Link
from repro.core.checkpoint import DelayTable, ForwardingTable
from repro.core.delaydetector import (
    MIN_SHIFT_MS,
    deviation_score_batch,
    winsorize_offsets_batch,
)
from repro.core.forwarding import (
    DEFAULT_TAU,
    DEFAULT_WARMUP_BINS,
    ModelKey,
    Pattern,
    responsibility_scores,
)
from repro.stats.correlation import pearson_correlation_pooled
from repro.stats.smoothing import DEFAULT_ALPHA, PRUNE_BELOW, SEED_BINS
from repro.stats.wilson import WilsonInterval

#: Initial delay-arena link capacity; state arrays double as links appear.
_INITIAL_CAPACITY = 1024


class DelayAlarmRows:
    """One bin's delay alarms as parallel arrays, pre-materialization.

    The engine keeps a bin's alarms in this form out of the kernel (a
    dozen scalars per alarm instead of nested
    :class:`~repro.stats.wilson.WilsonInterval` objects);
    :meth:`materialize` builds the str-keyed
    :class:`~repro.core.alarms.DelayAlarm` objects exactly once, at the
    store/reporting boundary, bit-identical to the ones
    :meth:`DelayArena.observe_bin` emits inline.

    ``positions`` indexes the observation arrays the kernel judged
    (ascending, i.e. sorted-link order); ``arena_rows`` holds the
    alarmed links' interned arena ids so callers can recover link keys.
    """

    def __init__(
        self,
        positions: np.ndarray,
        arena_rows: np.ndarray,
        obs_median: np.ndarray,
        obs_lower: np.ndarray,
        obs_upper: np.ndarray,
        obs_n: np.ndarray,
        ref_median: np.ndarray,
        ref_lower: np.ndarray,
        ref_upper: np.ndarray,
        ref_n: np.ndarray,
        deviation: np.ndarray,
        direction: np.ndarray,
        n_probes: np.ndarray,
        n_asns: np.ndarray,
    ) -> None:
        self.positions = positions
        self.arena_rows = arena_rows
        self.obs_median = obs_median
        self.obs_lower = obs_lower
        self.obs_upper = obs_upper
        self.obs_n = obs_n
        self.ref_median = ref_median
        self.ref_lower = ref_lower
        self.ref_upper = ref_upper
        self.ref_n = ref_n
        self.deviation = deviation
        self.direction = direction
        self.n_probes = n_probes
        self.n_asns = n_asns

    def __len__(self) -> int:
        return len(self.positions)

    @classmethod
    def empty(cls) -> "DelayAlarmRows":
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        return cls(
            empty_i, empty_i, empty_f, empty_f, empty_f, empty_i,
            empty_f, empty_f, empty_f, empty_i, empty_f, empty_i,
            empty_i, empty_i,
        )

    def materialize(
        self, timestamp: int, links: Sequence[Link]
    ) -> List[DelayAlarm]:
        """Build the :class:`DelayAlarm` objects; *links* aligns with rows."""
        alarms: List[DelayAlarm] = []
        for index, link in enumerate(links):
            observed = WilsonInterval(
                median=float(self.obs_median[index]),
                lower=float(self.obs_lower[index]),
                upper=float(self.obs_upper[index]),
                n=int(self.obs_n[index]),
            )
            reference = WilsonInterval(
                median=float(self.ref_median[index]),
                lower=float(self.ref_lower[index]),
                upper=float(self.ref_upper[index]),
                n=int(self.ref_n[index]),
            )
            alarms.append(
                DelayAlarm(
                    timestamp=timestamp,
                    link=link,
                    observed=observed,
                    reference=reference,
                    deviation=float(self.deviation[index]),
                    direction=int(self.direction[index]),
                    n_probes=int(self.n_probes[index]),
                    n_asns=int(self.n_asns[index]),
                )
            )
        return alarms


class LinkInterner:
    """Bidirectional hashable-key ↔ dense-integer table.

    The detector-state analogue of the ingestion layer's
    :class:`~repro.atlas.columnar.IPInterner`: ids are assigned densely
    in first-seen order, so they double as row indices into the arena's
    state arrays.  Keys are arbitrary hashables in practice — links
    (ordered IP pairs) for the delay arena, (router, destination) model
    keys for the forwarding arena.
    """

    __slots__ = ("_ids", "keys")

    def __init__(self) -> None:
        #: id → key, in assignment order.  Treat as read-only.
        self.keys: List[Hashable] = []
        self._ids: Dict[Hashable, int] = {}

    def intern(self, key: Hashable) -> int:
        """Return the id for *key*, assigning the next free id if new."""
        ident = self._ids.get(key)
        if ident is None:
            ident = self._ids[key] = len(self.keys)
            self.keys.append(key)
        return ident

    def get(self, key: Hashable) -> Optional[int]:
        """The id of *key*, or None if it was never interned."""
        return self._ids.get(key)

    def lookup(self, ident: int) -> Hashable:
        """The key owning id *ident* (inverse of :meth:`intern`)."""
        return self.keys[ident]

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._ids


class DelayArena:
    """Structure-of-arrays drop-in for the per-link delay detector.

    State layout (all arrays indexed by the interned link id):

    ``_median``/``_lower``/``_upper``
        the Eq. 7 smoothed reference components (NaN while warming up);
    ``_warm``
        shape ``(capacity, 3, seed_bins)`` seed-median warm-up buffers
        (§4.2.4) for the three components;
    ``_warm_count``/``_bins_seen``/``_alarms_raised``/``_max_probes``
        per-link counters (``_max_probes`` carries the campaign-stats
        "max kept probes per link" aggregate so the engine needs no
        per-bin Python bookkeeping).

    :meth:`observe_bin` is the vectorized equivalent of calling
    :meth:`~repro.core.delaydetector.DelayChangeDetector.observe_interval`
    once per link, in input order, and is bit-identical to it.
    """

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        min_shift_ms: float = MIN_SHIFT_MS,
        seed_bins: int = SEED_BINS,
        winsorize: bool = True,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1): {alpha}")
        if min_shift_ms < 0:
            raise ValueError(f"min_shift_ms must be >= 0: {min_shift_ms}")
        if seed_bins < 1:
            raise ValueError(f"seed_bins must be >= 1: {seed_bins}")
        self.alpha = alpha
        self.min_shift_ms = min_shift_ms
        self.seed_bins = seed_bins
        self.winsorize = winsorize
        self.interner = LinkInterner()
        capacity = _INITIAL_CAPACITY
        self._median = np.full(capacity, np.nan)
        self._lower = np.full(capacity, np.nan)
        self._upper = np.full(capacity, np.nan)
        self._warm = np.empty((capacity, 3, seed_bins))
        self._warm_count = np.zeros(capacity, dtype=np.int64)
        self._bins_seen = np.zeros(capacity, dtype=np.int64)
        self._alarms_raised = np.zeros(capacity, dtype=np.int64)
        self._max_probes = np.zeros(capacity, dtype=np.int64)

    # -- state inspection ---------------------------------------------------

    @property
    def n_links(self) -> int:
        """How many links have ever been characterised."""
        return len(self.interner)

    def links(self) -> List[Link]:
        """Every link ever fed to the arena, in first-seen order."""
        return list(self.interner.keys)

    def reference_of(self, link: Link) -> Optional[WilsonInterval]:
        """Current smoothed reference of *link*, or None while warming up."""
        ident = self.interner.get(link)
        if ident is None or np.isnan(self._median[ident]):
            return None
        return WilsonInterval(
            median=float(self._median[ident]),
            lower=float(self._lower[ident]),
            upper=float(self._upper[ident]),
            n=int(self._bins_seen[ident]),
        )

    def bins_seen_of(self, link: Link) -> int:
        """Number of bins folded into *link*'s reference so far."""
        ident = self.interner.get(link)
        return int(self._bins_seen[ident]) if ident is not None else 0

    def alarms_raised_of(self, link: Link) -> int:
        """Number of delay alarms ever raised for *link*."""
        ident = self.interner.get(link)
        return int(self._alarms_raised[ident]) if ident is not None else 0

    def alarmed_links(self) -> Set[Link]:
        """Links with at least one alarm (the campaign-stats set)."""
        n = len(self.interner)
        keys = self.interner.keys
        return {
            keys[ident]
            for ident in np.flatnonzero(self._alarms_raised[:n] > 0)
        }

    def max_probes_map(self) -> Dict[Link, int]:
        """Per-link maximum kept-probe count over all observed bins."""
        n = len(self.interner)
        keys = self.interner.keys
        counts = self._max_probes
        return {keys[ident]: int(counts[ident]) for ident in range(n)}

    # -- growth -------------------------------------------------------------

    def _ensure_capacity(self, needed: int) -> None:
        capacity = self._median.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        grown = np.full(capacity, np.nan)
        grown[: self._median.shape[0]] = self._median
        self._median = grown
        for name in ("_lower", "_upper"):
            old = getattr(self, name)
            grown = np.full(capacity, np.nan)
            grown[: old.shape[0]] = old
            setattr(self, name, grown)
        warm = np.empty((capacity, 3, self.seed_bins))
        warm[: self._warm.shape[0]] = self._warm
        self._warm = warm
        for name in (
            "_warm_count",
            "_bins_seen",
            "_alarms_raised",
            "_max_probes",
        ):
            old = getattr(self, name)
            grown = np.zeros(capacity, dtype=np.int64)
            grown[: old.shape[0]] = old
            setattr(self, name, grown)

    def intern_links(self, links: Sequence[Link]) -> np.ndarray:
        """Dense ids for *links*, growing the state arrays as needed."""
        intern = self.interner.intern
        ids = np.fromiter(
            (intern(link) for link in links),
            dtype=np.int64,
            count=len(links),
        )
        self._ensure_capacity(len(self.interner))
        return ids

    def intern_ids(
        self,
        near_ids: Sequence[int],
        far_ids: Sequence[int],
        strings: Sequence[str],
        cache: Dict[Tuple[int, int], int],
    ) -> np.ndarray:
        """Arena rows for interned-ip link pairs, via a per-batch cache.

        The fused spine's id hand-off: link keys stay batch-scoped
        integer pairs until a pair misses *cache*, and only then is the
        ``(str, str)`` link tuple built (once per new link per batch)
        and interned.  Subsequent bins resolve the pair with one int-
        tuple dict hit — no string hashing on the hot path.
        """
        rows = np.empty(len(near_ids), dtype=np.int64)
        get = cache.get
        intern = self.interner.intern
        for position, pair in enumerate(zip(near_ids, far_ids)):
            row = get(pair)
            if row is None:
                row = cache[pair] = intern(
                    (strings[pair[0]], strings[pair[1]])
                )
            rows[position] = row
        self._ensure_capacity(len(self.interner))
        return rows

    # -- checkpointing ------------------------------------------------------

    def export_table(self) -> DelayTable:
        """Every link's state as a checkpoint table, sorted by link.

        The reference/counter arrays are gathered in sorted-link order
        (the serial pipeline's row order) and the §4.2.4 warm-up
        buffers compacted into one flat ``warm_values`` pool —
        ``3 * warm_count`` values per *warming* link (component major:
        medians, lowers, uppers), nothing for ready links, whose buffer
        slots are dead storage.  The inverse of :meth:`import_table`.
        """
        keys = self.interner.keys
        order = np.array(
            sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64
        )
        median = self._median[order]
        warm_count = self._warm_count[order]
        stored = np.where(np.isnan(median), warm_count, 0)
        warm_offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(3 * stored, out=warm_offsets[1:])
        return DelayTable(
            links=[keys[row] for row in order.tolist()],
            median=median,
            lower=self._lower[order],
            upper=self._upper[order],
            warm_count=warm_count,
            bins_seen=self._bins_seen[order],
            alarms_raised=self._alarms_raised[order],
            max_probes=self._max_probes[order],
            warm_offsets=warm_offsets,
            warm_values=self._warm[order][self._warm_mask(stored)],
            seed_bins=self.seed_bins,
        )

    def import_table(self, table: DelayTable) -> None:
        """Load a checkpoint table (rows in any order) into this fresh
        arena.

        The arena must be empty — checkpoints restore into newly built
        engines, never merge into live state.  Every subsequent
        :meth:`observe_bin` is bit-identical to one on the arena the
        table was exported from.
        """
        if len(self.interner):
            raise ValueError("import_table requires an empty arena")
        self.intern_links(table.links)  # ids are dense 0..n-1
        n = len(table.links)
        self._median[:n] = table.median
        self._lower[:n] = table.lower
        self._upper[:n] = table.upper
        self._warm_count[:n] = table.warm_count
        self._bins_seen[:n] = table.bins_seen
        self._alarms_raised[:n] = table.alarms_raised
        self._max_probes[:n] = table.max_probes
        stored = np.where(np.isnan(table.median), table.warm_count, 0)
        self._warm[:n][self._warm_mask(stored)] = table.warm_values

    def _warm_mask(self, stored: np.ndarray) -> np.ndarray:
        """Which ``(row, component, slot)`` warm-up cells hold values.

        Row *i* keeps its first ``stored[i]`` slots of each component,
        so the mask's C-order walk is the checkpoint's ``warm_values``
        layout.
        """
        slots = np.arange(self.seed_bins)
        mask = slots[None, :] < stored[:, None]
        return np.broadcast_to(
            mask[:, None, :], (len(stored), 3, self.seed_bins)
        )

    # -- the per-bin kernel -------------------------------------------------

    def observe_bin(
        self,
        timestamp: int,
        links: Sequence[Link],
        medians: np.ndarray,
        lowers: np.ndarray,
        uppers: np.ndarray,
        counts: np.ndarray,
        n_probes: Sequence[int],
        n_asns: Sequence[int],
    ) -> List[DelayAlarm]:
        """Judge and update every observed link of one bin at once.

        *links* must be unique within the call (they are dict keys in
        the pipeline) and aligned with the five observation arrays —
        the output of
        :func:`~repro.stats.wilson.median_confidence_interval_arrays`
        plus the diversity verdict's kept-probe/AS counts.  Returns the
        bin's alarms in input (i.e. sorted-link) order; exactly the
        alarms the scalar detector would emit, bit for bit.
        """
        if not links:
            return []
        ids = self.intern_links(links)
        rows = self.observe_bin_rows(
            ids, medians, lowers, uppers, counts, n_probes, n_asns
        )
        if not len(rows):
            return []
        alarm_links = [links[pos] for pos in rows.positions.tolist()]
        return rows.materialize(timestamp, alarm_links)

    def observe_bin_rows(
        self,
        ids: np.ndarray,
        medians: np.ndarray,
        lowers: np.ndarray,
        uppers: np.ndarray,
        counts: np.ndarray,
        n_probes: Sequence[int],
        n_asns: Sequence[int],
    ) -> DelayAlarmRows:
        """The :meth:`observe_bin` kernel over pre-interned arena rows.

        The fused spine's array ingestion point: *ids* come from
        :meth:`intern_links`/:meth:`intern_ids`, no link keys are
        touched, and the bin's alarms come back as
        :class:`DelayAlarmRows` for the caller to materialize at the
        reporting boundary.  State updates (EWMA, warm-up, counters)
        are identical to :meth:`observe_bin`.
        """
        obs_m = np.asarray(medians, dtype=float)
        obs_l = np.asarray(lowers, dtype=float)
        obs_u = np.asarray(uppers, dtype=float)
        probes = np.asarray(n_probes, dtype=np.int64)

        ref_m = self._median[ids]
        ready = ~np.isnan(ref_m)
        rows = DelayAlarmRows.empty()
        if ready.any():
            idx_ready = np.flatnonzero(ready)
            rid = ids[idx_ready]
            rm = ref_m[idx_ready]
            rl = self._lower[rid]
            ru = self._upper[rid]
            om = obs_m[idx_ready]
            ol = obs_l[idx_ready]
            ou = obs_u[idx_ready]

            deviation = deviation_score_batch(om, ol, ou, rm, rl, ru)
            anomalous = deviation > 0.0
            shift = np.abs(om - rm)
            alarm_mask = anomalous & (shift >= self.min_shift_ms)

            if alarm_mask.any():
                alarm_positions = np.flatnonzero(alarm_mask)
                arena_rows = rid[alarm_positions]
                self._alarms_raised[arena_rows] += 1
                sources = idx_ready[alarm_positions]
                rows = DelayAlarmRows(
                    positions=sources,
                    arena_rows=arena_rows,
                    obs_median=obs_m[sources],
                    obs_lower=obs_l[sources],
                    obs_upper=obs_u[sources],
                    obs_n=np.asarray(counts, dtype=np.int64)[sources],
                    ref_median=rm[alarm_positions],
                    ref_lower=rl[alarm_positions],
                    ref_upper=ru[alarm_positions],
                    # Reference n is the pre-update bins_seen, read here
                    # before the bin-wide increment below.
                    ref_n=self._bins_seen[arena_rows].copy(),
                    deviation=deviation[alarm_positions],
                    direction=np.where(
                        om[alarm_positions] > rm[alarm_positions], 1, -1
                    ),
                    n_probes=probes[sources],
                    n_asns=np.asarray(n_asns, dtype=np.int64)[sources],
                )

            # Eq. 7 update, winsorized for the anomalous subset: clamp
            # the observation onto the violated reference bound before
            # smoothing (same offsets the scalar _winsorized applies).
            um, ul, uu = om, ol, ou
            if self.winsorize and anomalous.any():
                offsets = np.where(
                    anomalous, winsorize_offsets_batch(om, rl, ru), 0.0
                )
                if np.any(offsets != 0.0):
                    um = np.where(anomalous, om + offsets, om)
                    ul = np.where(anomalous, ol + offsets, ol)
                    uu = np.where(anomalous, ou + offsets, ou)
            alpha = self.alpha
            decay = 1.0 - alpha
            self._median[rid] = alpha * um + decay * rm
            self._lower[rid] = alpha * ul + decay * rl
            self._upper[rid] = alpha * uu + decay * ru

        if not ready.all():
            # §4.2.4 warm-up: buffer the observation; links completing
            # their seed window get the three-bin component-wise median.
            idx_warm = np.flatnonzero(~ready)
            wid = ids[idx_warm]
            slot = self._warm_count[wid]
            self._warm[wid, 0, slot] = obs_m[idx_warm]
            self._warm[wid, 1, slot] = obs_l[idx_warm]
            self._warm[wid, 2, slot] = obs_u[idx_warm]
            slot = slot + 1
            self._warm_count[wid] = slot
            done = slot >= self.seed_bins
            if done.any():
                did = wid[done]
                seeds = np.median(self._warm[did], axis=2)
                self._median[did] = seeds[:, 0]
                self._lower[did] = seeds[:, 1]
                self._upper[did] = seeds[:, 2]

        self._bins_seen[ids] += 1
        current = self._max_probes[ids]
        self._max_probes[ids] = np.where(
            current >= probes, current, probes
        )
        return rows


class ForwardingArena:
    """Pooled structure-of-arrays forwarding-anomaly detector (§5).

    Per-model state is dense-id indexed: ``bins_seen``/``alarms_raised``
    counters in flat lists (they are read one key at a time on the hot
    path, where a Python list avoids NumPy's per-element scalar boxing)
    and the sparse smoothed reference patterns as one compact dict per
    id (their key sets churn every bin, so a fixed-width array would
    mostly hold padding — the paper reports ≈ 4 next hops per model).
    The *per-bin* work is what is vectorized: value pooling, the
    correlation batch and the Eq. 8 EWMA all run over CSR-style flat
    arrays covering every model of the bin at once.

    Per bin, :meth:`observe_bin` aligns every model's pattern against
    its reference **once** on the sorted union key order, pools the
    aligned values into CSR-style offset arrays, judges all
    past-warm-up models with one
    :func:`~repro.stats.correlation.pearson_correlation_pooled` call,
    smooths every model's reference with one flat Eq. 8 EWMA over the
    pooled values, and computes Eq. 9 responsibilities only for the
    flagged models.  Output is bit-identical to
    :meth:`~repro.core.forwarding.ForwardingAnomalyDetector.observe_bin`.
    """

    def __init__(
        self,
        tau: float = DEFAULT_TAU,
        alpha: float = DEFAULT_ALPHA,
        warmup_bins: int = DEFAULT_WARMUP_BINS,
        prune_below: float = PRUNE_BELOW,
    ) -> None:
        if not -1.0 <= tau <= 0.0:
            raise ValueError(f"tau must be in [-1, 0]: {tau}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1): {alpha}")
        if warmup_bins < 1:
            raise ValueError(f"warmup_bins must be >= 1: {warmup_bins}")
        if prune_below < 0:
            raise ValueError(f"prune_below must be >= 0: {prune_below}")
        self.tau = tau
        self.alpha = alpha
        self.warmup_bins = warmup_bins
        self.prune_below = prune_below
        self.interner = LinkInterner()
        self._routers: Set[str] = set()
        self._references: List[Pattern] = []
        self._bins_seen: List[int] = []
        self._alarms_raised: List[int] = []

    # -- state inspection ---------------------------------------------------

    @property
    def n_models(self) -> int:
        """Distinct (router, destination) models ever observed."""
        return len(self.interner)

    @property
    def n_routers(self) -> int:
        """Distinct router IPs with at least one model (paper's 170k)."""
        return len(self._routers)

    def reference_of(self, key: ModelKey) -> Optional[Pattern]:
        """Copy of *key*'s smoothed reference pattern, or None."""
        ident = self.interner.get(key)
        if ident is None:
            return None
        return dict(self._references[ident])

    def bins_seen_of(self, key: ModelKey) -> int:
        """Number of patterns folded into *key*'s reference so far."""
        ident = self.interner.get(key)
        return self._bins_seen[ident] if ident is not None else 0

    def alarms_raised_of(self, key: ModelKey) -> int:
        """Number of forwarding alarms ever raised for *key*."""
        ident = self.interner.get(key)
        return self._alarms_raised[ident] if ident is not None else 0

    def next_hops_total(self) -> int:
        """Summed reference sizes over all models (for stat merging)."""
        return sum(len(reference) for reference in self._references)

    def mean_next_hops(self) -> float:
        """Average reference size over all models (paper reports ≈ 4)."""
        if not self._references:
            return 0.0
        return self.next_hops_total() / len(self._references)

    # -- checkpointing ------------------------------------------------------

    def export_table(self) -> ForwardingTable:
        """Every model's state as a checkpoint table, sorted by key.

        Rows follow sorted (router, destination) order and each smoothed
        reference pattern is flattened into ``ref_hops``/``ref_weights``
        in sorted-hop order, so the table is independent of the process
        hash seed (reference dict order is never semantics-bearing —
        every consumer sorts before reducing).  The inverse of
        :meth:`import_table`.
        """
        keys = self.interner.keys
        order = sorted(range(len(keys)), key=keys.__getitem__)
        hops: List[str] = []
        weights: List[float] = []
        offsets = [0]
        for ident in order:
            reference = self._references[ident]
            for hop in sorted(reference):
                hops.append(hop)
                weights.append(reference[hop])
            offsets.append(len(hops))
        return ForwardingTable(
            keys=[keys[ident] for ident in order],
            bins_seen=np.array(
                [self._bins_seen[ident] for ident in order], dtype=np.int64
            ),
            alarms_raised=np.array(
                [self._alarms_raised[ident] for ident in order],
                dtype=np.int64,
            ),
            ref_offsets=np.array(offsets, dtype=np.int64),
            ref_hops=hops,
            ref_weights=np.array(weights, dtype=np.float64),
        )

    def import_table(self, table: ForwardingTable) -> None:
        """Load a checkpoint table (rows in any order) into this fresh
        arena.

        The arena must be empty.  Subsequent :meth:`observe_bin` calls
        are bit-identical to ones on the exporting arena (all reference
        consumers align on sorted key order, so insertion order is
        irrelevant).
        """
        if len(self.interner):
            raise ValueError("import_table requires an empty arena")
        hops = table.ref_hops
        weights = table.ref_weights.tolist()
        bounds = table.ref_offsets.tolist()
        for row, key in enumerate(table.keys):
            self.interner.intern(key)
            self._routers.add(key[0])
            start, stop = bounds[row], bounds[row + 1]
            self._references.append(
                dict(zip(hops[start:stop], weights[start:stop]))
            )
        self._bins_seen = table.bins_seen.tolist()
        self._alarms_raised = table.alarms_raised.tolist()

    # -- the per-bin kernel -------------------------------------------------

    def observe_bin(
        self, timestamp: int, patterns: Dict[ModelKey, Pattern]
    ) -> List[ForwardingAlarm]:
        """Judge and update every model of one bin; return its alarms.

        Mirrors the scalar detector exactly: keys are processed in
        sorted order, empty patterns are skipped without creating state,
        models are judged only past ``warmup_bins`` with a non-empty
        reference, and the Eq. 8 update (first pattern verbatim, then
        EWMA over the sorted union of hops with sub-``prune_below``
        weights dropped) is applied after the comparison.
        """
        return self.observe_bin_sorted(
            timestamp, [(key, patterns[key]) for key in sorted(patterns)]
        )

    def observe_bin_ids(
        self,
        timestamp: int,
        routers: np.ndarray,
        dsts: np.ndarray,
        hop_offsets: np.ndarray,
        hop_ids: np.ndarray,
        hop_counts: np.ndarray,
        strings: Sequence[str],
        key_cache: Dict[Tuple[int, int], ModelKey],
    ) -> List[ForwardingAlarm]:
        """Ingest one bin's patterns as interned-id CSR arrays.

        The fused spine's forwarding entry point: models arrive as
        (router id, destination id) rows **pre-sorted in string order**
        (see :func:`repro.core.fused.extract_bin_fused`) with their
        next-hop patterns flattened under *hop_offsets*.  String
        materialization happens here, once per new model key per batch
        (*key_cache*), because the cross-bin reference state is
        inherently string-keyed; negative hop ids (lost packets) and a
        literal ``"*"`` responder both accumulate under
        :data:`~repro.core.alarms.UNRESPONSIVE`, exactly as the dict
        path merges them.
        """
        items: List[Tuple[ModelKey, Pattern]] = []
        get_key = key_cache.get
        hop_list = hop_ids.tolist()
        count_list = hop_counts.tolist()
        offset_list = hop_offsets.tolist()
        for position, pair in enumerate(
            zip(routers.tolist(), dsts.tolist())
        ):
            key = get_key(pair)
            if key is None:
                key = key_cache[pair] = (
                    strings[pair[0]],
                    strings[pair[1]],
                )
            pattern: Pattern = {}
            for index in range(
                offset_list[position], offset_list[position + 1]
            ):
                ident = hop_list[index]
                hop = UNRESPONSIVE if ident < 0 else strings[ident]
                pattern[hop] = pattern.get(hop, 0.0) + count_list[index]
            items.append((key, pattern))
        return self.observe_bin_sorted(timestamp, items)

    def observe_bin_sorted(
        self,
        timestamp: int,
        items: Sequence[Tuple[ModelKey, Pattern]],
    ) -> List[ForwardingAlarm]:
        """The :meth:`observe_bin` kernel over pre-sorted (key, pattern)
        rows.

        *items* must be sorted by key (the scalar detector's processing
        order) and free of duplicate keys; both :meth:`observe_bin` and
        :meth:`observe_bin_ids` reduce to this.
        """
        interner = self.interner
        references = self._references
        bins_seen = self._bins_seen

        # One alignment pass: sorted-union keys serve both the Pearson
        # comparison and the Eq. 8 smoothing update.
        entries: List[Tuple[int, Pattern, List[str]]] = []  # id, pattern, union
        first_seen: List[Tuple[int, Pattern]] = []
        obs_pool: List[float] = []
        ref_pool: List[float] = []
        offsets = [0]
        judged_rows: List[int] = []  # entry indices judged this bin
        warmup_bins = self.warmup_bins
        for key, pattern in items:
            if not pattern:
                continue
            ident = interner.intern(key)
            if ident >= len(references):
                references.append({})
                bins_seen.append(0)
                self._alarms_raised.append(0)
                self._routers.add(key[0])
            if bins_seen[ident] == 0:
                # First pattern becomes the reference verbatim (Eq. 8
                # would otherwise suppress every hop by (1-α)).
                for value in pattern.values():
                    if value < 0:
                        raise ValueError(
                            "forwarding pattern counts must be >= 0"
                        )
                first_seen.append((ident, pattern))
                continue
            reference = references[ident]
            union = sorted(reference.keys() | pattern.keys(), key=str)
            if reference and bins_seen[ident] >= warmup_bins:
                judged_rows.append(len(entries))
            entries.append((ident, pattern, union))
            pattern_get = pattern.get
            reference_get = reference.get
            obs_pool += [pattern_get(k, 0.0) for k in union]
            ref_pool += [reference_get(k, 0.0) for k in union]
            offsets.append(len(obs_pool))

        obs_values = np.asarray(obs_pool, dtype=float)
        ref_values = np.asarray(ref_pool, dtype=float)
        if obs_values.size and obs_values.min() < 0:
            raise ValueError("forwarding pattern counts must be >= 0")

        alarms: List[ForwardingAlarm] = []
        if judged_rows:
            # The pooled correlation runs over every row (per-row block
            # arithmetic is independent, so warm-up rows cost a few
            # vector lanes and change nothing); only judged rows are
            # consumed.
            correlations = pearson_correlation_pooled(
                obs_values, ref_values, offsets
            )
            for row in judged_rows:
                correlation = correlations[row]
                if correlation >= self.tau:
                    continue
                ident, pattern, _ = entries[row]
                key = interner.lookup(ident)
                reference = references[ident]
                alarms.append(
                    ForwardingAlarm(
                        timestamp=timestamp,
                        router_ip=key[0],
                        destination=key[1],
                        correlation=correlation,
                        responsibilities=responsibility_scores(
                            pattern, reference, correlation
                        ),
                        pattern=dict(pattern),
                        reference=dict(reference),
                    )
                )
                self._alarms_raised[ident] += 1

        # Eq. 8: one flat EWMA over every model's pooled next hops, then
        # scatter back into per-model reference dicts, pruning weights
        # below prune_below — the same per-element arithmetic and prune
        # rule as VectorSmoother.update, applied bin-wide at once.
        if entries:
            alpha = self.alpha
            smoothed = alpha * obs_values + (1.0 - alpha) * ref_values
            # tolist() converts the whole pool to Python floats in one C
            # call; the per-model scatter below then only slices lists.
            values = smoothed.tolist()
            keeps = (smoothed >= self.prune_below).tolist()
            for row, (ident, _, union) in enumerate(entries):
                start, stop = offsets[row], offsets[row + 1]
                references[ident] = {
                    hop: value
                    for hop, value, kept in zip(
                        union, values[start:stop], keeps[start:stop]
                    )
                    if kept
                }
                bins_seen[ident] += 1
        for ident, pattern in first_seen:
            references[ident] = {
                hop: float(value)
                for hop, value in pattern.items()
                if value > 0
            }
            bins_seen[ident] = 1
        return alarms
