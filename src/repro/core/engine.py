"""In-process execution engine with vectorized hot paths.

:class:`~repro.reference.pipeline.Pipeline` is the paper-shaped
*reference* implementation: it analyses links one at a time in readable
pure-Python loops.  This module is the *production* execution layer
built for the paper's actual scale (2.8 billion traceroutes) — what
every command, :func:`create_pipeline` and
:func:`~repro.core.pipeline.analyze_campaign` run — and it has exactly
one path through it:

* every bin is columnar — object-model input is encoded at the door
  with :meth:`~repro.atlas.columnar.TracerouteBatch.from_traceroutes`
  against one engine-owned interner — and
  :func:`~repro.core.fused.extract_bin_fused` fuses differential-RTT
  extraction (§4.2.1) and forwarding-pattern extraction (§5.1) into one
  vectorized pass over the flat arrays;
* :class:`Engine` holds the detector state in the structure-of-arrays
  arenas (:class:`~repro.core.arena.DelayArena`,
  :class:`~repro.core.arena.ForwardingArena`) and analyses each bin
  with batched kernels —
  :func:`~repro.stats.wilson.median_confidence_interval_arrays` (one
  padded 2-D sort per bin instead of one sort per link) feeding the
  arena's vectorized Eq. 6/7 detection, and pooled Eq. 8 smoothing +
  :func:`~repro.stats.correlation.pearson_correlation_pooled` for the
  forwarding side — producing the same
  :class:`~repro.core.pipeline.BinResult` and
  :class:`~repro.core.pipeline.CampaignStats` the serial path produces.

One core is enough for the paper's rate: 2.8 billion traceroutes over
eight months is about 130 traceroutes/s, and this engine runs at tens
of thousands per second.  Both detectors keep independent state per
link (§4) and per router and destination (§5), so that state is one
arena pair, and a snapshot lists it sorted by link and model key — the
serial pipeline's order, so the two write the same checkpoint bytes.

Every numeric step performs the scalar path's float64 arithmetic in
the same order and the diversity filter draws per-link random streams,
so the output is bit-identical to the reference
(``tests/test_engine_equivalence.py``, ``tests/test_fused_spine.py``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.atlas.columnar import (
    NO_INT,
    BatchView,
    IPInterner,
    TracerouteBatch,
)
from repro.atlas.model import Traceroute
from repro.atlas.stream import binned_payloads
from repro.core.alarms import DelayAlarm, Link
from repro.core.arena import DelayAlarmRows, DelayArena, ForwardingArena
from repro.core.checkpoint import (
    EngineSnapshot,
    SnapshotError,
    config_fingerprint,
    prepare_resume,
)
from repro.core.diversity import DiversityFilter, DiversityVerdict
from repro.core.forwarding import ModelKey
from repro.core.fused import FusedBin, extend_ranks, extract_bin_fused
from repro.core.pipeline import (
    BinResult,
    CampaignStats,
    PipelineConfig,
    TrackedLinkPoint,
)
from repro.obs.metrics import MetricsRegistry, default_registry, exponential_buckets
from repro.obs.tracing import NULL_TIMER, NULL_TRACER
from repro.stats.wilson import (
    WilsonInterval,
    median_confidence_interval,
    median_confidence_interval_arrays,
)


class _FusedLinkObs:
    """Per-link read view over a :class:`~repro.core.fused.FusedBin`.

    Satisfies :class:`~repro.core.diversity.ProbeObservations`, the
    surface the diversity filter consumes (``link``, ``probe_asn``,
    ``probe_ids``), and gathers samples for the batched
    Wilson kernel and the tracked-link recorder (``samples_array``),
    without copying anything out of the bin's flat arrays: samples stay
    in the shared pool, segments are (start, stop) spans, and the
    per-probe segment map is built only when a partial/ordered gather
    actually needs it (tracked or rebalanced links).  Iteration orders
    match ``LinkObservations`` exactly — ``probe_asn`` insertion order is
    segment order, per-probe segments stay in insertion order — so
    diversity draws and tracked statistics are bit-identical.
    """

    __slots__ = (
        "link",
        "probe_asn",
        "_pool",
        "_seg_probes",
        "_sample_offsets",
        "_seg_lo",
        "_seg_hi",
        "_segments",
    )

    def __init__(
        self,
        link: Link,
        probe_asn: Dict[int, Optional[int]],
        pool: np.ndarray,
        seg_probes: List[int],
        sample_offsets: List[int],
        seg_lo: int,
        seg_hi: int,
    ) -> None:
        self.link = link
        self.probe_asn = probe_asn
        self._pool = pool
        self._seg_probes = seg_probes
        self._sample_offsets = sample_offsets
        self._seg_lo = seg_lo
        self._seg_hi = seg_hi
        self._segments: Optional[Dict[int, List[Tuple[int, int]]]] = None

    def probe_ids(self) -> Iterable[int]:
        """Probe identifiers in first-observation order."""
        return self.probe_asn.keys()

    @property
    def n_probes(self) -> int:
        return len(self.probe_asn)

    def _segment_map(self) -> Dict[int, List[Tuple[int, int]]]:
        segments = self._segments
        if segments is None:
            segments = self._segments = {}
            offsets = self._sample_offsets
            probes = self._seg_probes
            for index in range(self._seg_lo, self._seg_hi):
                segments.setdefault(probes[index], []).append(
                    (offsets[index], offsets[index + 1])
                )
        return segments

    def samples_array(
        self,
        probe_ids: Optional[Iterable[int]] = None,
        ordered: bool = True,
    ) -> np.ndarray:
        """The samples of *probe_ids* (default: all) as float64.

        Same values and order as ``LinkObservations.all_samples``.  With
        ``ordered=False`` only the multiset matters (the batched Wilson
        kernel sorts): when *probe_ids* covers every probe the result is
        a *view* of the bin's sample pool; gathers allocate fresh arrays.
        """
        if probe_ids is not None:
            probe_ids = list(probe_ids)
        if not ordered:
            covered = (
                len(self.probe_asn)
                if probe_ids is None
                else sum(1 for p in probe_ids if p in self.probe_asn)
            )
            if covered == len(self.probe_asn):
                offsets = self._sample_offsets
                return self._pool[
                    offsets[self._seg_lo] : offsets[self._seg_hi]
                ]
        segments = self._segment_map()
        if probe_ids is None:
            chosen = [
                span for spans in segments.values() for span in spans
            ]
        else:
            chosen = [
                span
                for probe_id in probe_ids
                if probe_id in segments
                for span in segments[probe_id]
            ]
        total = sum(stop - start for start, stop in chosen)
        out = np.empty(total, dtype=np.float64)
        if total == 0:
            return out
        pool = self._pool
        position = 0
        for start, stop in chosen:
            length = stop - start
            out[position : position + length] = pool[start:stop]
            position += length
        return out


#: Stage-latency bounds: 100 microseconds up to ~1.6 seconds per bin.
_STAGE_BUCKETS = exponential_buckets(0.0001, 4.0, 8)

#: The rank table of an empty interner.
_NO_RANKS = np.empty(0, dtype=np.int64)


class _EngineMetrics:
    """The engine's metric families, with hot children pre-interned.

    Families register against the given registry (idempotently, so
    several engines share them); on a disabled registry every handle is
    a shared no-op.  Nothing here is read back by the engine —
    instrumentation cannot change detection output.
    """

    __slots__ = (
        "bins_fused", "traceroutes", "links_analyzed",
        "alarms_delay", "alarms_forwarding", "stage",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        bins = registry.counter(
            "repro_engine_bins_total",
            "Time bins processed, by extraction path.",
            ("path",),
        )
        self.bins_fused = bins.labels("fused")
        self.traceroutes = registry.counter(
            "repro_engine_traceroutes_total",
            "Traceroutes folded into processed bins.",
        )
        self.links_analyzed = registry.counter(
            "repro_engine_links_analyzed_total",
            "Links that passed the diversity filter and were analysed.",
        )
        alarms = registry.counter(
            "repro_engine_alarms_total",
            "Alarms emitted by the detection arenas.",
            ("kind",),
        )
        self.alarms_delay = alarms.labels("delay")
        self.alarms_forwarding = alarms.labels("forwarding")
        stage = registry.histogram(
            "repro_engine_stage_seconds",
            "Per-bin wall time by pipeline stage.",
            ("stage",),
            buckets=_STAGE_BUCKETS,
        )
        self.stage = {name: stage.labels(name) for name in ("extract", "detect")}


class Engine:
    """Vectorized drop-in for the reference
    :class:`~repro.reference.pipeline.Pipeline`.

    Same surface (``process_bin`` / ``run`` / ``stats`` / ``tracked`` /
    ``config``), same output bit for bit, different execution strategy:
    one :class:`~repro.core.diversity.DiversityFilter`, one
    :class:`~repro.core.arena.DelayArena` and one
    :class:`~repro.core.arena.ForwardingArena` judge each fused columnar
    bin with batched kernels.  All of a bin's accepted links are
    characterised with one batched Wilson call and judged/updated with
    the arena's vectorized Eq. 6/7 kernels, and all of its forwarding
    models with the arena's pooled Eq. 8 smoothing and one batched
    correlation call.  Alarms leave in sorted link / model-key order —
    exactly the order the serial loop emits them in.  Everything lives
    in this process; there is nothing to close.
    """

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()
        cfg = self.config
        self.diversity = DiversityFilter(
            min_asns=cfg.min_asns,
            min_entropy=cfg.min_entropy,
            seed=cfg.seed,
        )
        self.delay_arena = DelayArena(
            alpha=cfg.alpha,
            min_shift_ms=cfg.min_shift_ms,
            winsorize=cfg.winsorize,
        )
        self.forwarding_arena = ForwardingArena(
            tau=cfg.tau,
            alpha=cfg.alpha,
            warmup_bins=cfg.forwarding_warmup,
        )
        #: Per-link tracked series (same content as the serial
        #: pipeline's ``tracked`` attribute).
        self.tracked: Dict[Link, List[TrackedLinkPoint]] = {
            link: [] for link in cfg.track_links
        }
        self._links_seen: Set[Link] = set()
        self._bins = 0
        self._traceroutes = 0
        self._last_timestamp: Optional[int] = None
        # The id space object-model bins are encoded into at the door.
        self._object_interner = IPInterner()
        # Id-keyed state, valid for one interner (its ids are
        # append-only, so the caches survive bins, batches and table
        # growth): the interner they describe, the string-order rank
        # table of its first strings, and the id-pair -> link / arena
        # row / model key caches.
        self._interner: Optional[IPInterner] = None
        self._ranks = _NO_RANKS
        self._pair_links: Dict[Tuple[int, int], Link] = {}
        self._pair_rows: Dict[Tuple[int, int], int] = {}
        self._model_keys: Dict[Tuple[int, int], ModelKey] = {}
        #: Stage profiler hook (``extract`` / ``detect``); swap in an
        #: enabled StageTimer to collect per-bin timings.
        self.profiler = NULL_TIMER
        #: Span tracer hook (``bin`` -> stage spans); swap in an enabled
        #: :class:`repro.obs.Tracer` to record a timeline.
        self.tracer = NULL_TRACER
        #: Metric families, bound to the process default registry at
        #: construction (swap the default before building the engine to
        #: inject, e.g. a disabled registry for overhead benchmarks).
        self.metrics = _EngineMetrics(default_registry())

    # -- observability (telemetry only; never read back) -------------------

    def _charge(self, stage: str, start: float) -> float:
        """Charge ``start``..now to a stage on every telemetry surface.

        Feeds the attached profiler (``--timings``), the stage-latency
        histogram and the span tracer; returns the measured end time so
        consecutive stages share one clock read.
        """
        now = perf_counter()
        elapsed = now - start
        self.profiler.add(stage, elapsed)
        self.metrics.stage[stage].observe(elapsed)
        self.tracer.add_span(stage, start, elapsed)
        return now

    # -- per-bin processing ------------------------------------------------

    def process_bin(
        self,
        timestamp: int,
        traceroutes: Union[Sequence[Traceroute], TracerouteBatch, BatchView],
    ) -> BinResult:
        """Run both methods over one closed time bin.

        Every bin goes down the fused spine.  Object-model traceroutes
        are encoded into columns first (so they take
        :meth:`~repro.atlas.columnar.TracerouteBatch.append`'s contract:
        a negative ``from_asn``/``msm_id`` raises, a NaN RTT is a
        missing RTT); a columnar batch/view is read as is.  Extraction
        emits interned-id flat arrays
        (:func:`~repro.core.fused.extract_bin_fused`), the arenas judge
        them, and delay alarms come back as arrays — the str-keyed
        :class:`~repro.core.alarms.DelayAlarm` objects are built here,
        once.
        """
        bin_start = perf_counter()
        if not isinstance(traceroutes, (TracerouteBatch, BatchView)):
            traceroutes = TracerouteBatch.from_traceroutes(
                traceroutes, interner=self._object_interner
            )
        batch = (
            traceroutes.batch
            if isinstance(traceroutes, BatchView)
            else traceroutes
        )
        interner = batch.interner
        strings = interner.strings
        if interner is not self._interner:
            # A new id space: every id-keyed cache is void.
            self._interner = interner
            self._ranks = _NO_RANKS
            self._pair_links = {}
            self._pair_rows = {}
            self._model_keys = {}
        if len(strings) != len(self._ranks):
            # Old ids keep their meaning as an interner grows, so new
            # addresses cost a rank refresh of the new strings only —
            # never the caches.
            self._ranks = extend_ranks(self._ranks, strings)
        fused = extract_bin_fused(traceroutes, self._ranks)
        detect_start = self._charge("extract", bin_start)
        delay_alarms, n_analyzed = self._detect_delay(
            timestamp, fused, strings
        )
        forwarding_alarms = self.forwarding_arena.observe_bin_ids(
            timestamp,
            fused.model_router,
            fused.model_dst,
            fused.model_hop_offsets,
            fused.hop_ids,
            fused.hop_counts,
            strings,
            self._model_keys,
        )
        self._charge("detect", detect_start)

        self._bins += 1
        self._traceroutes += len(traceroutes)
        self._last_timestamp = timestamp
        metrics = self.metrics
        metrics.bins_fused.inc()
        metrics.traceroutes.inc(len(traceroutes))
        metrics.links_analyzed.inc(n_analyzed)
        if delay_alarms:
            metrics.alarms_delay.inc(len(delay_alarms))
        if forwarding_alarms:
            metrics.alarms_forwarding.inc(len(forwarding_alarms))
        self.tracer.add_span(
            "bin",
            bin_start,
            perf_counter() - bin_start,
            args={"timestamp": timestamp, "path": "fused"},
        )
        return BinResult(
            timestamp=timestamp,
            n_traceroutes=len(traceroutes),
            n_links_observed=fused.n_links,
            n_links_analyzed=n_analyzed,
            delay_alarms=delay_alarms,
            forwarding_alarms=forwarding_alarms,
        )

    def _detect_delay(
        self, timestamp: int, fused: FusedBin, strings: List[str]
    ) -> Tuple[List[DelayAlarm], int]:
        """The delay method over one fused bin: (alarms, links analyzed).

        Links arrive pre-sorted in string order as interned-id CSR
        arrays, the diversity filter reads them through zero-copy
        :class:`_FusedLinkObs` views, the delay arena ingests arena rows
        directly (:meth:`~repro.core.arena.DelayArena.observe_bin_rows`),
        and the alarmed rows come back in that sorted order.  The
        hypothesis property in ``tests/test_fused_spine.py`` holds the
        output bit-identical to the serial oracle.
        """
        near = fused.link_near.tolist()
        far = fused.link_far.tolist()
        seg_offsets = fused.link_seg_offsets.tolist()
        seg_probes = fused.seg_probe.tolist()
        seg_asns = fused.seg_asn.tolist()
        sample_offsets = fused.seg_sample_offsets.tolist()
        pool = fused.samples

        pair_links = self._pair_links
        links_seen = self._links_seen
        tracked = self.tracked
        evaluate = self.diversity.evaluate
        accepted_pairs: List[Tuple[int, int]] = []
        n_probes: List[int] = []
        n_asns: List[int] = []
        sample_arrays: List[np.ndarray] = []
        tracked_accepted: List[
            Tuple[int, Link, DiversityVerdict, _FusedLinkObs]
        ] = []
        tracked_rejected: List[
            Tuple[Link, DiversityVerdict, _FusedLinkObs]
        ] = []
        tracked_observed: Set[Link] = set()
        for index in range(fused.n_links):
            pair = (near[index], far[index])
            link = pair_links.get(pair)
            if link is None:
                # Once per link per interner: set semantics make this
                # the serial pipeline's per-bin observed-links update.
                link = pair_links[pair] = (
                    strings[pair[0]],
                    strings[pair[1]],
                )
                links_seen.add(link)
            seg_lo = seg_offsets[index]
            seg_hi = seg_offsets[index + 1]
            probe_asn: Dict[int, Optional[int]] = {}
            for seg in range(seg_lo, seg_hi):
                asn = seg_asns[seg]
                probe_asn[seg_probes[seg]] = (
                    None if asn == NO_INT else asn
                )
            view = _FusedLinkObs(
                link, probe_asn, pool, seg_probes, sample_offsets,
                seg_lo, seg_hi,
            )
            verdict = evaluate(view)
            is_tracked = link in tracked
            if is_tracked:
                tracked_observed.add(link)
            if verdict.accepted:
                if is_tracked:
                    tracked_accepted.append(
                        (len(accepted_pairs), link, verdict, view)
                    )
                accepted_pairs.append(pair)
                n_probes.append(len(verdict.kept_probes))
                n_asns.append(verdict.n_asns)
                sample_arrays.append(
                    view.samples_array(verdict.kept_probes, ordered=False)
                )
            elif is_tracked:
                tracked_rejected.append((link, verdict, view))

        medians, lowers, uppers, counts = median_confidence_interval_arrays(
            sample_arrays, z=self.config.z
        )
        arena = self.delay_arena
        references_before = {
            link: arena.reference_of(link)
            for _, link, _, _ in tracked_accepted
        }
        if accepted_pairs:
            rows = arena.intern_ids(
                [pair[0] for pair in accepted_pairs],
                [pair[1] for pair in accepted_pairs],
                strings,
                self._pair_rows,
            )
            alarm_rows = arena.observe_bin_rows(
                rows, medians, lowers, uppers, counts, n_probes, n_asns
            )
        else:
            alarm_rows = DelayAlarmRows.empty()
        arena_keys = arena.interner.keys
        delay_alarms = alarm_rows.materialize(
            timestamp,
            [arena_keys[row] for row in alarm_rows.arena_rows.tolist()],
        )

        if tracked_accepted:
            alarmed_positions = set(alarm_rows.positions.tolist())
            for position, link, verdict, view in tracked_accepted:
                observed = WilsonInterval(
                    median=float(medians[position]),
                    lower=float(lowers[position]),
                    upper=float(uppers[position]),
                    n=int(counts[position]),
                )
                self._record_tracked(
                    link,
                    timestamp,
                    view,
                    verdict,
                    position in alarmed_positions,
                    references_before[link],
                    observed,
                )
        for link, verdict, view in tracked_rejected:
            self._record_tracked(
                link, timestamp, view, verdict, False, None, None
            )
        for link in tracked:
            if link not in tracked_observed:
                # No samples this bin: the Figure 11b gap point.
                tracked[link].append(
                    TrackedLinkPoint(
                        timestamp=timestamp,
                        observed=None,
                        reference=arena.reference_of(link),
                        alarmed=False,
                        accepted=False,
                        n_probes=0,
                    )
                )
        return delay_alarms, len(accepted_pairs)

    def _record_tracked(
        self,
        link: Link,
        timestamp: int,
        link_obs: _FusedLinkObs,
        verdict: DiversityVerdict,
        alarmed: bool,
        reference_before: Optional[WilsonInterval],
        observed: Optional[WilsonInterval],
    ) -> None:
        if verdict.accepted:
            samples = link_obs.samples_array(verdict.kept_probes)
            n_probes = len(verdict.kept_probes)
        else:
            samples = link_obs.samples_array()
            n_probes = link_obs.n_probes
        if observed is None and samples.size:
            observed = median_confidence_interval(samples, z=self.config.z)
        mean = sample_std = None
        if samples.size:
            mean = float(samples.mean())
            sample_std = float(samples.std())
        self.tracked[link].append(
            TrackedLinkPoint(
                timestamp=timestamp,
                observed=observed,
                reference=reference_before
                if reference_before is not None
                else self.delay_arena.reference_of(link),
                alarmed=alarmed,
                accepted=verdict.accepted,
                n_probes=n_probes,
                mean=mean,
                sample_std=sample_std,
            )
        )

    # -- whole-campaign driving --------------------------------------------

    def run(
        self,
        traceroutes: Union[Iterable[Traceroute], TracerouteBatch, BatchView],
        resume_from: Optional[EngineSnapshot] = None,
    ) -> List[BinResult]:
        """Bin a traceroute iterable or columnar batch; process every bin.

        Columnar input stays columnar end to end: the binner yields
        :class:`~repro.atlas.columnar.BatchView` index windows and each
        bin is extracted straight from the flat arrays.  Object input is
        binned as objects and encoded per bin by :meth:`process_bin`.

        With *resume_from* (an :class:`~repro.core.checkpoint.EngineSnapshot`)
        the engine restores the snapshot's detector state first (when it
        has not already been restored), skips every bin the snapshot
        already covers, and prepends the snapshot's stored per-bin
        results — so feeding the same campaign yields the exact result
        list an uninterrupted run produces.
        """
        results: List[BinResult] = []
        skip: Optional[int] = None
        if resume_from is not None:
            results, skip = prepare_resume(self, resume_from)
        for start, payload in binned_payloads(
            traceroutes, bin_s=self.config.bin_s, skip_through=skip
        ):
            results.append(self.process_bin(start, payload))
        return results

    # -- checkpointing -----------------------------------------------------

    def snapshot(
        self, results: Optional[List[BinResult]] = None
    ) -> EngineSnapshot:
        """Canonical durable state, every row sorted by its key.

        The arenas export their state as the checkpoint's
        :class:`~repro.core.checkpoint.DelayTable` and
        :class:`~repro.core.checkpoint.ForwardingTable` directly, sorted
        by link and by model key — the order the serial reference
        pipeline writes, so both produce the same snapshot bytes for the
        same feed.  Pass *results* to embed the per-bin results produced
        so far (the resumable driver does; a long-running monitor should
        not, to keep snapshots bounded).
        """
        rounds = self.diversity.export_rounds()
        return EngineSnapshot(
            fingerprint=config_fingerprint(self.config),
            bins_processed=self._bins,
            traceroutes_processed=self._traceroutes,
            last_timestamp=self._last_timestamp,
            links_seen=sorted(self._links_seen),
            rounds={link: rounds[link] for link in sorted(rounds)},
            delay=self.delay_arena.export_table(),
            forwarding=self.forwarding_arena.export_table(),
            tracked={
                link: list(self.tracked[link]) for link in sorted(self.tracked)
            },
            results=list(results) if results is not None else [],
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Load a snapshot into this fresh engine.

        Rows may come in any order — a snapshot from the serial
        pipeline, from this engine, or from an older engine that wrote
        rows in first-seen order — so every subsequent bin is processed
        bit-identically to the uninterrupted run.  Raises
        :class:`~repro.core.checkpoint.SnapshotError` when the engine
        already holds state or the snapshot was taken under a different
        detection configuration.
        """
        if self._bins or self._links_seen:
            raise SnapshotError("restore requires a fresh engine")
        if snapshot.fingerprint != config_fingerprint(self.config):
            raise SnapshotError(
                "snapshot fingerprint does not match this configuration"
            )
        seed_bins = self.delay_arena.seed_bins
        if snapshot.delay.seed_bins != seed_bins:
            raise SnapshotError(
                f"snapshot seed_bins {snapshot.delay.seed_bins} != "
                f"{seed_bins}"
            )
        self.diversity.restore_rounds(snapshot.rounds)
        self.delay_arena.import_table(snapshot.delay)
        self.forwarding_arena.import_table(snapshot.forwarding)
        for link, points in snapshot.tracked.items():
            self.tracked[link] = list(points)
        self._links_seen = set(snapshot.links_seen)
        self._bins = snapshot.bins_processed
        self._traceroutes = snapshot.traceroutes_processed
        self._last_timestamp = snapshot.last_timestamp

    # -- statistics --------------------------------------------------------

    def stats(self) -> CampaignStats:
        """Cumulative campaign statistics.

        The aggregates live in the arenas (every link the delay arena
        ever interned passed the diversity filter, so its interner *is*
        the analyzed-links set) — no per-bin bookkeeping on the hot path.
        """
        delay, forwarding = self.delay_arena, self.forwarding_arena
        return CampaignStats(
            links_observed=len(self._links_seen),
            links_analyzed=delay.n_links,
            links_alarmed=len(delay.alarmed_links()),
            max_probes_per_link_sum=sum(delay.max_probes_map().values()),
            forwarding_models=forwarding.n_models,
            forwarding_routers=forwarding.n_routers,
            mean_next_hops=forwarding.mean_next_hops(),
            bins_processed=self._bins,
            traceroutes_processed=self._traceroutes,
        )


def create_pipeline(config: Optional[PipelineConfig] = None) -> Engine:
    """The library's engine for *config*: an :class:`Engine`."""
    return Engine(config)
