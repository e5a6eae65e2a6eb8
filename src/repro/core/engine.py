"""Sharded parallel execution engine with vectorized hot paths.

:class:`~repro.core.pipeline.Pipeline` is the paper-shaped *reference*
implementation: it analyses links one at a time in readable pure-Python
loops.  This module is the *production* execution layer built for the
paper's actual scale (2.8 billion traceroutes), and it has exactly one
path through it:

* every bin is columnar — object-model input is encoded at the door
  with :meth:`~repro.atlas.columnar.TracerouteBatch.from_traceroutes`
  against one engine-owned interner — and
  :func:`~repro.core.fused.extract_bin_fused` fuses differential-RTT
  extraction (§4.2.1) and forwarding-pattern extraction (§5.1) into one
  vectorized pass over the flat arrays;
* :class:`_ShardCore` holds one shard's detector state in the
  structure-of-arrays arenas (:class:`~repro.core.arena.DelayArena`,
  :class:`~repro.core.arena.ForwardingArena`) and analyses its link
  partition with batched kernels —
  :func:`~repro.stats.wilson.median_confidence_interval_arrays` (one
  padded 2-D sort per bin instead of one sort per link) feeding the
  arena's vectorized Eq. 6/7 detection, and pooled Eq. 8 smoothing +
  :func:`~repro.stats.correlation.pearson_correlation_pooled` for the
  forwarding side;
* :class:`ShardedPipeline` consistently hashes links (and routers, for
  the forwarding method) into N independent shards, fans each bin out
  over a serial loop or persistent per-shard worker processes, and
  merges results deterministically (alarms sorted by link / model key)
  into the same :class:`~repro.core.pipeline.BinResult` and
  :class:`~repro.core.pipeline.CampaignStats` the serial path produces.

Equivalence is a hard guarantee, not an aspiration: every numeric step
of the batched path performs the same float64 arithmetic in the same
order as the scalar path, the diversity filter draws per-link (not
per-evaluation-order) random streams, and the property tests in
``tests/test_engine_equivalence.py`` and ``tests/test_fused_spine.py``
plus the equality assertions in ``benchmarks/bench_engine_scaling.py``
hold the output bit-identical to the serial pipeline for any shard
count and executor.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from dataclasses import dataclass
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
from repro.core.alarms import DelayAlarm, ForwardingAlarm, Link
from repro.core.arena import DelayAlarmRows, DelayArena, ForwardingArena
from repro.core.checkpoint import (
    DelayTable,
    EngineSnapshot,
    ForwardingTable,
    SnapshotError,
    config_fingerprint,
    prepare_resume,
)
from repro.core.diffrtt import LinkObservations
from repro.core.diversity import DiversityFilter, DiversityVerdict
from repro.core.forwarding import ModelKey
from repro.core.fused import (
    FusedBin,
    attach_shm,
    extract_bin_fused,
    pack_fused,
    partition_fused,
    string_ranks,
    unpack_fused,
)
from repro.core.pipeline import (
    BinResult,
    CampaignStats,
    Pipeline,
    PipelineConfig,
    TrackedLinkPoint,
)
from repro.obs.metrics import MetricsRegistry, default_registry, exponential_buckets
from repro.obs.tracing import NULL_TIMER, NULL_TRACER
from repro.core.sharding import shard_layout, shard_of
from repro.stats.smoothing import SEED_BINS
from repro.stats.wilson import (
    WilsonInterval,
    median_confidence_interval,
    median_confidence_interval_arrays,
)


@dataclass
class _FusedShardOutput:
    """What one shard contributes to one bin's merged result.

    Delay alarms stay in array form (:class:`~repro.core.arena.DelayAlarmRows`
    plus the alarmed links, aligned) until the parent materializes
    :class:`~repro.core.alarms.DelayAlarm` objects at the merge — the
    str-keyed objects exist exactly once, at the reporting boundary.
    Forwarding alarms are rare enough that the worker builds them
    directly (their payload *is* str-keyed pattern dicts).

    ``elapsed_s`` is the shard's own wall time for the partition —
    measured inside the worker (serial or process) so the parent can
    lay deterministic per-shard spans onto the trace; it is telemetry
    only and never feeds back into detection.
    """

    shard_id: int
    delay_rows: DelayAlarmRows
    delay_links: List[Link]
    forwarding_alarms: List[ForwardingAlarm]
    n_links_analyzed: int
    elapsed_s: float = 0.0


class _FusedLinkObs:
    """Per-link read view over a :class:`~repro.core.fused.FusedBin`.

    Duck-types the :class:`~repro.core.diffrtt.LinkObservations` surface
    the diversity filter and tracked-link recorder consume (``link``,
    ``probe_asn``, ``probe_ids``, ``n_probes``, ``samples_array``)
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
        """Same values/order contract as ``LinkObservations.samples_array``.

        The full-coverage unordered fast path returns a *view* of the
        bin's sample pool (the batched Wilson kernel copies into its
        padded matrix anyway); gathers allocate fresh arrays.
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


@dataclass
class _ShardSnapshot:
    """One shard's cumulative statistics and tracked-link series."""

    links_analyzed: Set[Link]
    links_alarmed: Set[Link]
    probes_per_link: Dict[Link, int]
    forwarding_models: int
    forwarding_routers: int
    next_hops_total: int
    tracked: Dict[Link, List[TrackedLinkPoint]]


class _ShardCore:
    """One shard's detection state and vectorized per-bin analysis.

    Mirrors the serial :class:`Pipeline` per-link logic exactly, but
    holds its detector state in the structure-of-arrays arenas
    (:class:`~repro.core.arena.DelayArena`,
    :class:`~repro.core.arena.ForwardingArena`): all of the shard's
    accepted links are characterised with one batched Wilson call and
    judged/updated with the arena's vectorized Eq. 6/7 kernels, and all
    of its forwarding models with the arena's pooled Eq. 8 smoothing and
    one batched correlation call.  Runs wherever the executor puts it —
    inline or inside a persistent worker process.
    """

    def __init__(
        self,
        shard_id: int,
        config: PipelineConfig,
        tracked_links: Set[Link],
    ) -> None:
        self.shard_id = shard_id
        self.config = config
        self.diversity = DiversityFilter(
            min_asns=config.min_asns,
            min_entropy=config.min_entropy,
            seed=config.seed,
        )
        self.delay_arena = DelayArena(
            alpha=config.alpha,
            min_shift_ms=config.min_shift_ms,
            winsorize=config.winsorize,
        )
        self.forwarding_arena = ForwardingArena(
            tau=config.tau,
            alpha=config.alpha,
            warmup_bins=config.forwarding_warmup,
        )
        self.tracked: Dict[Link, List[TrackedLinkPoint]] = {
            link: [] for link in tracked_links
        }
        # The current interner's string table and the id-keyed caches.
        # Interner ids are append-only, so the caches live as long as
        # the interner does — across bins, batches and table growth —
        # and reset only on set_strings (a new interner).
        self._strings: Optional[List[str]] = None
        self._pair_links: Dict[Tuple[int, int], Link] = {}
        self._pair_rows: Dict[Tuple[int, int], int] = {}
        self._model_keys: Dict[Tuple[int, int], ModelKey] = {}

    def set_strings(self, strings: Optional[List[str]]) -> None:
        """Install a new interner's table; reset the id-keyed caches."""
        self._strings = strings
        self._pair_links = {}
        self._pair_rows = {}
        self._model_keys = {}

    def process_partition_fused(
        self, timestamp: int, part: FusedBin
    ) -> _FusedShardOutput:
        """Analyse this shard's slice of one fused columnar bin.

        Links arrive pre-sorted in string order as interned-id CSR
        arrays, the diversity filter reads them through zero-copy
        :class:`_FusedLinkObs` views, the delay arena ingests arena rows
        directly (:meth:`~repro.core.arena.DelayArena.observe_bin_rows`),
        the forwarding arena ingests the pattern CSR
        (:meth:`~repro.core.arena.ForwardingArena.observe_bin_ids`),
        and delay alarms leave as :class:`~repro.core.arena.DelayAlarmRows`
        for the parent to materialize at the merge.  The hypothesis
        property in ``tests/test_fused_spine.py`` holds the output
        bit-identical to the serial oracle.
        """
        shard_start = perf_counter()
        strings = self._strings
        if strings is None:
            raise RuntimeError("set_strings must precede fused bins")
        n_links = part.n_links
        if not n_links and not part.n_models and not self.tracked:
            return _FusedShardOutput(
                self.shard_id, DelayAlarmRows.empty(), [], [], 0
            )

        near = part.link_near.tolist()
        far = part.link_far.tolist()
        seg_offsets = part.link_seg_offsets.tolist()
        seg_probes = part.seg_probe.tolist()
        seg_asns = part.seg_asn.tolist()
        sample_offsets = part.seg_sample_offsets.tolist()
        pool = part.samples

        pair_links = self._pair_links
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
        for index in range(n_links):
            pair = (near[index], far[index])
            link = pair_links.get(pair)
            if link is None:
                link = pair_links[pair] = (
                    strings[pair[0]],
                    strings[pair[1]],
                )
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
        analyzed = len(accepted_pairs)
        references_before = {
            link: self.delay_arena.reference_of(link)
            for _, link, _, _ in tracked_accepted
        }
        if accepted_pairs:
            rows = self.delay_arena.intern_ids(
                [pair[0] for pair in accepted_pairs],
                [pair[1] for pair in accepted_pairs],
                strings,
                self._pair_rows,
            )
            alarm_rows = self.delay_arena.observe_bin_rows(
                rows, medians, lowers, uppers, counts, n_probes, n_asns
            )
        else:
            alarm_rows = DelayAlarmRows.empty()
        arena_keys = self.delay_arena.interner.keys
        delay_links = [
            arena_keys[row] for row in alarm_rows.arena_rows.tolist()
        ]

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
                        reference=self.delay_arena.reference_of(link),
                        alarmed=False,
                        accepted=False,
                        n_probes=0,
                    )
                )

        forwarding_alarms = self.forwarding_arena.observe_bin_ids(
            timestamp,
            part.model_router,
            part.model_dst,
            part.model_hop_offsets,
            part.hop_ids,
            part.hop_counts,
            strings,
            self._model_keys,
        )
        return _FusedShardOutput(
            shard_id=self.shard_id,
            delay_rows=alarm_rows,
            delay_links=delay_links,
            forwarding_alarms=forwarding_alarms,
            n_links_analyzed=analyzed,
            elapsed_s=perf_counter() - shard_start,
        )

    def _record_tracked(
        self,
        link: Link,
        timestamp: int,
        link_obs: LinkObservations,
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

    def snapshot(self) -> _ShardSnapshot:
        # The cumulative aggregates live in the arenas (every link the
        # delay arena ever interned passed the diversity filter, so the
        # interner *is* the analyzed-links set) — no per-bin Python
        # bookkeeping needed on the hot path.
        return _ShardSnapshot(
            links_analyzed=set(self.delay_arena.links()),
            links_alarmed=self.delay_arena.alarmed_links(),
            probes_per_link=self.delay_arena.max_probes_map(),
            forwarding_models=self.forwarding_arena.n_models,
            forwarding_routers=self.forwarding_arena.n_routers,
            next_hops_total=self.forwarding_arena.next_hops_total(),
            tracked={link: list(points) for link, points in self.tracked.items()},
        )

    def export_state(self) -> dict:
        """This shard's full durable state in canonical checkpoint form."""
        return {
            "rounds": self.diversity.export_rounds(),
            "delay": self.delay_arena.export_state(),
            "forwarding": self.forwarding_arena.export_state(),
            "tracked": {
                link: list(points) for link, points in self.tracked.items()
            },
        }

    def import_state(self, state: dict) -> None:
        """Load one shard's canonical state into this (fresh) core."""
        self.diversity.restore_rounds(state["rounds"])
        self.delay_arena.import_state(state["delay"])
        self.forwarding_arena.import_state(state["forwarding"])
        for link, points in state["tracked"].items():
            self.tracked[link] = list(points)


def _tracked_partition(
    config: PipelineConfig, n_shards: int
) -> List[Set[Link]]:
    """Assign each tracked link to its owning shard."""
    parts: List[Set[Link]] = [set() for _ in range(n_shards)]
    for link in config.track_links:
        parts[shard_of(link, n_shards)].add(link)
    return parts


# -- executor backends -------------------------------------------------------


class _SerialBackend:
    """All shard cores in-process, processed one after another."""

    def __init__(self, config: PipelineConfig, n_shards: int) -> None:
        tracked = _tracked_partition(config, n_shards)
        self.cores = [
            _ShardCore(shard, config, tracked[shard])
            for shard in range(n_shards)
        ]

    def set_strings(self, strings: List[str], known: int) -> None:
        """Install an interner table of which ``strings[:known]`` is held.

        ``known == 0`` announces a new interner (id caches reset).  A
        grown table needs nothing here: the cores hold the interner's
        own list, which grew in place.
        """
        if known == 0:
            for core in self.cores:
                core.set_strings(strings)

    def run_fused_bin(
        self, timestamp: int, parts: List[FusedBin]
    ) -> List[_FusedShardOutput]:
        return [
            core.process_partition_fused(timestamp, part)
            for core, part in zip(self.cores, parts)
        ]

    def snapshots(self) -> List[_ShardSnapshot]:
        return [core.snapshot() for core in self.cores]

    def export_states(self) -> List[dict]:
        return [core.export_state() for core in self.cores]

    def import_states(self, parts: List[dict]) -> None:
        for core, part in zip(self.cores, parts):
            core.import_state(part)

    def close(self) -> None:  # nothing to release
        pass


def _worker_main(connection, shard_ids, config, tracked_by_shard) -> None:
    """Body of one persistent worker process owning one or more shards."""
    cores = {
        shard: _ShardCore(shard, config, tracked_by_shard[shard])
        for shard in shard_ids
    }
    strings: List[str] = []  # this worker's copy of the interner table
    while True:
        try:
            message = connection.recv()
        except EOFError:
            break
        tag = message[0]
        try:
            if tag == "fbin":
                _, timestamp, name, layouts = message
                block = attach_shm(name)
                try:
                    outputs = []
                    for shard in shard_ids:
                        part = unpack_fused(block, layouts[shard])
                        outputs.append(
                            cores[shard].process_partition_fused(
                                timestamp, part
                            )
                        )
                        del part
                    connection.send(("ok", outputs))
                    del outputs
                finally:
                    try:
                        block.close()
                    except BufferError:  # pragma: no cover - error paths
                        # A live view pins the mapping (e.g. an exception
                        # escaped mid-shard); the parent still unlinks
                        # the name, so the segment dies with the worker.
                        pass
            elif tag == "strings":
                _, known, tail = message
                if known == 0:
                    strings = tail
                    for core in cores.values():
                        core.set_strings(strings)
                else:
                    strings.extend(tail)  # the cores share this list
                connection.send(("ok", None))
            elif tag == "snapshot":
                connection.send(
                    ("ok", [cores[shard].snapshot() for shard in shard_ids])
                )
            elif tag == "export":
                connection.send(
                    ("ok", [cores[shard].export_state() for shard in shard_ids])
                )
            elif tag == "import":
                _, parts = message
                for shard in shard_ids:
                    cores[shard].import_state(parts[shard])
                connection.send(("ok", None))
            elif tag == "stop":
                connection.send(("ok", None))
                break
            else:  # pragma: no cover - protocol misuse guard
                connection.send(("error", f"unknown message tag: {tag!r}"))
        except Exception:  # pragma: no cover - surfaced in the parent
            connection.send(("error", traceback.format_exc()))
    connection.close()


class _ProcessBackend:
    """Persistent per-shard worker processes connected by pipes.

    Each worker owns its shards' detector state for the whole campaign —
    only the per-bin partitions travel over the pipes, never the
    accumulated references.  Replies are collected in worker order, so
    merging stays deterministic regardless of scheduling.
    """

    def __init__(
        self, config: PipelineConfig, n_shards: int, n_jobs: int
    ) -> None:
        # Start the resource tracker *before* forking: children then
        # inherit the one live tracker, so their shared-memory attach
        # registrations land in the same cache the parent's unlink
        # clears.  Forked before the tracker exists, each worker would
        # lazily start a private tracker that warns about "leaked"
        # segments (long since unlinked by the parent) at worker exit.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker API drift
            pass
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        tracked = _tracked_partition(config, n_shards)
        self.n_shards = n_shards
        self.workers: List[dict] = []
        for shard_ids in shard_layout(n_shards, n_jobs):
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(
                    child_end,
                    shard_ids,
                    config,
                    {shard: tracked[shard] for shard in shard_ids},
                ),
                daemon=True,
            )
            process.start()
            child_end.close()
            self.workers.append(
                {"process": process, "pipe": parent_end, "shards": shard_ids}
            )

    def _collect(self) -> List:
        payloads = []
        for worker in self.workers:
            tag, payload = worker["pipe"].recv()
            if tag == "error":
                self.close()
                raise RuntimeError(f"shard worker failed:\n{payload}")
            payloads.append(payload)
        return payloads

    def set_strings(self, strings: List[str], known: int) -> None:
        """Ship the part of an interner table the workers do not hold yet.

        ``known == 0`` announces a new interner (id caches reset);
        otherwise only the appended tail travels.
        """
        for worker in self.workers:
            worker["pipe"].send(("strings", known, strings[known:]))
        self._collect()

    def run_fused_bin(
        self, timestamp: int, parts: List[FusedBin]
    ) -> List[_FusedShardOutput]:
        """Fan one fused bin out through a shared-memory block.

        Every shard's flat arrays are packed into a single
        ``repro-fb-*`` segment that workers map by name — no per-bin
        pickling of payloads.  The parent is the sole owner: the block
        is closed and unlinked in a ``finally``, so worker crashes,
        mid-bin exceptions and normal completion all leave zero
        segments behind (asserted by ``tests/test_fused_spine.py``).
        """
        block, layouts = pack_fused(parts)
        try:
            for worker in self.workers:
                worker["pipe"].send(
                    (
                        "fbin",
                        timestamp,
                        block.name,
                        {
                            shard: layouts[shard]
                            for shard in worker["shards"]
                        },
                    )
                )
            outputs = [
                output for payload in self._collect() for output in payload
            ]
        finally:
            block.close()
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        outputs.sort(key=lambda output: output.shard_id)
        return outputs

    def snapshots(self) -> List[_ShardSnapshot]:
        for worker in self.workers:
            worker["pipe"].send(("snapshot",))
        return [snap for payload in self._collect() for snap in payload]

    def export_states(self) -> List[dict]:
        for worker in self.workers:
            worker["pipe"].send(("export",))
        states: List[Tuple[int, dict]] = []
        for worker, payload in zip(self.workers, self._collect()):
            states.extend(zip(worker["shards"], payload))
        states.sort(key=lambda item: item[0])
        return [state for _, state in states]

    def import_states(self, parts: List[dict]) -> None:
        for worker in self.workers:
            worker["pipe"].send(
                ("import", {shard: parts[shard] for shard in worker["shards"]})
            )
        self._collect()

    def close(self) -> None:
        for worker in self.workers:
            process, pipe = worker["process"], worker["pipe"]
            try:
                if process.is_alive():
                    pipe.send(("stop",))
                    pipe.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            try:
                pipe.close()
            except OSError:  # pragma: no cover
                pass
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker guard
                process.terminate()
        self.workers = []


# -- the engine itself -------------------------------------------------------


#: Stage-latency bounds: 100 microseconds up to ~1.6 seconds per bin.
_STAGE_BUCKETS = exponential_buckets(0.0001, 4.0, 8)


class _EngineMetrics:
    """The engine's metric families, with hot children pre-interned.

    Families register against the given registry (idempotently, so
    several engines share them); on a disabled registry every handle is
    a shared no-op.  Nothing here is read back by the engine —
    instrumentation cannot change detection output.
    """

    __slots__ = (
        "bins_fused", "traceroutes", "links_analyzed",
        "alarms_delay", "alarms_forwarding", "stage", "imbalance",
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
        self.stage = {
            name: stage.labels(name) for name in ("extract", "bin", "detect")
        }
        self.imbalance = registry.gauge(
            "repro_engine_shard_imbalance_ratio",
            "Largest shard load over the mean shard load, last bin.",
        )


class ShardedPipeline:
    """Sharded, vectorized drop-in for :class:`Pipeline`.

    Same surface (``process_bin`` / ``run`` / ``stats`` / ``tracked`` /
    ``config``), same output bit for bit, different execution strategy:
    links are consistently hashed into ``config.n_shards`` independent
    shards, each bin's per-shard work fans out over the configured
    executor, and per-shard results merge deterministically (alarms
    sorted by link / model key — exactly the order the serial loop
    emits them in).

    Use as a context manager (or call :meth:`close`) when the process
    executor is active so worker processes are released promptly.
    """

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()
        cfg = self.config
        self.n_shards = cfg.n_shards
        self.executor = self._resolve_executor(cfg)
        cpu = os.cpu_count() or 1
        self.n_jobs = cfg.n_jobs or min(self.n_shards, cpu)
        if self.executor == "serial":
            self._backend = _SerialBackend(cfg, self.n_shards)
        else:
            self._backend = _ProcessBackend(cfg, self.n_shards, self.n_jobs)
        self._links_seen: Set[Link] = set()
        self._bins = 0
        self._traceroutes = 0
        self._last_timestamp: Optional[int] = None
        self._snapshot_cache: Optional[Tuple[int, List[_ShardSnapshot]]] = None
        self._closed = False
        # The id space object-model bins are encoded into at the door.
        self._object_interner = IPInterner()
        # Id-keyed state, valid for one interner (its ids are
        # append-only): the interner the caches describe, how many of
        # its strings the rank table and the shard cores cover, the
        # string-order rank table, and the shard caches (links and
        # routers recur bin after bin; remembering their shard skips
        # the consistent hash on every revisit).
        self._fused_interner: Optional[IPInterner] = None
        self._fused_n_strings = 0
        self._fused_ranks: Optional[np.ndarray] = None
        self._fused_link_shard: Dict[Tuple[int, int], int] = {}
        self._fused_router_shard: Dict[int, int] = {}
        #: Stage profiler hook (``extract`` / ``bin`` / ``detect``);
        #: swap in an enabled StageTimer to collect per-bin timings.
        self.profiler = NULL_TIMER
        #: Span tracer hook (``bin`` -> stage -> shard spans); swap in
        #: an enabled :class:`repro.obs.Tracer` to record a timeline.
        self.tracer = NULL_TRACER
        #: Metric families, bound to the process default registry at
        #: construction (swap the default before building the engine to
        #: inject, e.g. a disabled registry for overhead benchmarks).
        self.metrics = _EngineMetrics(default_registry())

    @staticmethod
    def _resolve_executor(config: PipelineConfig) -> str:
        """Map ``auto`` onto the machine: processes only when they help."""
        if config.executor != "auto":
            return config.executor
        cpu = os.cpu_count() or 1
        if config.n_shards > 1 and cpu > 1:
            return "process"
        return "serial"

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release executor resources (idempotent).

        Survives dead workers: when a shard process already crashed,
        the final-statistics snapshot is skipped (stats queried after
        this close serve whatever was cached before the crash) and the
        backend teardown still runs.
        """
        if not self._closed:
            try:
                # Preserve final statistics before workers go away.
                self._snapshot_cache = (
                    self._bins, self._backend.snapshots()
                )
            except (RuntimeError, BrokenPipeError, EOFError, OSError):
                pass
            self._backend.close()
            self._closed = True

    def __enter__(self) -> "ShardedPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            if not getattr(self, "_closed", True):
                self._backend.close()
                self._closed = True
        except Exception:
            pass

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

    def _finish_bin(
        self,
        timestamp: int,
        bin_start: float,
        detect_start: float,
        outputs: Sequence,
        loads: Sequence[int],
        n_traceroutes: int,
        delay_alarms: Sequence,
        forwarding_alarms: Sequence,
    ) -> None:
        """Record one merged bin's telemetry: counters, spans, imbalance.

        Shard spans are merged deterministically: each shard measured
        its own ``elapsed_s`` inside the worker, and the parent lays
        them onto the detect stage's timeline in shard-id order (the
        outputs arrive pre-sorted), one trace track per shard.
        """
        metrics = self.metrics
        metrics.bins_fused.inc()
        metrics.traceroutes.inc(n_traceroutes)
        metrics.links_analyzed.inc(
            sum(output.n_links_analyzed for output in outputs)
        )
        if delay_alarms:
            metrics.alarms_delay.inc(len(delay_alarms))
        if forwarding_alarms:
            metrics.alarms_forwarding.inc(len(forwarding_alarms))
        total = sum(loads)
        if total and loads:
            metrics.imbalance.set(max(loads) * len(loads) / total)
        tracer = self.tracer
        if tracer.enabled:
            for output in outputs:
                tracer.add_span(
                    f"shard-{output.shard_id}",
                    detect_start,
                    output.elapsed_s,
                    tid=output.shard_id + 1,
                )
            tracer.add_span(
                "bin",
                bin_start,
                perf_counter() - bin_start,
                args={"timestamp": timestamp, "path": "fused"},
            )

    # -- per-bin processing ------------------------------------------------

    def process_bin(
        self,
        timestamp: int,
        traceroutes: Union[Sequence[Traceroute], TracerouteBatch, BatchView],
    ) -> BinResult:
        """Run both methods over one closed time bin, sharded.

        Every bin goes down the fused spine.  Object-model traceroutes
        are encoded into columns first (so they take
        :meth:`~repro.atlas.columnar.TracerouteBatch.append`'s contract:
        a negative ``from_asn``/``msm_id`` raises, a NaN RTT is a
        missing RTT); a columnar batch/view is read as is.  Extraction
        emits interned-id flat arrays
        (:func:`~repro.core.fused.extract_bin_fused`), partitioning
        gathers CSR slices per shard, the executor ships them without
        per-bin pickling (shared memory under the process backend), and
        delay alarms come back as arrays — the str-keyed
        :class:`~repro.core.alarms.DelayAlarm` objects are built here,
        once, at the merge.
        """
        if self._closed:
            raise RuntimeError("engine is closed; create a new one")
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
        new_interner = interner is not self._fused_interner
        if new_interner:
            # A new id space: every id-keyed cache is void.
            self._fused_interner = interner
            self._fused_n_strings = 0
            self._fused_link_shard = {}
            self._fused_router_shard = {}
        if new_interner or len(strings) != self._fused_n_strings:
            # Old ids keep their meaning as an interner grows, so a
            # fresh batch per window or new addresses cost a rank
            # refresh and the new tail shipped to the shard cores —
            # never the shard caches.
            self._backend.set_strings(strings, self._fused_n_strings)
            self._fused_ranks = string_ranks(strings)
            self._fused_n_strings = len(strings)
        fused = extract_bin_fused(traceroutes, self._fused_ranks)
        stage_start = self._charge("extract", bin_start)
        parts = partition_fused(
            fused,
            self.n_shards,
            strings,
            self._fused_link_shard,
            self._fused_router_shard,
            links_seen=self._links_seen,
        )
        detect_start = self._charge("bin", stage_start)
        outputs = self._backend.run_fused_bin(timestamp, parts)
        self._charge("detect", detect_start)

        delay_alarms: List[DelayAlarm] = []
        for output in outputs:
            delay_alarms.extend(
                output.delay_rows.materialize(timestamp, output.delay_links)
            )
        delay_alarms.sort(key=lambda alarm: alarm.link)
        forwarding_alarms = sorted(
            (
                alarm
                for output in outputs
                for alarm in output.forwarding_alarms
            ),
            key=lambda alarm: (alarm.router_ip, alarm.destination),
        )
        self._bins += 1
        self._traceroutes += len(traceroutes)
        self._last_timestamp = timestamp
        self._snapshot_cache = None
        self._finish_bin(
            timestamp,
            bin_start,
            detect_start,
            outputs,
            [part.n_links + part.n_models for part in parts],
            len(traceroutes),
            delay_alarms,
            forwarding_alarms,
        )
        return BinResult(
            timestamp=timestamp,
            n_traceroutes=len(traceroutes),
            n_links_observed=fused.n_links,
            n_links_analyzed=sum(
                output.n_links_analyzed for output in outputs
            ),
            delay_alarms=delay_alarms,
            forwarding_alarms=forwarding_alarms,
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
        """Canonical durable state, merged deterministically across shards.

        Per-shard arena/diversity/tracked state is exported wherever the
        cores live (inline or in worker processes) and merged
        shard-major into the engine-agnostic canonical form of
        :class:`~repro.core.checkpoint.EngineSnapshot` — restorable into
        any shard count or executor, or into the serial reference
        pipeline.  Pass *results* to embed the per-bin results produced
        so far (the resumable driver does; a long-running monitor should
        not, to keep snapshots bounded).
        """
        if self._closed:
            raise RuntimeError("engine is closed; snapshot before close()")
        states = self._backend.export_states()

        delay_parts = [state["delay"] for state in states]
        delay_links = [
            link for part in delay_parts for link in part["links"]
        ]
        median = np.concatenate([part["median"] for part in delay_parts])
        warm_count = np.concatenate(
            [part["warm_count"] for part in delay_parts]
        )
        stored = np.where(np.isnan(median), warm_count, 0)
        warm_offsets = np.zeros(len(delay_links) + 1, dtype=np.int64)
        np.cumsum(3 * stored, out=warm_offsets[1:])
        delay = DelayTable(
            links=delay_links,
            median=median,
            lower=np.concatenate([part["lower"] for part in delay_parts]),
            upper=np.concatenate([part["upper"] for part in delay_parts]),
            warm_count=warm_count,
            bins_seen=np.concatenate(
                [part["bins_seen"] for part in delay_parts]
            ),
            alarms_raised=np.concatenate(
                [part["alarms_raised"] for part in delay_parts]
            ),
            max_probes=np.concatenate(
                [part["max_probes"] for part in delay_parts]
            ),
            warm_offsets=warm_offsets,
            warm_values=np.concatenate(
                [part["warm_values"] for part in delay_parts]
            ),
            seed_bins=SEED_BINS,
        )

        fwd_parts = [state["forwarding"] for state in states]
        keys = [key for part in fwd_parts for key in part["keys"]]
        sizes = np.concatenate([part["ref_sizes"] for part in fwd_parts])
        ref_offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(sizes, out=ref_offsets[1:])
        forwarding = ForwardingTable(
            keys=keys,
            bins_seen=np.concatenate(
                [part["bins_seen"] for part in fwd_parts]
            ),
            alarms_raised=np.concatenate(
                [part["alarms_raised"] for part in fwd_parts]
            ),
            ref_offsets=ref_offsets,
            ref_hops=[
                hop for part in fwd_parts for hop in part["ref_hops"]
            ],
            ref_weights=np.concatenate(
                [part["ref_weights"] for part in fwd_parts]
            ),
        )

        rounds: Dict[Link, int] = {}
        tracked: Dict[Link, List[TrackedLinkPoint]] = {}
        for state in states:
            rounds.update(state["rounds"])
            tracked.update(state["tracked"])
        return EngineSnapshot(
            fingerprint=config_fingerprint(self.config),
            bins_processed=self._bins,
            traceroutes_processed=self._traceroutes,
            last_timestamp=self._last_timestamp,
            links_seen=sorted(self._links_seen),
            rounds={link: rounds[link] for link in sorted(rounds)},
            delay=delay,
            forwarding=forwarding,
            tracked={link: tracked[link] for link in sorted(tracked)},
            results=list(results) if results is not None else [],
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Load a snapshot into this fresh engine, repartitioned by shard.

        Canonical per-link/per-model state is sliced back onto this
        engine's shard layout with the same consistent hash that routes
        live bins, so a snapshot taken at any shard count restores into
        any other.  Raises :class:`~repro.core.checkpoint.SnapshotError`
        when the engine already holds state or the snapshot was taken
        under a different detection configuration.
        """
        if self._closed:
            raise RuntimeError("engine is closed; create a new one")
        if self._bins or self._links_seen:
            raise SnapshotError("restore requires a fresh engine")
        if snapshot.fingerprint != config_fingerprint(self.config):
            raise SnapshotError(
                "snapshot fingerprint does not match this configuration"
            )
        if snapshot.delay.seed_bins != SEED_BINS:
            raise SnapshotError(
                f"snapshot seed_bins {snapshot.delay.seed_bins} != "
                f"{SEED_BINS}"
            )
        n_shards = self.n_shards
        table = snapshot.delay
        link_shards = np.fromiter(
            (shard_of(link, n_shards) for link in table.links),
            dtype=np.int64,
            count=len(table.links),
        )
        key_shards = np.fromiter(
            (
                shard_of(key[0], n_shards)
                for key in snapshot.forwarding.keys
            ),
            dtype=np.int64,
            count=len(snapshot.forwarding.keys),
        )
        fwd = snapshot.forwarding
        fwd_sizes = np.diff(fwd.ref_offsets)
        parts: List[dict] = []
        for shard in range(n_shards):
            rows = np.flatnonzero(link_shards == shard)
            warm_values = (
                np.concatenate(
                    [
                        table.warm_values[
                            table.warm_offsets[row] : table.warm_offsets[
                                row + 1
                            ]
                        ]
                        for row in rows
                    ]
                )
                if rows.size
                else np.empty(0)
            )
            delay_part = {
                "links": [table.links[row] for row in rows],
                "median": table.median[rows],
                "lower": table.lower[rows],
                "upper": table.upper[rows],
                "warm_count": table.warm_count[rows],
                "bins_seen": table.bins_seen[rows],
                "alarms_raised": table.alarms_raised[rows],
                "max_probes": table.max_probes[rows],
                "warm_values": warm_values,
            }
            krows = np.flatnonzero(key_shards == shard)
            ref_hops: List[str] = []
            weight_slices = []
            for row in krows:
                start, stop = int(fwd.ref_offsets[row]), int(
                    fwd.ref_offsets[row + 1]
                )
                ref_hops.extend(fwd.ref_hops[start:stop])
                weight_slices.append(fwd.ref_weights[start:stop])
            fwd_part = {
                "keys": [fwd.keys[row] for row in krows],
                "bins_seen": fwd.bins_seen[krows],
                "alarms_raised": fwd.alarms_raised[krows],
                "ref_sizes": fwd_sizes[krows],
                "ref_hops": ref_hops,
                "ref_weights": (
                    np.concatenate(weight_slices)
                    if weight_slices
                    else np.empty(0)
                ),
            }
            parts.append(
                {
                    "rounds": {},
                    "delay": delay_part,
                    "forwarding": fwd_part,
                    "tracked": {},
                }
            )
        for link, count in snapshot.rounds.items():
            parts[shard_of(link, n_shards)]["rounds"][link] = count
        for link, points in snapshot.tracked.items():
            parts[shard_of(link, n_shards)]["tracked"][link] = points
        self._backend.import_states(parts)
        self._links_seen = set(snapshot.links_seen)
        self._bins = snapshot.bins_processed
        self._traceroutes = snapshot.traceroutes_processed
        self._last_timestamp = snapshot.last_timestamp
        self._snapshot_cache = None

    # -- statistics --------------------------------------------------------

    def _snapshots(self) -> List[_ShardSnapshot]:
        if self._snapshot_cache and self._snapshot_cache[0] == self._bins:
            return self._snapshot_cache[1]
        if self._closed:  # cache predates close() only on the same bin count
            raise RuntimeError("engine is closed and has no cached snapshot")
        snapshots = self._backend.snapshots()
        self._snapshot_cache = (self._bins, snapshots)
        return snapshots

    def stats(self) -> CampaignStats:
        """Cumulative campaign statistics, merged across shards."""
        snapshots = self._snapshots()
        links_analyzed: Set[Link] = set()
        links_alarmed: Set[Link] = set()
        probes_sum = 0
        models = routers = next_hops = 0
        for snap in snapshots:
            links_analyzed |= snap.links_analyzed
            links_alarmed |= snap.links_alarmed
            probes_sum += sum(snap.probes_per_link.values())
            models += snap.forwarding_models
            routers += snap.forwarding_routers
            next_hops += snap.next_hops_total
        return CampaignStats(
            links_observed=len(self._links_seen),
            links_analyzed=len(links_analyzed),
            links_alarmed=len(links_alarmed),
            max_probes_per_link_sum=probes_sum,
            forwarding_models=models,
            forwarding_routers=routers,
            mean_next_hops=next_hops / models if models else 0.0,
            bins_processed=self._bins,
            traceroutes_processed=self._traceroutes,
        )

    @property
    def tracked(self) -> Dict[Link, List[TrackedLinkPoint]]:
        """Merged per-link tracked series (same content as the serial
        pipeline's ``tracked`` attribute)."""
        merged: Dict[Link, List[TrackedLinkPoint]] = {}
        for snap in self._snapshots():
            merged.update(snap.tracked)
        return merged


def create_pipeline(config: Optional[PipelineConfig] = None):
    """Build the right engine for *config*.

    ``n_shards == 1`` with the default executor returns the serial
    reference :class:`Pipeline`; anything else returns a
    :class:`ShardedPipeline`.
    """
    cfg = config or PipelineConfig()
    if cfg.n_shards == 1 and cfg.executor in ("auto", "serial"):
        return Pipeline(cfg)
    return ShardedPipeline(cfg)
