"""Store compaction and tiered retention (the maintenance job).

The alarm store is append-only: every :meth:`AlarmStoreWriter.append_bins`
publishes one more immutable segment, so a long-lived monitor grows one
file per checkpoint forever — thousands of tiny segments whose per-file
open/mmap/validate overhead eventually dominates every query.  This
module is the counterweight, an explicitly scheduled maintenance pass
(`repro compact`, or ``monitor --compact-every``) with three tiers:

* **merge** — when the store holds more than ``max_segments`` segments,
  the oldest contiguous run is rewritten as one segment.  Rows are
  copied *verbatim* in journal order (:meth:`_SegmentBuilder.add_segment`
  remaps only interner ids and CSR offsets), so every
  :class:`~repro.service.query.StoreQuery` answer — including the
  float-accumulation order of the severity journal — is bit-identical
  before and after (the hypothesis property test in
  ``tests/test_service_compact.py`` drives random campaigns × random
  chunkings × random compaction schedules through exactly this claim);
* **coarsen** (tier 1 retention) — segments entirely older than
  ``coarsen_after_bins`` keep only their ``e_*`` severity-journal rows.
  Series, magnitudes, events, rankings and link drill-downs are
  untouched; raw alarm retrieval (``alarms_at``/``alarms_involving``)
  and the forwarding-alarm counter in ``as_condition`` forget the
  coarsened range — that is the explicit retention trade;
* **drop** (tier 2 retention) — segments entirely older than
  ``drop_after_bins`` are removed outright.  The store's clock
  (``start``/``end``/``bin_s``) never changes, so remaining series keep
  their absolute bin indexes; dropped history reads as zeros.

Publication follows the store's existing crash-safe discipline: new
segments are written durably first, then one durable manifest swap
under the same epoch id with ``generation + 1``, then the replaced
files are unlinked.  Live readers cut over on their next
``refresh()``; response caches and ETags keyed on the generation token
invalidate implicitly; a concurrent :class:`AlarmStoreWriter` is
protected by its stale-manifest guard and must ``reload()`` before its
next append (``monitor --compact-every`` does exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Set

from repro.atlas.io import PathLike
from repro.obs.metrics import default_registry
from repro.service.store import (
    AlarmSegment,
    Manifest,
    SegmentMeta,
    StoreError,
    _SegmentBuilder,
    publish_lock,
    read_manifest,
    store_metrics,
    write_manifest,
)


@dataclass(frozen=True)
class CompactionPolicy:
    """What a compaction pass is allowed to rewrite.

    ``max_segments`` bounds the segment count via prefix merging
    (``None`` disables merging); ``coarsen_after_bins`` /
    ``drop_after_bins`` are retention horizons measured in bins back
    from the store's current ``end`` (``None`` disables that tier).
    A segment is "older than N bins" when every row it holds falls
    before the newest N bins — horizons never split a segment.
    """

    max_segments: Optional[int] = 8
    coarsen_after_bins: Optional[int] = None
    drop_after_bins: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_segments is not None and self.max_segments < 1:
            raise ValueError(
                f"max_segments must be >= 1: {self.max_segments}"
            )
        for name in ("coarsen_after_bins", "drop_after_bins"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1: {value}")


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction pass did (or, dry-run, would do).

    ``changed`` is False for a no-op pass — then no new generation was
    published and every other field describes the untouched store.
    ``bytes_after`` is ``None`` on a dry run (nothing was serialised).
    """

    changed: bool
    dry_run: bool
    generation: int
    token: str
    merged: int
    coarsened: int
    dropped: int
    segments_before: int
    segments_after: int
    bytes_before: int
    bytes_after: Optional[int]


def _older_than(
    meta: SegmentMeta, manifest: Manifest, horizon_bins: Optional[int]
) -> bool:
    """Is every row of *meta* older than the newest *horizon_bins* bins?"""
    if horizon_bins is None or manifest.start is None:
        return False
    if meta.max_ts < meta.min_ts:  # empty index range: nothing to age out
        return False
    return meta.max_ts < manifest.end - (horizon_bins - 1) * manifest.bin_s


def _segment_bytes(path: Path, segments: List[SegmentMeta]) -> int:
    total = 0
    for meta in segments:
        try:
            total += (path / meta.name).stat().st_size
        except OSError:  # pragma: no cover - raced with another job
            pass
    return total


def compact_store(
    path: PathLike,
    policy: CompactionPolicy = CompactionPolicy(),
    dry_run: bool = False,
) -> CompactionReport:
    """Run one compaction/retention pass over the store at *path*.

    Applies, in order: tier-2 drops, tier-1 coarsening, then prefix
    merging down to ``policy.max_segments`` segments.  A pass that
    finds nothing to do returns ``changed=False`` and publishes
    nothing.  With ``dry_run`` the plan is computed and reported but
    no file is written or removed.

    Query equivalence: everything the severity journal feeds (series,
    magnitudes, events, rankings, link drill-down) is bit-identical
    after any merge-only pass; retention tiers intentionally forget
    exactly what their tier documents (see the module docstring).

    The whole pass (manifest read → rewrite → swap → unlink) runs
    under the store's :func:`~repro.service.store.publish_lock`, so a
    live writer's check-and-publish can never interleave with it.
    """
    directory = Path(path)
    with publish_lock(directory):
        return _compact_locked(directory, policy, dry_run)


def _compact_locked(
    directory: Path, policy: CompactionPolicy, dry_run: bool
) -> CompactionReport:
    """One compaction pass (the store's publish lock already held)."""
    pass_start = perf_counter()
    manifest = read_manifest(directory)
    drop: Set[str] = set()
    coarsen: Set[str] = set()
    for meta in manifest.segments:
        if _older_than(meta, manifest, policy.drop_after_bins):
            drop.add(meta.name)
        elif _older_than(meta, manifest, policy.coarsen_after_bins) and (
            meta.n_delay + meta.n_forwarding
        ):
            coarsen.add(meta.name)
    survivors = [m for m in manifest.segments if m.name not in drop]
    merge_group: Set[str] = set()
    if (
        policy.max_segments is not None
        and len(survivors) > policy.max_segments
    ):
        prefix = len(survivors) - policy.max_segments + 1
        merge_group = {m.name for m in survivors[:prefix]}
    changed = bool(drop or coarsen or merge_group)
    bytes_before = _segment_bytes(directory, manifest.segments)
    if not changed:
        return CompactionReport(
            changed=False,
            dry_run=dry_run,
            generation=manifest.generation,
            token=manifest.token,
            merged=0,
            coarsened=0,
            dropped=0,
            segments_before=len(manifest.segments),
            segments_after=len(manifest.segments),
            bytes_before=bytes_before,
            bytes_after=bytes_before,
        )
    if dry_run:
        merged_away = max(0, len(merge_group) - 1)
        return CompactionReport(
            changed=True,
            dry_run=True,
            generation=manifest.generation,
            token=manifest.token,
            merged=len(merge_group),
            coarsened=len(coarsen),
            dropped=len(drop),
            segments_before=len(manifest.segments),
            segments_after=len(manifest.segments) - len(drop) - merged_away,
            bytes_before=bytes_before,
            bytes_after=None,
        )

    next_index = manifest.next_index
    new_segments: List[SegmentMeta] = []
    new_blobs: List[str] = []  # names written by this pass (for cleanup)

    def publish(builder: _SegmentBuilder) -> Optional[SegmentMeta]:
        """Serialise *builder* as the next segment file; None if empty."""
        nonlocal next_index
        if not builder.n_rows:
            return None
        name = f"seg-{next_index:08d}.seg"
        new_blobs.append(name)
        next_index += 1
        return builder.write(directory, name)

    try:
        merge_builder: Optional[_SegmentBuilder] = None
        for meta in survivors:
            events_only = meta.name in coarsen
            if meta.name in merge_group:
                if merge_builder is None:
                    merge_builder = _SegmentBuilder(mapper=None)
                merge_builder.add_segment(
                    AlarmSegment(directory / meta.name, meta),
                    events_only=events_only,
                )
                continue
            if merge_builder is not None:
                merged_meta = publish(merge_builder)
                if merged_meta is not None:
                    new_segments.append(merged_meta)
                merge_builder = None
            if events_only:
                builder = _SegmentBuilder(mapper=None)
                builder.add_segment(
                    AlarmSegment(directory / meta.name, meta),
                    events_only=True,
                )
                coarse_meta = publish(builder)
                if coarse_meta is not None:
                    new_segments.append(coarse_meta)
            else:
                new_segments.append(meta)
        if merge_builder is not None:  # the merge group ran to the end
            merged_meta = publish(merge_builder)
            if merged_meta is not None:
                new_segments.append(merged_meta)
    except (StoreError, OSError):
        for name in new_blobs:  # leave the store exactly as found
            (directory / name).unlink(missing_ok=True)
        raise

    new_manifest = Manifest(
        store_id=manifest.store_id,
        generation=manifest.generation + 1,
        next_index=next_index,
        bin_s=manifest.bin_s,
        start=manifest.start,
        end=manifest.end,
        segments=new_segments,
    )
    write_manifest(directory, new_manifest)
    # Only after the swap is durable do the replaced files go away:
    # a reader holding the old manifest either already has the old
    # segments open (its mmaps stay valid past the unlink) or fails
    # loudly and retries into the new generation.
    kept = {meta.name for meta in new_segments}
    for meta in manifest.segments:
        if meta.name not in kept:
            (directory / meta.name).unlink(missing_ok=True)
    metrics = store_metrics(default_registry())
    metrics["compactions"].inc()
    metrics["compaction_seconds"].observe(perf_counter() - pass_start)
    metrics["segments"].set(len(new_segments))
    metrics["generation"].set(new_manifest.generation)
    by_name = {meta.name: meta for meta in manifest.segments}
    metrics["rows_dropped"].inc(
        sum(
            by_name[name].n_delay
            + by_name[name].n_forwarding
            + by_name[name].n_events
            for name in drop
        )
    )
    metrics["rows_coarsened"].inc(
        sum(
            by_name[name].n_delay + by_name[name].n_forwarding
            for name in coarsen
        )
    )
    return CompactionReport(
        changed=True,
        dry_run=False,
        generation=new_manifest.generation,
        token=new_manifest.token,
        merged=len(merge_group),
        coarsened=len(coarsen),
        dropped=len(drop),
        segments_before=len(manifest.segments),
        segments_after=len(new_segments),
        bytes_before=bytes_before,
        bytes_after=_segment_bytes(directory, new_segments),
    )
