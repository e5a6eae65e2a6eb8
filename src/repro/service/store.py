"""Append-only on-disk alarm/event store (the serving layer's database).

The paper's results are *served*, not just computed: §8 exposes per-AS
delay and forwarding conditions through the Internet Health Report
website and API.  This module is the persistence half of that serving
layer — a durable, queryable database of everything the detection
pipeline raised, in :mod:`repro.binfmt` files:

* **a store is a directory** holding one small ``MANIFEST`` plus
  immutable columnar segment files.  Appending a batch of closed bins
  writes one new segment durably, then atomically replaces the
  manifest with ``generation + 1`` — a reader always sees a complete,
  internally consistent generation, never a partial append;
* **segments are columnar**: flat little-endian arrays of delay alarms,
  forwarding alarms (hop maps pooled CSR-style) and AS-level severity
  events keyed by (bin timestamp, ASN, interned IP ids), mmap-read into
  NumPy views with zero row objects;
* **everything is versioned and digest-checked**: both files are
  :mod:`repro.binfmt` frames (magic + version + BLAKE2b payload digest,
  fsynced atomic writes), the manifest pins each segment's digest, and
  structural vetting checks anchored monotone offsets and interner ids
  in range.  A truncated, foreign or corrupt file always raises
  :class:`StoreError` — partial data is never served;
* **per-segment min/max indexes** over time let a one-window read skip
  irrelevant segments without touching their bytes (the ASN range is
  recorded beside it).

The *AS-level event* rows are the store's denormalised severity journal:
one row per (delay alarm × attributed AS) carrying the Eq. 6 deviation,
and one row per (forwarding alarm × responsible next hop's AS) carrying
the Eq. 9 responsibility — written in exactly the order
:class:`~repro.core.events.AlarmAggregator` consumes alarms, so replaying
them rebuilds every per-AS severity series bit-identically
(:mod:`repro.service.query` relies on this).

Alarm rows use the canonical record shape of
:mod:`repro.reporting.export` (``delay_alarm_record`` /
``forwarding_alarm_record``) as their field source, so the feed format
and the store format can never drift apart.  The builder reads those
fields straight off the alarm objects (the attribute names *are* the
record schema) rather than materialising a record dict per alarm — on
the fused engine path this is the single point where interned-id
payloads have become str-keyed objects, and the store immediately
re-interns the strings into segment-local ids.

:class:`MemoryStore` is a store without a directory: the same appends
build the same segment payloads, parsed in place instead of written,
so a one-shot report (``analyze`` without ``--store``) reads the
columns ``serve`` would.
"""

from __future__ import annotations

import contextlib
import os
import struct
from time import perf_counter
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

try:  # POSIX only; the lock degrades to a no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

import numpy as np

from repro import binfmt
from repro.atlas.io import PathLike
from repro.core.alarms import UNRESPONSIVE
from repro.net.asmap import AsMapper
from repro.obs.metrics import MetricsRegistry, default_registry, exponential_buckets

if TYPE_CHECKING:
    from repro.core.pipeline import BinResult


def store_metrics(registry: MetricsRegistry) -> dict:
    """The store-layer metric families (idempotent per registry).

    Shared by the writer (appends, generation, segments, row counts)
    and the compactor (pass latency, rows coarsened/dropped); returned
    as a name-keyed dict so both modules bind the same families.
    """
    buckets = exponential_buckets(0.001, 4.0, 8)  # 1 ms .. ~16 s
    return {
        "appends": registry.counter(
            "repro_store_appends_total",
            "append_bins calls that published a new generation.",
        ),
        "append_seconds": registry.histogram(
            "repro_store_append_seconds",
            "Wall time of one locked append (build + publish).",
            buckets=buckets,
        ),
        "segments": registry.gauge(
            "repro_store_segments",
            "Segments in the last manifest this process published.",
        ),
        "generation": registry.gauge(
            "repro_store_generation",
            "Generation of the last manifest this process published.",
        ),
        "rows": registry.counter(
            "repro_store_rows_total",
            "Rows published into segments, by kind.",
            ("kind",),
        ),
        "compactions": registry.counter(
            "repro_store_compactions_total",
            "Compaction passes that changed the store.",
        ),
        "compaction_seconds": registry.histogram(
            "repro_store_compaction_seconds",
            "Wall time of one locked compaction pass.",
            buckets=buckets,
        ),
        "rows_coarsened": registry.counter(
            "repro_store_rows_coarsened_total",
            "Alarm rows removed by tier-1 coarsening (events kept).",
        ),
        "rows_dropped": registry.counter(
            "repro_store_rows_dropped_total",
            "Rows removed by tier-2 retention drops.",
        ),
        "manifest_reads": registry.counter(
            "repro_store_manifest_reads_total",
            "Reader manifest probes: bytes unchanged, or parsed anew.",
            ("result",),
        ),
    }

#: File identification: magic bytes plus an explicit format version.
MANIFEST_MAGIC = b"RPROALMS"
SEGMENT_MAGIC = b"RPROALSG"
STORE_VERSION = 1

#: Name of the manifest file inside a store directory.
MANIFEST_NAME = "MANIFEST"

#: Manifest payload prefix: store epoch id, generation, next segment
#: index, bin_s, has_start flag, start, end.
_MANIFEST_PREFIX = struct.Struct("<16sQQqBqq")

#: Per-segment manifest entry after the name: digest, row counts,
#: min/max timestamp, min/max ASN.
_SEGMENT_ENTRY = struct.Struct("<16sQQQqqqq")

#: Segment payload count block: delay rows, forwarding rows,
#: responsibility/pattern/reference pool sizes, event rows.
_SEGMENT_COUNTS = struct.Struct("<QQQQQQ")

#: Event-kind codes (mirrors the two alarm kinds).
KIND_DELAY = 0
KIND_FORWARDING = 1

#: ASN sentinel for "unmapped" (no covering prefix).
NO_ASN = -1


class StoreError(binfmt.FormatError):
    """A store file is missing, foreign, truncated, stale or corrupt."""


MANIFEST = binfmt.Format(
    MANIFEST_MAGIC, STORE_VERSION, "store manifest", StoreError
)
SEGMENT = binfmt.Format(
    SEGMENT_MAGIC, STORE_VERSION, "store segment", StoreError
)


#: The fixed column schema of a segment, in serialisation order:
#: (attribute name, numpy dtype, length source).  Length sources name
#: one of the six counts, optionally ``+1`` for CSR offset tables.
_DELAY_COLUMNS = (
    ("d_ts", "<i8"), ("d_near", "<i8"), ("d_far", "<i8"),
    ("d_obs_median", "<f8"), ("d_obs_lower", "<f8"),
    ("d_obs_upper", "<f8"), ("d_obs_n", "<i8"),
    ("d_ref_median", "<f8"), ("d_ref_lower", "<f8"),
    ("d_ref_upper", "<f8"), ("d_ref_n", "<i8"),
    ("d_deviation", "<f8"), ("d_direction", "<i8"),
    ("d_n_probes", "<i8"), ("d_n_asns", "<i8"),
)
_FWD_COLUMNS = (
    ("f_ts", "<i8"), ("f_router", "<i8"), ("f_dest", "<i8"),
    ("f_router_asn", "<i8"), ("f_correlation", "<f8"),
)
_EVENT_COLUMNS = (
    ("e_kind", "u1"), ("e_ts", "<i8"), ("e_asn", "<i8"),
    ("e_value", "<f8"), ("e_near", "<i8"), ("e_far", "<i8"),
)


@dataclass(frozen=True)
class SegmentMeta:
    """One segment's manifest entry: identity, size and prune indexes.

    ``min_ts``/``max_ts`` cover every row timestamp; time-range reads
    and retention prune by them.  ``min_asn``/``max_asn`` cover every
    ASN the segment's event rows and forwarding router attributions
    mention (recorded, but no read prunes by them: per-AS answers come
    from the query engine's applied state).  Empty ranges
    are ``(0, -1)`` so no query ever matches them.
    """

    name: str
    digest: bytes
    n_delay: int
    n_forwarding: int
    n_events: int
    min_ts: int
    max_ts: int
    min_asn: int
    max_asn: int

    def overlaps(self, t0: int, t1: int) -> bool:
        """May this segment hold rows with ``t0 <= ts < t1``?"""
        return self.min_ts < t1 and t0 <= self.max_ts


@dataclass
class Manifest:
    """The store's root metadata: generation counter plus segment list.

    ``store_id`` is a random 16-byte epoch token drawn when the store
    is *created*: generations count appends within one epoch, so the
    pair ``(store_id, generation)`` — exposed as :attr:`token` — is
    what readers and response caches must compare.  A recreated store
    restarts at generation 0 but under a fresh ``store_id``, so stale
    readers can never mistake it for the store they were tracking.
    """

    store_id: bytes
    generation: int
    next_index: int
    bin_s: int
    start: Optional[int]
    end: int
    segments: List[SegmentMeta]

    @property
    def n_bins(self) -> int:
        """Bins on the store's clock (0 before the first append)."""
        if self.start is None:
            return 0
        return (self.end - self.start) // self.bin_s + 1

    @property
    def token(self) -> str:
        """Epoch-qualified generation: unique across store recreations."""
        return f"{self.generation}.{self.store_id.hex()[:12]}"


def _pack_manifest(manifest: Manifest) -> bytes:
    parts = [
        _MANIFEST_PREFIX.pack(
            manifest.store_id,
            manifest.generation,
            manifest.next_index,
            manifest.bin_s,
            1 if manifest.start is not None else 0,
            manifest.start if manifest.start is not None else 0,
            manifest.end,
        ),
        binfmt.U32.pack(len(manifest.segments)),
    ]
    for meta in manifest.segments:
        encoded = meta.name.encode("utf-8")
        parts.append(binfmt.U32.pack(len(encoded)))
        parts.append(encoded)
        parts.append(
            _SEGMENT_ENTRY.pack(
                meta.digest, meta.n_delay, meta.n_forwarding,
                meta.n_events, meta.min_ts, meta.max_ts,
                meta.min_asn, meta.max_asn,
            )
        )
    return b"".join(parts)


def write_manifest(directory: Path, manifest: Manifest) -> None:
    """Durably publish *manifest* as the store's root (the commit point)."""
    binfmt.atomic_write(
        directory / MANIFEST_NAME, MANIFEST, [_pack_manifest(manifest)]
    )


#: Sidecar file taken (``flock``) by every store *publisher*.
LOCK_NAME = ".publish.lock"


@contextlib.contextmanager
def publish_lock(directory: Path) -> Iterator[None]:
    """Advisory exclusive lock serialising store publishers.

    The manifest swap itself is atomic, but a *publish* is
    check-then-write: the writer verifies its cached manifest still
    matches the disk before writing ``generation + 1``, and the
    compactor plans a whole pass from one manifest read.  Two
    publishers interleaving those steps lose one of the updates — a
    writer could even republish segments a concurrent compaction pass
    had just merged and unlinked, leaving the manifest pointing at
    missing files.  An ``flock`` on a sidecar file closes that window
    for the publish duration.  Readers never take it: the generation
    cutover already gives them a consistent view.  Without ``fcntl``
    (non-POSIX) the lock is a no-op and single-publisher discipline is
    the caller's responsibility.
    """
    if fcntl is None or not directory.is_dir():
        # Non-POSIX, or the store does not exist yet: nothing to
        # serialise — the caller's manifest read raises the real error.
        yield
        return
    with open(directory / LOCK_NAME, "a+b") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def read_manifest(path: PathLike) -> Manifest:
    """Load and validate the manifest of the store directory *path*."""
    manifest_path = Path(path) / MANIFEST_NAME
    blob = binfmt.read_bytes(manifest_path, MANIFEST)
    return _parse_manifest(blob, manifest_path)


def _parse_manifest(blob: bytes, manifest_path: Path) -> Manifest:
    """Validate and decode the manifest file's bytes *blob*."""
    reader = binfmt.Reader(
        binfmt.unframe(blob, MANIFEST, manifest_path), MANIFEST, manifest_path
    )
    store_id, generation, next_index, bin_s, has_start, start, end = (
        reader.unpack(_MANIFEST_PREFIX)
    )
    if bin_s <= 0:
        raise StoreError(f"bad bin size {bin_s}: {manifest_path}")
    segments = []
    for _ in range(reader.u32()):
        try:
            name = bytes(reader.take(reader.u32())).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StoreError(
                f"corrupt manifest segment name: {manifest_path}"
            ) from exc
        segments.append(SegmentMeta(name, *reader.unpack(_SEGMENT_ENTRY)))
    reader.done()
    return Manifest(
        store_id=store_id,
        generation=generation,
        next_index=next_index,
        bin_s=bin_s,
        start=start if has_start else None,
        end=end,
        segments=segments,
    )


# -- segment encoding ---------------------------------------------------------


class _SegmentBuilder:
    """Accumulates alarm/event rows, then serialises one segment.

    Rows arrive either from live bins (:meth:`add_bin`, needs *mapper*
    to attribute alarms to ASes) or verbatim from existing segments
    (:meth:`add_segment`, the compactor's path — *mapper* may be
    ``None`` because nothing is re-derived).
    """

    def __init__(self, mapper: Optional[AsMapper]) -> None:
        # Writers only: a store opened for reading (`serve`) never
        # loads the columnar decoder.
        from repro.atlas.columnar import IPInterner

        self.mapper = mapper
        self.interner = IPInterner()
        self.columns: Dict[str, list] = {
            name: []
            for name, _ in _DELAY_COLUMNS + _FWD_COLUMNS + _EVENT_COLUMNS
        }
        self.resp: List[Tuple[int, float]] = []
        self.pat: List[Tuple[int, float]] = []
        self.ref: List[Tuple[int, float]] = []
        self.resp_offsets = [0]
        self.pat_offsets = [0]
        self.ref_offsets = [0]
        self.asns: List[int] = []
        self.timestamps: List[int] = []

    @property
    def n_rows(self) -> int:
        """Total alarm + event rows accumulated so far."""
        return (
            len(self.columns["d_ts"])
            + len(self.columns["f_ts"])
            + len(self.columns["e_ts"])
        )

    def add_bin(self, result: BinResult) -> None:
        """Append one closed bin's alarms and derived AS events.

        Delay alarms first, then forwarding — the exact order
        :meth:`AlarmAggregator.add_alarms` consumes them, so the event
        journal replays into bit-identical severity series.
        """
        for alarm in result.delay_alarms:
            self._add_delay(alarm)
        for alarm in result.forwarding_alarms:
            self._add_forwarding(alarm)

    def _event(
        self, kind: int, ts: int, asn: int, value: float,
        near: int, far: int,
    ) -> None:
        columns = self.columns
        columns["e_kind"].append(kind)
        columns["e_ts"].append(ts)
        columns["e_asn"].append(asn)
        columns["e_value"].append(value)
        columns["e_near"].append(near)
        columns["e_far"].append(far)
        self.asns.append(asn)
        self.timestamps.append(ts)

    def _add_delay(self, alarm) -> None:
        # Field-for-field the shape of ``delay_alarm_record`` — read off
        # the alarm directly instead of routing through a record dict.
        near = self.interner.intern(alarm.link[0])
        far = self.interner.intern(alarm.link[1])
        columns = self.columns
        columns["d_ts"].append(alarm.timestamp)
        columns["d_near"].append(near)
        columns["d_far"].append(far)
        for interval, prefix in (
            (alarm.observed, "d_obs"), (alarm.reference, "d_ref")
        ):
            columns[f"{prefix}_median"].append(interval.median)
            columns[f"{prefix}_lower"].append(interval.lower)
            columns[f"{prefix}_upper"].append(interval.upper)
            columns[f"{prefix}_n"].append(interval.n)
        columns["d_deviation"].append(alarm.deviation)
        columns["d_direction"].append(alarm.direction)
        columns["d_n_probes"].append(alarm.n_probes)
        columns["d_n_asns"].append(alarm.n_asns)
        self.timestamps.append(alarm.timestamp)
        for asn in self.mapper.asns_of_link(*alarm.link):
            self._event(
                KIND_DELAY, alarm.timestamp, asn,
                alarm.deviation, near, far,
            )

    def _add_forwarding(self, alarm) -> None:
        # Field-for-field the shape of ``forwarding_alarm_record``.
        router = self.interner.intern(alarm.router_ip)
        router_asn = self.mapper.asn_of(alarm.router_ip)
        columns = self.columns
        columns["f_ts"].append(alarm.timestamp)
        columns["f_router"].append(router)
        columns["f_dest"].append(self.interner.intern(alarm.destination))
        columns["f_router_asn"].append(
            router_asn if router_asn is not None else NO_ASN
        )
        columns["f_correlation"].append(alarm.correlation)
        for pool, offsets, mapping in (
            (self.resp, self.resp_offsets, alarm.responsibilities),
            (self.pat, self.pat_offsets, alarm.pattern),
            (self.ref, self.ref_offsets, alarm.reference),
        ):
            for hop, value in mapping.items():
                pool.append((self.interner.intern(hop), value))
            offsets.append(len(pool))
        self.timestamps.append(alarm.timestamp)
        if router_asn is not None:
            self.asns.append(router_asn)
        for hop, value in alarm.responsibilities.items():
            if hop == UNRESPONSIVE or value == 0.0:
                continue
            asn = self.mapper.asn_of(hop)
            if asn is None:
                continue
            self._event(
                KIND_FORWARDING, alarm.timestamp, asn, value,
                router, self.interner.intern(hop),
            )

    def add_segment(
        self, segment: "AlarmSegment", events_only: bool = False
    ) -> None:
        """Append an existing segment's rows verbatim (compaction path).

        Nothing is re-derived: every column value is copied with only
        the segment-local interner ids remapped into this builder's
        interner and the CSR hop-pool offsets re-based.  Appending
        segments in manifest order therefore yields a merged segment
        whose concatenated columns are exactly the source segments'
        columns in order — every :class:`StoreQuery` answer (including
        the float accumulation order of the severity journal) stays
        bit-identical.

        With *events_only* the alarm rows (and their hop pools) are
        left behind and only the ``e_*`` severity-journal rows are
        kept — the retention tier's "coarsen" operation: series,
        events, rankings and link drill-downs survive unchanged while
        raw alarm retrieval over the coarsened range is given up.
        """
        remap = [self.interner.intern(value) for value in segment.strings]
        columns = self.columns
        if not events_only:
            for name, _ in _DELAY_COLUMNS:
                source = getattr(segment, name)
                if name in ("d_near", "d_far"):
                    columns[name].extend(remap[i] for i in source.tolist())
                else:
                    columns[name].extend(source.tolist())
            for name, _ in _FWD_COLUMNS:
                source = getattr(segment, name)
                if name in ("f_router", "f_dest"):
                    columns[name].extend(remap[i] for i in source.tolist())
                else:
                    columns[name].extend(source.tolist())
            for pool, offsets, hops, values, ends in (
                (
                    self.resp, self.resp_offsets,
                    segment.f_resp_hop, segment.f_resp_value,
                    segment.f_resp_offsets,
                ),
                (
                    self.pat, self.pat_offsets,
                    segment.f_pat_hop, segment.f_pat_value,
                    segment.f_pat_offsets,
                ),
                (
                    self.ref, self.ref_offsets,
                    segment.f_ref_hop, segment.f_ref_value,
                    segment.f_ref_offsets,
                ),
            ):
                base = len(pool)
                pool.extend(
                    (remap[hop], value)
                    for hop, value in zip(hops.tolist(), values.tolist())
                )
                offsets.extend(base + end for end in ends.tolist()[1:])
            self.timestamps.extend(segment.d_ts.tolist())
            self.timestamps.extend(segment.f_ts.tolist())
            self.asns.extend(
                asn for asn in segment.f_router_asn.tolist() if asn != NO_ASN
            )
        for name, _ in _EVENT_COLUMNS:
            source = getattr(segment, name)
            if name in ("e_near", "e_far"):
                columns[name].extend(remap[i] for i in source.tolist())
            else:
                columns[name].extend(source.tolist())
        self.asns.extend(segment.e_asn.tolist())
        self.timestamps.extend(segment.e_ts.tolist())

    def parts(self) -> list:
        """The segment payload in serialisation order: string table,
        counts, then every column array.  The one encoder of a segment:
        :meth:`write` frames it on disk, :meth:`AlarmSegment.in_memory`
        parses it in place."""
        columns = self.columns
        parts = [
            binfmt.string_table(self.interner.strings),
            _SEGMENT_COUNTS.pack(
                len(columns["d_ts"]), len(columns["f_ts"]), len(self.resp),
                len(self.pat), len(self.ref), len(columns["e_ts"]),
            ),
        ]
        for spec in (_DELAY_COLUMNS, _FWD_COLUMNS):
            for column_name, dtype in spec:
                parts.append(np.asarray(columns[column_name], dtype=dtype))
        for offsets in (self.resp_offsets, self.pat_offsets, self.ref_offsets):
            parts.append(np.asarray(offsets, dtype="<i8"))
        for pool in (self.resp, self.pat, self.ref):
            parts.append(np.asarray([e[0] for e in pool], dtype="<i8"))
            parts.append(np.asarray([e[1] for e in pool], dtype="<f8"))
        for column_name, dtype in _EVENT_COLUMNS:
            parts.append(np.asarray(columns[column_name], dtype=dtype))
        return parts

    def meta(self, name: str, digest: bytes) -> SegmentMeta:
        """The manifest entry of these rows as segment *name*."""
        columns = self.columns
        return SegmentMeta(
            name=name,
            digest=digest,
            n_delay=len(columns["d_ts"]),
            n_forwarding=len(columns["f_ts"]),
            n_events=len(columns["e_ts"]),
            min_ts=min(self.timestamps) if self.timestamps else 0,
            max_ts=max(self.timestamps) if self.timestamps else -1,
            min_asn=min(self.asns) if self.asns else 0,
            max_asn=max(self.asns) if self.asns else -1,
        )

    def write(self, directory: Path, name: str) -> SegmentMeta:
        """Durably write the rows as segment *name*; return its entry."""
        written = binfmt.atomic_write(directory / name, SEGMENT, self.parts())
        return self.meta(name, written.digest)


def _empty_manifest(bin_s: int, start: Optional[int]) -> Manifest:
    """Generation 0 of a new store epoch: no segments, no bins yet."""
    if bin_s <= 0:
        raise ValueError(f"bin size must be positive: {bin_s}")
    return Manifest(
        store_id=os.urandom(binfmt.DIGEST_SIZE),
        generation=0,
        next_index=0,
        bin_s=bin_s,
        start=start,
        end=start - bin_s if start is not None else 0,
        segments=[],
    )


def _appended(
    manifest: Manifest,
    mapper: AsMapper,
    results: Sequence[BinResult],
    put: Callable[[_SegmentBuilder, str], SegmentMeta],
) -> Tuple[Manifest, int]:
    """*manifest* after an append of *results*, and the bins appended.

    Bins the manifest already covers are skipped; the fresh ones become
    one segment's rows, which ``put(builder, name)`` stores (on disk or
    in memory) and returns the entry of.  Quiet bins still advance the
    clock.  Returns *manifest* itself and 0 when nothing is fresh.
    """
    fresh = [
        result
        for result in results
        if manifest.start is None or result.timestamp > manifest.end
    ]
    if not fresh:
        return manifest, 0
    timestamps = [result.timestamp for result in fresh]
    if timestamps != sorted(set(timestamps)):
        raise StoreError(
            "bin results must arrive in strictly increasing "
            "timestamp order"
        )
    start = manifest.start if manifest.start is not None else timestamps[0]
    for ts in timestamps:
        if ts < start or (ts - start) % manifest.bin_s:
            raise StoreError(
                f"bin timestamp {ts} is off the store clock "
                f"(start {start}, bin_s {manifest.bin_s})"
            )
    end = timestamps[-1]
    builder = _SegmentBuilder(mapper)
    for result in fresh:
        builder.add_bin(result)
    if builder.timestamps:
        # Alarms may be stamped anywhere inside their bin; the clock
        # must cover the bin containing the latest one (exactly like
        # the aggregator's _last_timestamp) and never precede start.
        if min(builder.timestamps) < start:
            raise StoreError(
                f"alarm timestamp {min(builder.timestamps)} precedes "
                f"the store start {start}"
            )
        latest = max(builder.timestamps)
        end = max(
            end,
            start + ((latest - start) // manifest.bin_s) * manifest.bin_s,
        )
    segments = list(manifest.segments)
    next_index = manifest.next_index
    if builder.n_rows:
        segments.append(put(builder, f"seg-{next_index:08d}.seg"))
        next_index += 1
    return (
        Manifest(
            store_id=manifest.store_id,
            generation=manifest.generation + 1,
            next_index=next_index,
            bin_s=manifest.bin_s,
            start=start,
            end=end,
            segments=segments,
        ),
        len(fresh),
    )


class AlarmSegment:
    """One immutable segment, mmap-read into NumPy column views.

    Attribute names follow the serialisation schema (``d_*`` delay
    alarm columns, ``f_*`` forwarding columns with CSR hop pools,
    ``e_*`` AS-event columns); ``strings`` is the segment-local
    interner table and :meth:`id_of` resolves an IP back to its id.
    """

    def __init__(self, path: Path, meta: SegmentMeta) -> None:
        self.meta = meta
        self._index: Optional[Dict[str, int]] = None
        # The mapping lives as long as the segment: every column is a
        # zero-copy numpy view into the page cache.
        binfmt.map_frame(path, SEGMENT, self._parse, keep=True)

    @classmethod
    def in_memory(cls, builder: _SegmentBuilder, name: str) -> "AlarmSegment":
        """*builder*'s rows as segment *name* with no file behind it.

        The payload :meth:`_SegmentBuilder.write` would frame, parsed
        and vetted in place: the same columns and digest as the file.
        """
        payload = memoryview(b"".join(builder.parts()))
        digest = binfmt.digest(payload)
        segment = cls.__new__(cls)
        segment.meta = builder.meta(name, digest)
        segment._index = None
        segment._parse(binfmt.Reader(payload, SEGMENT, name, digest))
        return segment

    def _parse(self, reader: binfmt.Reader) -> None:
        path = reader.path
        if reader.digest != self.meta.digest:
            raise StoreError(
                f"segment digest does not match its manifest entry: {path}"
            )
        self.strings = reader.strings()
        counts = reader.unpack(_SEGMENT_COUNTS)
        n_delay, n_fwd, n_resp, n_pat, n_ref, n_events = counts
        if (n_delay, n_fwd, n_events) != (
            self.meta.n_delay, self.meta.n_forwarding, self.meta.n_events
        ):
            raise StoreError(
                f"segment row counts disagree with the manifest: {path}"
            )
        column = reader.column
        for name, dtype in _DELAY_COLUMNS:
            setattr(self, name, column(dtype, n_delay))
        for name, dtype in _FWD_COLUMNS:
            setattr(self, name, column(dtype, n_fwd))
        self.f_resp_offsets = column("<i8", n_fwd + 1)
        self.f_pat_offsets = column("<i8", n_fwd + 1)
        self.f_ref_offsets = column("<i8", n_fwd + 1)
        self.f_resp_hop = column("<i8", n_resp)
        self.f_resp_value = column("<f8", n_resp)
        self.f_pat_hop = column("<i8", n_pat)
        self.f_pat_value = column("<f8", n_pat)
        self.f_ref_hop = column("<i8", n_ref)
        self.f_ref_value = column("<f8", n_ref)
        for name, dtype in _EVENT_COLUMNS:
            setattr(self, name, column(dtype, n_events))
        reader.done()
        self._validate(path)

    def _validate(self, path: Path) -> None:
        """Structural vetting beyond the digest."""
        for name in ("resp", "pat", "ref"):
            binfmt.check_offsets(
                getattr(self, f"f_{name}_offsets"),
                self.f_ts.size,
                getattr(self, f"f_{name}_hop").size,
                f"{name} hop offsets in {path}",
                StoreError,
            )
        for name in (
            "d_near", "d_far", "f_router", "f_dest", "f_resp_hop",
            "f_pat_hop", "f_ref_hop", "e_near", "e_far",
        ):
            binfmt.check_ids(
                getattr(self, name), len(self.strings), f"{name} in {path}",
                StoreError,
            )
        if self.e_kind.size and int(self.e_kind.max()) > KIND_FORWARDING:
            raise StoreError(f"unknown event kind: {path}")

    def id_of(self, ip: str) -> Optional[int]:
        """This segment's interned id for *ip* (``None`` when absent)."""
        if self._index is None:
            self._index = {
                value: index for index, value in enumerate(self.strings)
            }
        return self._index.get(ip)


class AlarmStore:
    """Read side of a store directory: manifest + cached mmap segments.

    ``refresh()`` re-reads the manifest and reports whether a writer
    published a new generation; segments are immutable, so previously
    opened ones stay cached across generations by (name, digest).
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._manifest_path = self.path / MANIFEST_NAME
        self._blob = binfmt.read_bytes(self._manifest_path, MANIFEST)
        self.manifest = _parse_manifest(self._blob, self._manifest_path)
        self._segments: Dict[Tuple[str, bytes], AlarmSegment] = {}
        self._reads = store_metrics(default_registry())["manifest_reads"]

    @property
    def generation(self) -> int:
        """The manifest generation last seen by :meth:`refresh`."""
        return self.manifest.generation

    @property
    def bin_s(self) -> int:
        """The store's bin length in seconds."""
        return self.manifest.bin_s

    def refresh(self) -> bool:
        """Reload the manifest; True when the store state changed.

        Compares the epoch-qualified :attr:`Manifest.token` — a
        recreated store (fresh epoch id, generation restarted) is a
        change even when the bare generation number coincides.

        A manifest whose bytes equal the last accepted ones is not
        parsed again (every cache miss probes it).  Byte equality, not
        ``stat``: an atomic rename may reuse inode and mtime.
        """
        blob = binfmt.read_bytes(self._manifest_path, MANIFEST)
        if blob == self._blob:
            self._reads.labels("unchanged").inc()
            return False
        manifest = _parse_manifest(blob, self._manifest_path)
        self._reads.labels("parsed").inc()
        self._blob = blob
        changed = manifest.token != self.manifest.token
        self.manifest = manifest
        if changed:
            live = {(m.name, m.digest) for m in manifest.segments}
            self._segments = {
                key: segment
                for key, segment in self._segments.items()
                if key in live
            }
        return changed

    def segment(self, meta: SegmentMeta) -> AlarmSegment:
        """The opened (validated, cached) segment for *meta*."""
        key = (meta.name, meta.digest)
        segment = self._segments.get(key)
        if segment is None:
            segment = AlarmSegment(self.path / meta.name, meta)
            self._segments[key] = segment
        return segment

    def segments(
        self,
        t0: Optional[int] = None,
        t1: Optional[int] = None,
    ) -> Iterable[AlarmSegment]:
        """Open segments possibly holding rows in ``[t0, t1)`` (all
        segments without a range).

        Yields in manifest (append) order — the order that preserves
        the severity journal's accumulation semantics.
        """
        for meta in self.manifest.segments:
            if t0 is not None and t1 is not None and not meta.overlaps(t0, t1):
                continue
            yield self.segment(meta)


class MemoryStore(AlarmStore):
    """An alarm store held in memory, for a report nobody will serve.

    :meth:`append_bins` builds exactly the segments and manifest that
    :class:`AlarmStoreWriter` would publish, but keeps the segments as
    in-memory columns (:meth:`AlarmSegment.in_memory`) and writes
    nothing.  :class:`~repro.service.query.StoreQuery` reads it like a
    store directory; nothing else writes it, so it never refreshes.
    """

    def __init__(
        self, mapper: AsMapper, bin_s: int = 3600, start: Optional[int] = None
    ) -> None:
        # No directory: the AlarmStore fields that read one stay unset.
        self.mapper = mapper
        self.manifest = _empty_manifest(bin_s, start)
        self._segments = {}

    def refresh(self) -> bool:
        return False

    def append_bins(self, results: Sequence[BinResult]) -> int:
        """Append closed bins like :meth:`AlarmStoreWriter.append_bins`."""
        self.manifest, appended = _appended(
            self.manifest, self.mapper, results, self._hold
        )
        return appended

    def _hold(self, builder: _SegmentBuilder, name: str) -> SegmentMeta:
        segment = AlarmSegment.in_memory(builder, name)
        self._segments[(name, segment.meta.digest)] = segment
        return segment.meta


class AlarmStoreWriter:
    """Append side of a store directory.

    One writer owns a store at a time (single-writer, many-reader).
    Every :meth:`append_bins` call publishes at most one new segment and
    exactly one new manifest generation; bins whose timestamp the store
    already covers are skipped, so at-least-once streaming replay (e.g.
    a monitor restarted from a checkpoint) never duplicates rows.
    """

    def __init__(self, path: PathLike, mapper: AsMapper) -> None:
        self.path = Path(path)
        self.mapper = mapper
        self.manifest = read_manifest(self.path)

    @classmethod
    def create(
        cls,
        path: PathLike,
        mapper: AsMapper,
        bin_s: int = 3600,
        start: Optional[int] = None,
        overwrite: bool = False,
    ) -> "AlarmStoreWriter":
        """Initialise a fresh store directory and return its writer.

        Refuses to clobber an existing store unless *overwrite* is set
        (then old segments are removed with the manifest rewritten
        first, so a concurrent reader fails loudly rather than reading
        unlinked files' stale cache).
        """
        manifest = _empty_manifest(bin_s, start)
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        manifest_path = directory / MANIFEST_NAME
        if manifest_path.exists() and not overwrite:
            raise StoreError(
                f"store already exists (pass overwrite=True): {directory}"
            )
        write_manifest(directory, manifest)
        for stale in directory.glob("seg-*.seg"):
            stale.unlink()
        return cls(directory, mapper)

    @classmethod
    def open_or_create(
        cls, path: PathLike, mapper: AsMapper, bin_s: int = 3600
    ) -> "AlarmStoreWriter":
        """Continue an existing store, or initialise a fresh one.

        An existing store must have been built with the same *bin_s* —
        mixing bin clocks would corrupt every series.
        """
        manifest_path = Path(path) / MANIFEST_NAME
        if not manifest_path.exists():
            return cls.create(path, mapper, bin_s=bin_s)
        writer = cls(path, mapper)
        if writer.manifest.bin_s != bin_s:
            raise StoreError(
                f"store bin_s {writer.manifest.bin_s} != {bin_s}: {path}"
            )
        return writer

    @property
    def generation(self) -> int:
        """The generation this writer last published."""
        return self.manifest.generation

    def reload(self) -> bool:
        """Re-read the manifest; True when another process advanced it.

        A maintenance job (the compactor) may republish the store
        between appends; the writer must adopt that state or its next
        append would resurrect replaced segments.  Call this after any
        out-of-band store mutation (``monitor --compact-every`` does).
        """
        manifest = read_manifest(self.path)
        changed = manifest.token != self.manifest.token
        self.manifest = manifest
        return changed

    @property
    def total_alarms(self) -> int:
        """Alarm rows (both kinds) across every published segment."""
        return sum(
            meta.n_delay + meta.n_forwarding
            for meta in self.manifest.segments
        )

    @property
    def total_events(self) -> int:
        """AS-attributed severity rows across every published segment.

        Zero while :attr:`total_alarms` is positive means no alarm IP
        mapped to any AS — almost always a mapper mismatch (e.g. the
        CLI's ``--seed`` differing from the feed's generation seed).
        """
        return sum(meta.n_events for meta in self.manifest.segments)

    def append_bins(self, results: Sequence[BinResult]) -> int:
        """Append closed bins' alarms and events; returns bins appended.

        Already-covered bins (timestamp ≤ the store's end) are skipped.
        The store's clock advances over every *new* bin — quiet bins
        extend the zero-padding horizon of all severity series, exactly
        like :meth:`AlarmAggregator.close`.

        Refuses (``StoreError``) if the on-disk manifest no longer
        matches this writer's cached state — publishing from a stale
        base would silently discard whatever advanced the store (a
        compactor's merge, another writer's segment).  Call
        :meth:`reload` to adopt the new state first.  The whole
        check-and-publish runs under the store's :func:`publish_lock`,
        so a compaction pass can never slip between the staleness check
        and the manifest swap.
        """
        with publish_lock(self.path):
            return self._append_bins_locked(results)

    def _append_bins_locked(self, results: Sequence[BinResult]) -> int:
        """The body of :meth:`append_bins` (publish lock already held)."""
        append_start = perf_counter()
        on_disk = read_manifest(self.path)
        if on_disk.token != self.manifest.token:
            raise StoreError(
                f"store advanced underneath this writer "
                f"(disk {on_disk.token} != writer {self.manifest.token}); "
                f"call reload() before appending: {self.path}"
            )
        manifest, appended = _appended(
            self.manifest, self.mapper, results,
            lambda builder, name: builder.write(self.path, name),
        )
        if not appended:
            return 0
        metrics = store_metrics(default_registry())
        if len(manifest.segments) > len(self.manifest.segments):
            meta = manifest.segments[-1]
            metrics["rows"].labels("delay").inc(meta.n_delay)
            metrics["rows"].labels("forwarding").inc(meta.n_forwarding)
            metrics["rows"].labels("event").inc(meta.n_events)
        self.manifest = manifest
        write_manifest(self.path, self.manifest)
        metrics["appends"].inc()
        metrics["append_seconds"].observe(perf_counter() - append_start)
        metrics["segments"].set(len(self.manifest.segments))
        metrics["generation"].set(self.manifest.generation)
        return appended


def append_analysis(
    path: PathLike,
    analysis,
    segment_bins: int = 64,
    overwrite: bool = True,
) -> AlarmStoreWriter:
    """Export a completed :class:`CampaignAnalysis` into a store.

    Creates (by default: recreates) the store at *path* anchored at the
    analysis aggregator's bin clock, then appends every bin result
    through :func:`append_results`.  Returns the writer (its
    ``generation`` reflects the final published state).
    """
    if segment_bins < 1:
        raise ValueError(f"segment_bins must be >= 1: {segment_bins}")
    aggregator = analysis.aggregator
    writer = AlarmStoreWriter.create(
        path,
        aggregator.mapper,
        bin_s=aggregator.bin_s,
        start=aggregator.start,
        overwrite=overwrite,
    )
    append_results(writer, analysis.bin_results, segment_bins)
    return writer


def append_results(
    store, results: Sequence[BinResult], segment_bins: int = 64
) -> None:
    """Append *results* to *store* (an :class:`AlarmStoreWriter` or a
    :class:`MemoryStore`), *segment_bins* bins per segment."""
    for index in range(0, len(results), segment_bins):
        store.append_bins(results[index : index + segment_bins])
