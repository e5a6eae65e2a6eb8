"""Versioned binary on-disk cache for columnar traceroute batches.

Replaying an archived campaign through the pipeline twice should not pay
for JSON parsing twice.  This module persists a
:class:`~repro.atlas.columnar.TracerouteBatch` as one
:mod:`repro.binfmt` file — a fingerprint of the source JSONL (size +
mtime), the interner's string table, and the raw bytes of every column —
so a warm replay goes disk → ``array.frombytes`` → detection with no
JSON, no object construction and no per-value Python work at all.

The frame carries magic, version and a payload digest, so a stale,
foreign or corrupt cache fails loudly with :class:`BinCacheError`, and
:func:`load_cached` treats it as a miss.  Column payloads keep the
writer's byte order (recorded in the payload, fixed up with
``array.byteswap`` on load), so caches move between machines.

The CLI's ``--bin-cache`` flag is two halves: :func:`load_cached`
returns the cached columns when the cache matches the source file's
fingerprint; on a miss, ``analyze`` streams the JSONL through the
engine and a :class:`BinCacheSpool` writes the cache as the rows go by,
so the campaign is never held whole to be persisted.

With ``mapped=True`` a warm load goes one step further: instead of
copying every column out of the mapping, the batch's columns become
zero-copy ``memoryview`` casts into the kept-alive mmap — the head of
the fused spine (:mod:`repro.core.fused`), where bin payloads flow from
the page cache through extraction into the arena kernels without a
per-column copy.  Mapped columns index and slice exactly like the
``array`` columns (plain Python ints/floats out), but are read-only and
pin the mapping for the batch's lifetime; foreign-byte-order caches
silently fall back to the copying load.
"""

from __future__ import annotations

import os
import struct
import sys
import tempfile
import warnings
from array import array
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro import binfmt
from repro.atlas.columnar import IPInterner, TracerouteBatch
from repro.obs.metrics import default_registry
from repro.atlas.io import PathLike

#: File identification: magic bytes plus an explicit format version.
#: Version 2 put the payload under the shared frame's digest.
MAGIC = b"RPROBINC"
CACHE_VERSION = 2

#: Default suffix appended to the source path for implicit cache files.
DEFAULT_SUFFIX = ".binc"

#: The batch columns in serialisation order: (attribute, typecode).
_COLUMNS = (
    ("timestamp", "q"),
    ("prb_id", "q"),
    ("src_id", "q"),
    ("dst_id", "q"),
    ("from_asn", "q"),
    ("msm_id", "q"),
    ("paris_id", "q"),
    ("af", "q"),
    ("hop_offsets", "q"),
    ("hop_ttl", "q"),
    ("reply_offsets", "q"),
    ("reply_ip", "q"),
    ("reply_rtt", "d"),
)

#: The per-traceroute columns (one element per row) lead the list.
_ROW_COLUMNS = tuple(name for name, _ in _COLUMNS[:8])

#: Payload head: big-endian columns flag, then the source fingerprint
#: (size in bytes, mtime in nanoseconds).  The string table follows,
#: then each column as an element count and its raw bytes.
_PREFIX = struct.Struct("<?QQ")

Fingerprint = Tuple[int, int]


class BinCacheError(binfmt.FormatError):
    """A cache file is missing, foreign, truncated, stale or corrupt."""


BINCACHE = binfmt.Format(MAGIC, CACHE_VERSION, "bin cache", BinCacheError)


def fingerprint_of(path: PathLike) -> Fingerprint:
    """The (size, mtime_ns) fingerprint used to detect stale caches."""
    status = os.stat(path)
    return status.st_size, status.st_mtime_ns


def default_cache_path(source: PathLike) -> Path:
    """Where ``--bin-cache`` with no path keeps the cache for *source*."""
    source = Path(source)
    return source.with_name(source.name + DEFAULT_SUFFIX)


def _payload(
    fingerprint: Optional[Fingerprint],
    strings: Sequence[str],
    columns: Iterable[Tuple[int, Iterable]],
) -> Iterator:
    """The cache payload, chunk by chunk; *columns* yields one
    ``(element count, bytes-like chunks)`` per :data:`_COLUMNS` entry."""
    size, mtime_ns = fingerprint if fingerprint is not None else (0, 0)
    yield _PREFIX.pack(sys.byteorder == "big", size, mtime_ns)
    yield binfmt.string_table(strings)
    for count, chunks in columns:
        yield binfmt.U64.pack(count)
        yield from chunks


def write_bincache(
    path: PathLike,
    batch: TracerouteBatch,
    fingerprint: Optional[Fingerprint] = None,
) -> int:
    """Persist *batch* to *path* durably; returns the bytes written.

    *fingerprint* ties the cache to its source JSONL ((0, 0) = unbound,
    always accepted).  Columns stream straight to disk, so peak memory
    stays at the batch itself rather than batch + a serialised copy.
    """
    columns = (
        (len(column), (column,))
        for column in (getattr(batch, name) for name, _ in _COLUMNS)
    )
    payload = _payload(fingerprint, batch.interner.strings, columns)
    return binfmt.atomic_write(path, BINCACHE, payload).size


def _loads():
    return default_registry().counter(
        "repro_bincache_loads_total",
        "Bin-cache loads by outcome (hit = served from cache).",
        ("result",),
    )


class BinCacheSpool:
    """A bin cache written while its campaign is still being decoded.

    Each :meth:`append` writes the rows a chunk added to a batch column
    by column to anonymous temporary files beside the cache, with the
    hop and reply offsets rebased onto the rows spooled before them;
    the batch may drop those rows afterwards (``analyze``'s stream
    does).  :meth:`publish` frames the spools behind the finished
    string table through :func:`binfmt.atomic_write` — the payload
    :func:`write_bincache` writes for the whole batch, byte for byte.

    The cache is an optimisation: a spool that cannot be written warns
    once (:class:`RuntimeWarning`) and goes quiet, and the analysis goes
    on.  The temporary files have no name, so nothing is left behind
    however the run ends.
    """

    def __init__(
        self, path: PathLike, fingerprint: Optional[Fingerprint] = None
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._hops = 0
        self._replies = 0
        self._files: Optional[Dict[str, object]] = {}
        try:
            for name, _ in _COLUMNS:
                self._files[name] = tempfile.TemporaryFile(
                    dir=self.path.parent
                )
            for name in ("hop_offsets", "reply_offsets"):
                self._files[name].write(array("q", (0,)))
        except OSError as exc:
            self._fail(exc)

    def _fail(self, exc: OSError) -> None:
        warnings.warn(
            f"bin cache not written: {self.path}: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )
        self.close()
        self._files = None

    def append(self, batch: TracerouteBatch, first: int) -> None:
        """Spool rows ``first:`` of *batch* (its newest rows)."""
        files = self._files
        if files is None:
            return
        hop_lo = batch.hop_offsets[first]
        reply_lo = batch.reply_offsets[hop_lo]
        hop_offsets = np.frombuffer(batch.hop_offsets, dtype=np.int64)
        reply_offsets = np.frombuffer(batch.reply_offsets, dtype=np.int64)
        chunks = {
            name: memoryview(getattr(batch, name))[first:]
            for name in _ROW_COLUMNS
        }
        chunks.update(
            hop_offsets=hop_offsets[first + 1:] - (hop_lo - self._hops),
            hop_ttl=memoryview(batch.hop_ttl)[hop_lo:],
            reply_offsets=reply_offsets[hop_lo + 1:]
            - (reply_lo - self._replies),
            reply_ip=memoryview(batch.reply_ip)[reply_lo:],
            reply_rtt=memoryview(batch.reply_rtt)[reply_lo:],
        )
        try:
            for name, _ in _COLUMNS:
                files[name].write(chunks[name])
        except OSError as exc:
            self._fail(exc)
            return
        self._hops += len(batch.hop_ttl) - hop_lo
        self._replies += len(batch.reply_ip) - reply_lo

    def publish(self, strings: Sequence[str]) -> bool:
        """Frame the spooled columns into the cache; True once on disk.

        *strings* is the interner table every spooled id points into.
        Counts one ``rebuilt`` load either way, as the cache was due.
        Each spool is closed as soon as it is framed, so the disk holds
        the cache plus about one column's spool at most, not two
        copies of the cache.
        """
        _loads().labels("rebuilt").inc()
        files = self._files
        if files is None:
            return False

        def drained(spool) -> Iterator[bytes]:
            with spool:
                spool.seek(0)
                yield from iter(partial(spool.read, 1 << 20), b"")

        def columns():
            for name, typecode in _COLUMNS:
                spool = files[name]
                yield spool.tell() // array(typecode).itemsize, drained(spool)

        try:
            binfmt.atomic_write(
                self.path,
                BINCACHE,
                _payload(self.fingerprint, strings, columns()),
            )
        except OSError as exc:
            self._fail(exc)
            return False
        self.close()
        return True

    def close(self) -> None:
        """Drop the temporary files (they vanish with their handles)."""
        for spool in (self._files or {}).values():
            spool.close()


def read_bincache(
    path: PathLike,
    fingerprint: Optional[Fingerprint] = None,
    mapped: bool = False,
) -> TracerouteBatch:
    """Load a batch from *path*, validating format and freshness.

    Passing the current *fingerprint* of the source JSONL makes a stale
    cache (source rewritten since the cache was built) raise
    :class:`BinCacheError` instead of silently serving old data; pass
    ``None`` to accept the cache unconditionally.

    With ``mapped=True`` same-byte-order caches come back with columns
    that are zero-copy ``memoryview`` casts into the mapping (kept
    alive by the columns themselves); the returned batch is then
    read-only.  See the module docs for the exact semantics.
    """
    return binfmt.map_frame(
        path,
        BINCACHE,
        lambda reader: _parse_cache(reader, fingerprint, mapped),
        keep=mapped,
    )


def _parse_cache(
    reader: binfmt.Reader,
    fingerprint: Optional[Fingerprint],
    mapped: bool,
) -> TracerouteBatch:
    """Decode a vetted cache payload (see :func:`read_bincache`)."""
    big_endian, size, mtime_ns = reader.unpack(_PREFIX)
    if fingerprint is not None and (size, mtime_ns) not in ((0, 0), tuple(fingerprint)):
        raise BinCacheError(
            f"stale bin cache (source changed since it was built): "
            f"{reader.path}"
        )
    batch = TracerouteBatch(IPInterner(reader.strings()))
    foreign_order = big_endian != (sys.byteorder == "big")
    for name, typecode in _COLUMNS:
        column = array(typecode)
        payload = reader.take(reader.u64() * column.itemsize)
        if mapped and not foreign_order:
            # Zero-copy: the column IS the mapping, cast to its element
            # type.  Indexing yields plain ints/floats exactly like the
            # array columns; byteswapping needs a copy, so foreign-order
            # caches take the branch below instead.
            setattr(batch, name, payload.cast(typecode))
            continue
        column.frombytes(payload)
        if foreign_order:
            column.byteswap()
        setattr(batch, name, column)
    reader.done()
    _validate_shape(batch, reader.path)
    return batch


def _validate_shape(batch: TracerouteBatch, path: PathLike) -> None:
    """Structural invariants guarding against corrupt caches.

    Beyond column lengths, this vets what analysis will later *index
    with*: offset tables must be monotone and anchored, and every
    interner id must point inside the string table.  A digest-valid but
    wrong cache must surface here as :class:`BinCacheError` (so
    :func:`load_cached` misses and ``analyze`` spools a new one through
    :class:`BinCacheSpool`) — never as an IndexError or
    silently wrong attribution mid-analysis.
    """
    n = len(batch.timestamp)
    for name in ("prb_id", "src_id", "dst_id", "from_asn", "msm_id",
                 "paris_id", "af"):
        if len(getattr(batch, name)) != n:
            raise BinCacheError(f"column {name!r} length mismatch: {path}")
    if len(batch.reply_rtt) != len(batch.reply_ip):
        raise BinCacheError(f"reply column length mismatch: {path}")
    def column(name: str) -> np.ndarray:  # a numpy view, no copy
        return np.frombuffer(getattr(batch, name), dtype=np.int64)

    binfmt.check_offsets(
        column("hop_offsets"), n, len(batch.hop_ttl),
        f"hop_offsets in {path}", BinCacheError,
    )
    binfmt.check_offsets(
        column("reply_offsets"), len(batch.hop_ttl), len(batch.reply_ip),
        f"reply_offsets in {path}", BinCacheError,
    )
    n_strings = len(batch.interner)
    binfmt.check_ids(
        column("reply_ip"), n_strings, f"reply_ip in {path}", BinCacheError,
        low=-1,
    )
    for name in ("src_id", "dst_id"):
        binfmt.check_ids(
            column(name), n_strings, f"{name} in {path}", BinCacheError
        )


def load_cached(
    source_path: PathLike,
    cache_path: Optional[PathLike] = None,
    mapped: bool = False,
) -> Optional[TracerouteBatch]:
    """The cached columns of a JSONL campaign file, or ``None``.

    *cache_path* defaults to the source path plus
    :data:`DEFAULT_SUFFIX`.  ``None`` means the cache must be rebuilt:
    it is absent, or stale against the source's current fingerprint,
    or foreign or corrupt.  *mapped* keeps the columns zero-copy views
    into the cache file's mapping (see :func:`read_bincache`).  A hit
    counts one ``hit`` load.
    """
    source = Path(source_path)
    cache = Path(cache_path) if cache_path is not None else default_cache_path(source)
    if not cache.exists():
        return None
    try:
        batch = read_bincache(cache, fingerprint=fingerprint_of(source), mapped=mapped)
    except BinCacheError:
        return None
    _loads().labels("hit").inc()
    return batch
