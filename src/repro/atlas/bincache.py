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

The CLI's ``--bin-cache`` flag is two halves.  On a hit, ``analyze``
streams the cache through the engine with a :class:`BinCacheReader`:
one bounded pass verifies the digest, then the columns are read back a
chunk of rows at a time, so a warm run holds about as little as a cold
one.  On a miss, ``analyze`` streams the JSONL through the engine and a
:class:`BinCacheSpool` writes the cache as the rows go by, so the
campaign is never held whole to be persisted.

:func:`read_bincache` loads the whole batch at once (``analyze
--checkpoint`` uses it through :func:`load_cached`; a warm stream that
finds the file out of time order joins the reader's chunks instead,
:meth:`BinCacheReader.batch`).  With ``mapped=True`` it goes one step
further: instead of copying every column out of the mapping, the
batch's columns become zero-copy ``memoryview`` casts into the
kept-alive mmap.  Mapped columns index and slice exactly like the
``array`` columns (plain Python ints/floats out), but are read-only
and pin the mapping for the batch's lifetime; foreign-byte-order
caches silently fall back to the copying load.
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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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

#: Column name -> typecode.
_TYPECODES = dict(_COLUMNS)

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


#: Column bytes per :class:`BinCacheReader` chunk, about.
_CHUNK_BYTES = 1 << 20


class _FilePayload:
    """The payload of an open cache file, sliced like a memoryview:
    each slice is read from the file (a short read is a truncation)."""

    def __init__(self, handle, length: int, path: Path) -> None:
        self._handle = handle
        self._length = length
        self._path = path

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, part: slice) -> bytes:
        count = part.stop - part.start
        self._handle.seek(binfmt.FRAME_SIZE + part.start)
        data = self._handle.read(count)
        if len(data) != count:
            raise BINCACHE.fail("truncated bin cache payload", self._path)
        return data


class BinCacheReader:
    """A bin cache read one chunk of rows at a time, in bounded memory.

    Opening it vets the frame and verifies the payload digest through
    one bounded buffer (:func:`binfmt.verify_file`; the file is never
    mapped), then walks the payload's column directory as
    :func:`read_bincache` does, without reading the columns: the
    fingerprint is checked, the string table interned into
    :attr:`interner` and the columns located.  :meth:`chunks` then
    yields :class:`TracerouteBatch` chunks of consecutive rows, about
    :data:`_CHUNK_BYTES` of columns each, read as slices of the file,
    all on :attr:`interner`, their hop and reply offsets rebased to
    start at 0 and a foreign byte order swapped.  Concatenated, they
    are the batch :func:`read_bincache` returns; :meth:`batch` joins
    them.

    Every chunk gets the checks :func:`read_bincache` applies to the
    whole batch (offset tables monotone and anchored at both ends,
    interned ids in range), so a digest-valid but wrong cache raises
    :class:`BinCacheError` at the chunk that holds the fault, possibly
    after earlier chunks were used: the caller must be able to discard
    them.  An I/O error is a :class:`BinCacheError` too.  The first
    pass that reads every chunk counts one ``hit`` load.
    """

    def __init__(
        self, path: PathLike, fingerprint: Optional[Fingerprint] = None
    ) -> None:
        self.path = Path(path)
        self._hit = False
        try:
            self._file = open(self.path, "rb")
        except OSError as exc:
            raise BinCacheError(f"cannot read bin cache {path}: {exc}") from exc
        try:
            self._locate(fingerprint)
        except OSError as exc:
            self.close()
            raise BinCacheError(f"cannot read bin cache {path}: {exc}") from exc
        except BaseException:
            self.close()
            raise

    def _locate(self, fingerprint: Optional[Fingerprint]) -> None:
        length = binfmt.verify_file(self._file, BINCACHE, self.path)
        self._payload = _FilePayload(self._file, length, self.path)
        self._foreign, strings, self._columns = _directory(
            binfmt.Reader(self._payload, BINCACHE, self.path), fingerprint
        )
        self.interner = IPInterner(strings)
        counts = {name: count for name, (_, count) in self._columns.items()}
        #: Traceroutes in the cache.
        self.rows = counts["timestamp"]
        self._hops, self._replies = counts["hop_ttl"], counts["reply_ip"]
        for name, total in (
            ("hop_offsets", self._hops), ("reply_offsets", self._replies)
        ):
            last = counts[name] - 1
            ends = self._read(name, 0, 1) + self._read(name, last, last + 1)
            if tuple(ends) != (0, total):
                raise BinCacheError(f"bad offset table: {name} in {self.path}")
        column_bytes = length - self._columns["timestamp"][0]
        self._step = max(
            1, _CHUNK_BYTES * self.rows // max(1, column_bytes)
        )

    def _read(self, name: str, lo: int, hi: int) -> array:
        """Elements ``lo:hi`` of column *name*, in this host's byte order."""
        typecode = _TYPECODES[name]
        start, _ = self._columns[name]
        size = array(typecode).itemsize
        data = self._payload[start + lo * size : start + hi * size]
        return _column(typecode, data, self._foreign)

    def _offsets(self, name: str, lo: int, hi: int, total: int) -> array:
        """Offset entries ``lo..hi`` of *name*, rebased to start at 0."""
        column = self._read(name, lo, hi + 1)
        offsets = np.frombuffer(column, dtype=np.int64)
        if offsets[-1] > total or bool(np.any(np.diff(offsets) < 0)):
            raise BinCacheError(f"bad offset table: {name} in {self.path}")
        offsets -= offsets[0]
        return column

    def chunks(self) -> Iterator[TracerouteBatch]:
        """Yield the cache's rows a chunk at a time, from the first row
        (see the class docs)."""
        row = hop = reply = 0
        try:
            while row < self.rows:
                end = min(self.rows, row + self._step)
                chunk = TracerouteBatch(self.interner)
                for name in _ROW_COLUMNS:
                    setattr(chunk, name, self._read(name, row, end))
                hop_offsets = self._offsets(
                    "hop_offsets", row, end, self._hops
                )
                hop_end = hop + hop_offsets[-1]
                reply_offsets = self._offsets(
                    "reply_offsets", hop, hop_end, self._replies
                )
                reply_end = reply + reply_offsets[-1]
                chunk.hop_offsets = hop_offsets
                chunk.hop_ttl = self._read("hop_ttl", hop, hop_end)
                chunk.reply_offsets = reply_offsets
                chunk.reply_ip = self._read("reply_ip", reply, reply_end)
                chunk.reply_rtt = self._read("reply_rtt", reply, reply_end)
                _check_ids(chunk, self.path)
                yield chunk
                row, hop, reply = end, hop_end, reply_end
        except OSError as exc:
            raise BinCacheError(
                f"cannot read bin cache {self.path}: {exc}"
            ) from exc
        if not self._hit:
            self._hit = True
            _loads().labels("hit").inc()

    def batch(self) -> TracerouteBatch:
        """Every row as one batch: :meth:`chunks` joined."""
        whole = TracerouteBatch(self.interner)
        for chunk in self.chunks():
            whole.extend(chunk)
        return whole

    def close(self) -> None:
        """Close the cache file."""
        self._file.close()


def _check_fingerprint(
    recorded: Fingerprint, fingerprint: Optional[Fingerprint], path
) -> None:
    """Refuse a cache built from another version of its source."""
    if fingerprint is not None and recorded not in ((0, 0), tuple(fingerprint)):
        raise BinCacheError(
            f"stale bin cache (source changed since it was built): {path}"
        )


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
    foreign_order, strings, columns = _directory(reader, fingerprint)
    batch = TracerouteBatch(IPInterner(strings))
    for name, typecode in _COLUMNS:
        start, count = columns[name]
        payload = reader.view[start : start + count * array(typecode).itemsize]
        if mapped and not foreign_order:
            # Zero-copy: the column IS the mapping, cast to its element
            # type.  Indexing yields plain ints/floats exactly like the
            # array columns; byteswapping needs a copy, so foreign-order
            # caches take the copying branch instead.
            setattr(batch, name, payload.cast(typecode))
        else:
            setattr(batch, name, _column(typecode, payload, foreign_order))
    _validate_shape(batch, reader.path)
    return batch


def _directory(
    reader: binfmt.Reader, fingerprint: Optional[Fingerprint]
) -> Tuple[bool, List[str], Dict[str, Tuple[int, int]]]:
    """Walk a cache payload up to its column bytes, which are skipped.

    Returns (foreign byte order, string table, column name -> (payload
    offset of its first element, element count)), once the fingerprint
    and the column lengths passed their checks.
    """
    big_endian, size, mtime_ns = reader.unpack(_PREFIX)
    _check_fingerprint((size, mtime_ns), fingerprint, reader.path)
    strings = reader.strings()
    columns: Dict[str, Tuple[int, int]] = {}
    for name, typecode in _COLUMNS:
        count = reader.u64()
        columns[name] = (reader.skip(count * array(typecode).itemsize), count)
    reader.done()
    _check_lengths(
        {name: count for name, (_, count) in columns.items()}, reader.path
    )
    return big_endian != (sys.byteorder == "big"), strings, columns


def _column(typecode: str, data, foreign_order: bool) -> array:
    """Column bytes *data* as an ``array``, in this host's byte order."""
    column = array(typecode)
    column.frombytes(data)
    if foreign_order:
        column.byteswap()
    return column


def _validate_shape(batch: TracerouteBatch, path: PathLike) -> None:
    """Structural invariants guarding against corrupt caches.

    Beyond the column lengths :func:`_directory` checked, this vets
    what analysis will later *index with*: offset tables must be
    monotone and anchored, and every interner id must point inside the
    string table.  A digest-valid but
    wrong cache must surface here (or in a :class:`BinCacheReader`
    chunk, which applies the same checks a chunk at a time) as
    :class:`BinCacheError`, so that the cache is a miss and ``analyze``
    spools a new one through :class:`BinCacheSpool` — never as an
    IndexError or silently wrong attribution mid-analysis.
    """
    def column(name: str) -> np.ndarray:  # a numpy view, no copy
        return np.frombuffer(getattr(batch, name), dtype=np.int64)

    binfmt.check_offsets(
        column("hop_offsets"), len(batch), len(batch.hop_ttl),
        f"hop_offsets in {path}", BinCacheError,
    )
    binfmt.check_offsets(
        column("reply_offsets"), len(batch.hop_ttl), len(batch.reply_ip),
        f"reply_offsets in {path}", BinCacheError,
    )
    _check_ids(batch, path)


def _check_lengths(counts: Dict[str, int], path: PathLike) -> None:
    """Column element counts must agree: one per row, one reply RTT
    per reply, and one more offset than the rows (hops) they split."""
    n = counts["timestamp"]
    for name in _ROW_COLUMNS:
        if counts[name] != n:
            raise BinCacheError(f"column {name!r} length mismatch: {path}")
    if counts["reply_rtt"] != counts["reply_ip"]:
        raise BinCacheError(f"reply column length mismatch: {path}")
    for name, rows in (("hop_offsets", n), ("reply_offsets", counts["hop_ttl"])):
        if counts[name] != rows + 1:
            raise BinCacheError(f"bad offset table: {name} in {path}")


def _check_ids(batch: TracerouteBatch, path: PathLike) -> None:
    """Every interned id of *batch* must index its string table."""
    n_strings = len(batch.interner)
    for name, low in (("reply_ip", -1), ("src_id", 0), ("dst_id", 0)):
        binfmt.check_ids(
            np.frombuffer(getattr(batch, name), dtype=np.int64),
            n_strings, f"{name} in {path}", BinCacheError, low=low,
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
