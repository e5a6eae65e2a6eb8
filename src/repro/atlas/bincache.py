"""Versioned binary on-disk cache for columnar traceroute batches.

Replaying an archived campaign through the pipeline twice should not pay
for JSON parsing twice.  This module persists a
:class:`~repro.atlas.columnar.TracerouteBatch` as one flat binary file —
a magic/version header, a fingerprint of the source JSONL (size +
mtime), the interner's string table, and the raw bytes of every column —
so a warm replay goes disk → ``array.frombytes`` → detection with no
JSON, no object construction and no per-value Python work at all.

The format is deliberately dumb and fully versioned:

* an incompatible layout change bumps :data:`CACHE_VERSION`, and stale
  or foreign files fail loudly with :class:`BinCacheError` (callers such
  as :func:`load_or_build` then just rebuild);
* byte order is recorded in the header and fixed up with
  ``array.byteswap`` on load, so caches move between machines;
* writes go to a temp file renamed into place, so a crashed writer can
  never leave a half-written cache that a later run would trust.

:func:`load_or_build` is the one-call workflow used by the CLI's
``--bin-cache`` flag: return the cached columns when the cache matches
the source file's fingerprint, otherwise decode the JSONL and refresh
the cache.

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

import mmap
import os
import struct
import sys
import warnings
from array import array
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.atlas.columnar import IPInterner, TracerouteBatch, decode_traceroutes
from repro.obs.metrics import default_registry
from repro.atlas.io import PathLike

#: File identification: magic bytes plus an explicit format version.
MAGIC = b"RPROBINC"
CACHE_VERSION = 1

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

#: Header after the magic: version, big-endian flag, string count,
#: string-blob byte length.  Header integers are always little-endian;
#: only the column payloads use the recorded byte order.
_HEADER = struct.Struct("<IBQQ")

#: Source fingerprint: size in bytes and mtime in nanoseconds.
_FINGERPRINT = struct.Struct("<QQ")

#: Per-column prefix: typecode byte + payload byte length.
_COLUMN_PREFIX = struct.Struct("<cQ")

Fingerprint = Tuple[int, int]


class BinCacheError(RuntimeError):
    """A cache file is missing, foreign, truncated, stale or corrupt."""


def fingerprint_of(path: PathLike) -> Fingerprint:
    """The (size, mtime_ns) fingerprint used to detect stale caches."""
    status = os.stat(path)
    return status.st_size, status.st_mtime_ns


def default_cache_path(source: PathLike) -> Path:
    """Where :func:`load_or_build` keeps the cache for *source*."""
    source = Path(source)
    return source.with_name(source.name + DEFAULT_SUFFIX)


def write_bincache(
    path: PathLike,
    batch: TracerouteBatch,
    fingerprint: Optional[Fingerprint] = None,
) -> int:
    """Persist *batch* to *path*; returns the bytes written.

    *fingerprint* ties the cache to its source JSONL ((0, 0) = unbound,
    always accepted).  The file is written to a sibling temp path and
    renamed into place so readers never observe a partial cache.
    """
    size, mtime_ns = fingerprint if fingerprint is not None else (0, 0)
    encoded = [value.encode("utf-8") for value in batch.interner.strings]
    blob = b"".join(
        struct.pack("<I", len(value)) + value for value in encoded
    )
    target = Path(path)
    temp = target.with_name(target.name + f".tmp{os.getpid()}")
    try:
        # Stream straight to disk — column payloads go out via
        # array.tofile, so peak memory stays at the batch itself rather
        # than batch + a full serialized copy (campaign batches are the
        # multi-GB case this cache exists for).
        with open(temp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(
                _HEADER.pack(
                    CACHE_VERSION,
                    1 if sys.byteorder == "big" else 0,
                    len(encoded),
                    len(blob),
                )
            )
            handle.write(_FINGERPRINT.pack(size, mtime_ns))
            handle.write(blob)
            for name, typecode in _COLUMNS:
                column = getattr(batch, name)
                handle.write(
                    _COLUMN_PREFIX.pack(
                        typecode.encode(),
                        len(column) * column.itemsize,
                    )
                )
                if isinstance(column, array):
                    column.tofile(handle)
                else:  # a mapped batch's memoryview column
                    handle.write(column)
            written = handle.tell()
        os.replace(temp, target)
    finally:
        if temp.exists():  # pragma: no cover - only on a failed replace
            temp.unlink()
    return written


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
    # The file is memory-mapped, not read into a bytes object: columns
    # are copied directly from the page cache into their arrays (or, in
    # mapped mode, stay views into it), so peak memory is at most the
    # batch itself, not batch + file image.
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise BinCacheError(f"cannot read bin cache {path}: {exc}") from exc
    with handle:
        try:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:  # e.g. an empty file
            raise BinCacheError(
                f"cannot map bin cache {path}: {exc}"
            ) from exc
        # A parse failure is captured as a message (not re-raised in
        # place): a propagating exception would pin the parser's frame
        # — and its memoryview slices of the mapping — in its traceback,
        # and mmap.close() refuses to close under exported buffers.
        error = None
        keep = False
        try:
            view = memoryview(mapping)
            try:
                batch = _parse_cache(view, path, fingerprint, mapped=mapped)
                # Mapped columns alias the mapping: leave it open, the
                # column views keep it alive for the batch's lifetime.
                keep = mapped
                return batch
            finally:
                if not keep:
                    view.release()
        except BinCacheError as exc:
            error = str(exc)
        finally:
            if not keep:
                try:
                    mapping.close()
                except BufferError:  # pragma: no cover - leaked slice guard
                    pass
    raise BinCacheError(error)


def _parse_cache(
    view: memoryview,
    path: PathLike,
    fingerprint: Optional[Fingerprint],
    mapped: bool = False,
) -> TracerouteBatch:
    """Parse a mapped cache image (see :func:`read_bincache`)."""
    offset = 0

    def take(count: int) -> memoryview:
        nonlocal offset
        if offset + count > len(view):
            raise BinCacheError(f"truncated bin cache: {path}")
        chunk = view[offset : offset + count]
        offset += count
        return chunk

    if bytes(take(len(MAGIC))) != MAGIC:
        raise BinCacheError(f"not a bin cache (bad magic): {path}")
    version, big_endian, n_strings, blob_length = _HEADER.unpack(
        take(_HEADER.size)
    )
    if version != CACHE_VERSION:
        raise BinCacheError(
            f"bin cache version {version} != {CACHE_VERSION}: {path}"
        )
    size, mtime_ns = _FINGERPRINT.unpack(take(_FINGERPRINT.size))
    if fingerprint is not None and (size, mtime_ns) not in ((0, 0), tuple(fingerprint)):
        raise BinCacheError(
            f"stale bin cache (source changed since it was built): {path}"
        )
    blob = take(blob_length)
    strings = []
    blob_offset = 0
    for _ in range(n_strings):
        if blob_offset + 4 > len(blob):
            raise BinCacheError(f"truncated string table: {path}")
        (length,) = struct.unpack_from("<I", blob, blob_offset)
        blob_offset += 4
        strings.append(bytes(blob[blob_offset : blob_offset + length]).decode("utf-8"))
        blob_offset += length

    batch = TracerouteBatch(IPInterner(strings))
    foreign_order = big_endian != (1 if sys.byteorder == "big" else 0)
    for name, typecode in _COLUMNS:
        raw_code, payload_length = _COLUMN_PREFIX.unpack(
            bytes(take(_COLUMN_PREFIX.size))
        )
        if raw_code.decode() != typecode:
            raise BinCacheError(
                f"column {name!r} has typecode {raw_code!r}, "
                f"expected {typecode!r}: {path}"
            )
        column = array(typecode)
        if payload_length % column.itemsize:
            raise BinCacheError(f"ragged column {name!r}: {path}")
        payload = take(payload_length)
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
    if offset != len(view):
        raise BinCacheError(f"trailing bytes after last column: {path}")
    _validate_shape(batch, path)
    return batch


def _validate_shape(batch: TracerouteBatch, path: PathLike) -> None:
    """Structural invariants guarding against corrupt caches.

    Beyond column lengths, this vets what analysis will later *index
    with*: offset tables must be monotone and anchored, and every
    interner id must point inside the string table.  A corrupt cache
    must always surface here as :class:`BinCacheError` (so
    :func:`load_or_build` rebuilds it) — never as an IndexError or
    silently wrong attribution mid-analysis.
    """
    n = len(batch.timestamp)
    for name in ("prb_id", "src_id", "dst_id", "from_asn", "msm_id",
                 "paris_id", "af"):
        if len(getattr(batch, name)) != n:
            raise BinCacheError(f"column {name!r} length mismatch: {path}")
    if len(batch.hop_offsets) != n + 1 or batch.hop_offsets[0] != 0:
        raise BinCacheError(f"bad hop offset table: {path}")
    if batch.hop_offsets[-1] != len(batch.hop_ttl):
        raise BinCacheError(f"bad hop offset table: {path}")
    n_hops = len(batch.hop_ttl)
    if len(batch.reply_offsets) != n_hops + 1 or batch.reply_offsets[0] != 0:
        raise BinCacheError(f"bad reply offset table: {path}")
    if batch.reply_offsets[-1] != len(batch.reply_ip):
        raise BinCacheError(f"bad reply offset table: {path}")
    if len(batch.reply_rtt) != len(batch.reply_ip):
        raise BinCacheError(f"reply column length mismatch: {path}")
    # Vectorized value checks (numpy views, no copies): offsets must
    # never step backwards, and ids must index the string table.
    n_strings = len(batch.interner)
    for name in ("hop_offsets", "reply_offsets"):
        offsets = np.frombuffer(getattr(batch, name), dtype=np.int64)
        if offsets.size > 1 and np.any(np.diff(offsets) < 0):
            raise BinCacheError(f"non-monotone {name}: {path}")
    reply_ip = np.frombuffer(batch.reply_ip, dtype=np.int64)
    if reply_ip.size and (
        int(reply_ip.min()) < -1 or int(reply_ip.max()) >= n_strings
    ):
        raise BinCacheError(f"reply ip id out of range: {path}")
    for name in ("src_id", "dst_id"):
        ids = np.frombuffer(getattr(batch, name), dtype=np.int64)
        if ids.size and (
            int(ids.min()) < 0 or int(ids.max()) >= n_strings
        ):
            raise BinCacheError(f"{name} out of range: {path}")


def load_or_build(
    source_path: PathLike,
    cache_path: Optional[PathLike] = None,
    strict: bool = True,
    mapped: bool = False,
) -> Tuple[TracerouteBatch, bool]:
    """Return ``(batch, cache_hit)`` for a JSONL campaign file.

    When *cache_path* (default: the source path plus
    :data:`DEFAULT_SUFFIX`) holds a valid cache matching the source's
    current fingerprint, the columns come straight from it; otherwise
    the JSONL is decoded (honouring *strict* exactly like
    :func:`~repro.atlas.columnar.decode_traceroutes`) and the cache is
    (re)written for the next replay.  A cache that cannot be written
    (read-only directory, full disk) is only a :class:`RuntimeWarning`:
    the decoded batch is returned all the same.

    *mapped* applies to cache hits: the columns stay zero-copy views
    into the cache file's mapping (see :func:`read_bincache`).  A
    rebuild returns the freshly decoded in-memory batch either way —
    re-reading what was just decoded would only add I/O.
    """
    source = Path(source_path)
    cache = Path(cache_path) if cache_path is not None else default_cache_path(source)
    current = fingerprint_of(source)
    loads = default_registry().counter(
        "repro_bincache_loads_total",
        "Bin-cache loads by outcome (hit = served from cache).",
        ("result",),
    )
    if cache.exists():
        try:
            batch = read_bincache(cache, fingerprint=current, mapped=mapped)
            loads.labels("hit").inc()
            return batch, True
        except BinCacheError:
            pass  # stale or corrupt: fall through and rebuild
    batch = decode_traceroutes(source, strict=strict)
    try:
        write_bincache(cache, batch, fingerprint=current)
    except OSError as exc:
        # The cache is an optimisation and the decode already succeeded:
        # an unwritable cache path costs the next replay, not this one.
        warnings.warn(
            f"bin cache not written: {cache}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
    loads.labels("rebuilt").inc()
    return batch, False
