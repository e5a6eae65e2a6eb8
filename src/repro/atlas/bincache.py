"""Versioned binary on-disk cache for columnar traceroute batches.

Replaying an archived campaign through the pipeline twice should not pay
for JSON parsing twice.  This module persists a
:class:`~repro.atlas.columnar.TracerouteBatch` as one
:mod:`repro.binfmt` file — a fingerprint of the source JSONL (size +
mtime), the interner's string table, and the raw bytes of every column —
so a warm replay goes disk → ``array.frombytes`` → detection with no
JSON, no object construction and no per-value Python work at all.

The frame carries magic, version and a payload digest, so a stale,
foreign or corrupt cache fails loudly with :class:`BinCacheError` and
:func:`load_or_build` rebuilds it.  Column payloads keep the writer's
byte order (recorded in the payload, fixed up with ``array.byteswap``
on load), so caches move between machines.

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

import os
import struct
import sys
import warnings
from array import array
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro import binfmt
from repro.atlas.columnar import IPInterner, TracerouteBatch, decode_traceroutes
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
    """Where :func:`load_or_build` keeps the cache for *source*."""
    source = Path(source)
    return source.with_name(source.name + DEFAULT_SUFFIX)


def write_bincache(
    path: PathLike,
    batch: TracerouteBatch,
    fingerprint: Optional[Fingerprint] = None,
) -> int:
    """Persist *batch* to *path* durably; returns the bytes written.

    *fingerprint* ties the cache to its source JSONL ((0, 0) = unbound,
    always accepted).  Columns stream straight to disk, so peak memory
    stays at the batch itself rather than batch + a serialised copy
    (campaign batches are the multi-GB case this cache exists for).
    """
    size, mtime_ns = fingerprint if fingerprint is not None else (0, 0)

    def chunks():
        yield _PREFIX.pack(sys.byteorder == "big", size, mtime_ns)
        yield binfmt.string_table(batch.interner.strings)
        for name, _ in _COLUMNS:
            column = getattr(batch, name)
            yield binfmt.U64.pack(len(column))
            yield column

    return binfmt.atomic_write(path, BINCACHE, chunks()).size


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
    :func:`load_or_build` rebuilds it) — never as an IndexError or
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
