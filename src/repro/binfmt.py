"""One durable container for every file the system persists.

Five formats outlive a process: the bin cache
(:mod:`repro.atlas.bincache`), the detector checkpoint
(:mod:`repro.core.checkpoint`), the fetch cursor
(:mod:`repro.atlas.connectors.cursors`), the alarm store's manifest and
segments (:mod:`repro.service.store`) and the probe-metadata cache
(:mod:`repro.atlas.connectors.probes`).  Each owns a magic, a version
and a payload layout (a :class:`Format`); they share one frame::

    magic (8 bytes) | version u32 | payload length u64 |
    BLAKE2b-128 of the payload (16 bytes) | payload

with every header integer little-endian.  This module owns the rest:

* :func:`atomic_write` streams payload chunks to a sibling temp file
  while hashing them (no serialised copy of the payload is held), fsyncs
  it, renames it over the target and fsyncs the directory.  When it
  returns the new file survives a crash; until it returns the old one
  does; a failed write leaves no temp file behind;
* :func:`unframe`, :func:`read_frame` and :func:`map_frame` vet a frame
  — length, magic, version, digest — and hand back the payload,
  :func:`map_frame` straight from the page cache so columns can stay
  zero-copy views; :func:`verify_file` vets an open file through one
  bounded buffer, for a reader that then takes the payload piecewise;
* :class:`Reader` walks a payload with bounds checks, and
  :func:`check_offsets` / :func:`check_ids` are the structural vetting
  (CSR offsets monotone and anchored, interned ids in range) that a
  digest-valid but wrong payload must still pass.

Every failure raises the format's :class:`FormatError` subclass, so a
caller catches one type and takes its fallback.  Only the standard
library and NumPy are imported: any command that persists a file can
afford this module without loading another format's code.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    List,
    NamedTuple,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

import numpy as np

PathLike = Union[str, "os.PathLike[str]"]

#: Frame header after the magic: version, payload length, payload digest.
HEADER = struct.Struct("<IQ16s")
MAGIC_SIZE = 8
FRAME_SIZE = MAGIC_SIZE + HEADER.size
DIGEST_SIZE = 16

U32 = struct.Struct("<I")
U64 = struct.Struct("<Q")

T = TypeVar("T")


class FormatError(RuntimeError):
    """A framed file is missing, foreign, truncated, stale or corrupt."""


@dataclass(frozen=True)
class Format:
    """One on-disk format: magic, version, a name for messages, its error."""

    magic: bytes
    version: int
    name: str
    error: Type[FormatError] = FormatError

    def fail(self, problem: str, path) -> FormatError:
        """The typed error for *problem* in the file at *path*."""
        return self.error(f"{problem}: {path}")


def digest(data) -> bytes:
    """BLAKE2b-128 of *data* (any contiguous buffer)."""
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


class Written(NamedTuple):
    """What :func:`atomic_write` put on disk."""

    size: int  # file bytes, frame included
    digest: bytes  # the payload digest recorded in the frame


def atomic_write(path: PathLike, fmt: Format, chunks: Iterable) -> Written:
    """Frame *chunks* (bytes-like, in order) as one durable *fmt* file.

    The header's length and digest are only known at the end, so the
    payload is streamed behind a reserved header slot that is filled in
    last.  Order: write → fsync the temp file → rename over *path* →
    fsync the directory, so a crash leaves either the old file or the
    complete new one.  On any failure the temp file is removed and the
    error propagates with the old file untouched.
    """
    target = Path(path)
    temp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    hasher = hashlib.blake2b(digest_size=DIGEST_SIZE)
    length = 0
    try:
        with open(temp, "wb") as handle:
            handle.seek(FRAME_SIZE)
            for chunk in chunks:
                hasher.update(chunk)
                handle.write(chunk)
                length += memoryview(chunk).nbytes
            handle.seek(0)
            handle.write(
                fmt.magic + HEADER.pack(fmt.version, length, hasher.digest())
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    _fsync_directory(target.parent)
    return Written(FRAME_SIZE + length, hasher.digest())


def _fsync_directory(directory: Path) -> None:
    """Make renames and unlinks in *directory* durable (POSIX only)."""
    if os.name != "posix":  # pragma: no cover - directories cannot be opened
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _vet_header(head, size: int, fmt: Format, path) -> Tuple[int, bytes]:
    """(payload length, payload digest) of a frame whose first bytes are
    *head*, in a file of *size* bytes."""
    if size < FRAME_SIZE:
        raise fmt.fail(f"truncated {fmt.name}", path)
    if bytes(head[:MAGIC_SIZE]) != fmt.magic:
        raise fmt.fail(f"not a {fmt.name} (bad magic)", path)
    version, length, expected = HEADER.unpack(head[MAGIC_SIZE:FRAME_SIZE])
    if version != fmt.version:
        raise fmt.fail(
            f"{fmt.name} version {version} != {fmt.version}", path
        )
    if size < FRAME_SIZE + length:
        raise fmt.fail(f"truncated {fmt.name}", path)
    if size > FRAME_SIZE + length:
        raise fmt.fail(f"trailing bytes after {fmt.name} payload", path)
    return length, expected


def unframe(blob, fmt: Format, path) -> memoryview:
    """Vet the frame of *blob* (bytes or mmap); return its payload view.

    The payload is a zero-copy :class:`memoryview` into *blob*, digest
    verified end to end.
    """
    view = memoryview(blob)
    _, expected = _vet_header(view, len(view), fmt, path)
    payload = view[FRAME_SIZE:]
    if digest(payload) != expected:
        raise fmt.fail(f"{fmt.name} digest mismatch (corrupt)", path)
    return payload


#: Bytes :func:`verify_file` hashes per read.
_HASH_BUFFER = 1 << 20


def verify_file(handle, fmt: Format, path) -> int:
    """Vet the frame of the open binary file *handle*; return the
    payload length.

    The :func:`unframe` checks without holding or mapping the file: the
    payload is hashed through one reused buffer of :data:`_HASH_BUFFER`
    bytes, so memory stays bounded however large the file is and no
    page of it stays resident.  Leaves *handle* at end of file.
    """
    handle.seek(0)
    length, expected = _vet_header(
        handle.read(FRAME_SIZE), os.fstat(handle.fileno()).st_size, fmt, path
    )
    hasher = hashlib.blake2b(digest_size=DIGEST_SIZE)
    buffer = memoryview(bytearray(max(1, min(_HASH_BUFFER, length))))
    remaining = length
    while remaining:
        got = handle.readinto(buffer[: min(remaining, len(buffer))])
        if not got:
            raise fmt.fail(f"truncated {fmt.name}", path)
        hasher.update(buffer[:got])
        remaining -= got
    if hasher.digest() != expected:
        raise fmt.fail(f"{fmt.name} digest mismatch (corrupt)", path)
    return length


def read_bytes(path: PathLike, fmt: Format) -> bytes:
    """The raw bytes of *path*; an unreadable file is *fmt*'s error."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise fmt.error(f"cannot read {fmt.name} {path}: {exc}") from exc


def read_frame(path: PathLike, fmt: Format) -> memoryview:
    """Read and vet a small *fmt* file; return its payload view."""
    return unframe(read_bytes(path, fmt), fmt, path)


def map_frame(
    path: PathLike,
    fmt: Format,
    parse: Callable[["Reader"], T],
    keep: bool = False,
) -> T:
    """Map *path*, vet its frame, and return ``parse(Reader(payload))``.

    Nothing is read into a bytes object: *parse* sees the page cache.
    With *keep* the mapping stays open for as long as the views *parse*
    returned reference it; otherwise it is closed before returning, so
    *parse* must copy whatever it keeps.
    """
    try:
        with open(path, "rb") as handle:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:  # ValueError: an empty file
        raise fmt.error(f"cannot read {fmt.name} {path}: {exc}") from exc
    # A failure is re-raised as a fresh error once the mapping is closed:
    # a propagating exception would pin the parser's frames — and their
    # slices of the mapping — in its traceback, and mmap.close() refuses
    # to close under exported buffers.  For the same reason no view of
    # the mapping is bound to a local here.
    failure = None
    try:
        result = parse(
            Reader(
                unframe(mapping, fmt, path), fmt, path,
                mapping[FRAME_SIZE - DIGEST_SIZE : FRAME_SIZE],
            )
        )
    except FormatError as exc:
        failure = type(exc), str(exc)
    if failure is None and keep:
        return result
    try:
        mapping.close()
    except BufferError:  # pragma: no cover - a parser leaked a slice
        pass
    if failure is not None:
        raise failure[0](failure[1])
    return result


class Reader:
    """Bounds-checked cursor over one payload.

    *view* is a :class:`memoryview`, or anything with a length whose
    slices are bytes-like (a payload read from an open file on demand).
    ``digest`` is the payload digest the frame recorded (already
    verified), for formats that pin a file to an index entry.
    """

    __slots__ = ("view", "offset", "fmt", "path", "digest")

    def __init__(
        self, view: memoryview, fmt: Format, path, digest: bytes = b""
    ) -> None:
        self.view = view
        self.offset = 0
        self.fmt = fmt
        self.path = path
        self.digest = digest

    def skip(self, count: int) -> int:
        """Pass over the next *count* bytes unread; return where they
        start."""
        start, end = self.offset, self.offset + count
        if count < 0 or end > len(self.view):
            raise self.fmt.fail(
                f"truncated {self.fmt.name} payload", self.path
            )
        self.offset = end
        return start

    def take(self, count: int) -> memoryview:
        """The next *count* bytes, as a view."""
        start = self.skip(count)
        return self.view[start : self.offset]

    def unpack(self, layout: struct.Struct) -> tuple:
        """The next fixed-size record, decoded with *layout*."""
        return layout.unpack(self.take(layout.size))

    def u32(self) -> int:
        """The next little-endian u32."""
        return U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        """The next little-endian u64."""
        return U64.unpack(self.take(8))[0]

    def strings(self) -> List[str]:
        """A :func:`string_table`: u32 count, then u32-length UTF-8 strings."""
        count = self.u32()
        try:
            return [str(self.take(self.u32()), "utf-8") for _ in range(count)]
        except UnicodeDecodeError as exc:
            raise self.fmt.fail(
                f"corrupt {self.fmt.name} string table", self.path
            ) from exc

    def column(self, dtype, count: int) -> np.ndarray:
        """The next *count* values of *dtype*, a zero-copy array view."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(count * dtype.itemsize), dtype=dtype)

    def done(self) -> None:
        """Refuse bytes left over after the last field."""
        if self.offset != len(self.view):
            raise self.fmt.fail(
                f"trailing bytes in {self.fmt.name} payload", self.path
            )


def string_table(strings: Sequence[str]) -> bytes:
    """Encode *strings* the way :meth:`Reader.strings` decodes them."""
    parts = [U32.pack(len(strings))]
    for value in strings:
        encoded = value.encode("utf-8")
        parts += (U32.pack(len(encoded)), encoded)
    return b"".join(parts)


def check_offsets(
    offsets: np.ndarray, rows: int, total: int, what: str,
    error: Type[Exception],
) -> None:
    """A CSR offset table: ``rows + 1`` entries from 0 to *total*, never
    stepping back."""
    if (
        offsets.size != rows + 1
        or offsets[0] != 0
        or offsets[-1] != total
        or (offsets.size > 1 and bool(np.any(np.diff(offsets) < 0)))
    ):
        raise error(f"bad offset table: {what}")


def check_ids(
    ids: np.ndarray, count: int, what: str, error: Type[Exception],
    low: int = 0,
) -> None:
    """Interned ids must index a table of *count* entries (*low* allows
    a sentinel below 0)."""
    if ids.size and (int(ids.min()) < low or int(ids.max()) >= count):
        raise error(f"id out of range: {what}")
