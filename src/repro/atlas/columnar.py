"""Columnar zero-object ingestion for traceroute campaigns.

The object model (:class:`~repro.atlas.model.Traceroute` →
:class:`~repro.atlas.model.Hop` → :class:`~repro.atlas.model.Reply`) is
the right shape for composing and inspecting individual results, but it
is the wrong shape for replaying archived campaigns: building millions
of small frozen dataclasses costs more than the detection maths that
follows.  This module holds the same information as flat parallel
arrays:

* per-traceroute scalars (``timestamp``, ``prb_id``, interned
  ``src``/``dst`` address ids, ``from_asn``, ``msm_id``, ``paris_id``,
  ``af``) in ``array('q')`` buffers,
* per-hop TTLs plus an offset table mapping each traceroute to its hop
  range,
* per-reply responder-IP ids and RTTs plus an offset table mapping each
  hop to its reply range.

Responder/endpoint addresses are interned once into an
:class:`IPInterner` — a campaign touches a few thousand distinct IPs but
hundreds of millions of replies, so replies carry small integers and the
string is materialised only where a detector needs a key.

:func:`decode_lines` appends Atlas-format JSONL lines to a
:class:`TracerouteBatch` without ever constructing ``Reply``/``Hop``
objects — :func:`decode_traceroutes` loops it over a file, the live
monitor (:class:`repro.atlas.stream.ColumnarStream`) over tailed
chunks; :func:`bin_views` groups a batch into aligned time bins as
lightweight :class:`BatchView` index windows.  The engine's
extraction kernel consumes those views directly
(:func:`repro.core.fused.extract_bin_fused`), and
:mod:`repro.atlas.bincache` persists
whole batches so repeated replays skip JSON parsing entirely.

Fidelity notes (the only places columns are narrower than objects):
``from_asn``/``msm_id`` must be non-negative integers or absent (the
object model tolerates arbitrary JSON values there, and -1 is the
"absent" sentinel here), addresses must be strings, and an RTT of NaN
is indistinguishable from a missing RTT.  Atlas data and the simulator
satisfy all three; violations surface as decode errors, not silent
corruption.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path

try:  # optional accelerator: parses bytes directly, ~3x faster than json
    import orjson as _orjson
except ImportError:  # pragma: no cover - depends on the environment
    _orjson = None
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.metrics import default_registry

from repro.atlas.io import (
    PathLike,
    TracerouteDecodeError,
    _open_binary,
    _open_text,
    _warn_skipped,
)
from repro.atlas.model import Hop, Reply, Traceroute

#: Sentinel id for a lost packet (``*``) in :attr:`TracerouteBatch.reply_ip`.
NO_IP = -1

#: Sentinel for absent optional integers (``from_asn``, ``msm_id``).
NO_INT = -1

_NAN = float("nan")

#: The per-traceroute ``array('q')`` columns of a :class:`TracerouteBatch`.
_SCALAR_COLUMNS = (
    "timestamp",
    "prb_id",
    "src_id",
    "dst_id",
    "from_asn",
    "msm_id",
    "paris_id",
    "af",
)


def gather_ragged(
    offsets: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR gather: (new offsets, flat source indices) for *rows*."""
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    new_offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=new_offsets[1:])
    total = int(new_offsets[-1])
    if total == 0:
        return new_offsets, np.empty(0, dtype=np.int64)
    flat = np.repeat(starts - new_offsets[:-1], counts) + np.arange(
        total, dtype=np.int64
    )
    return new_offsets, flat


def _to_array(typecode: str, values: np.ndarray) -> array:
    """An appendable ``array`` column holding *values*."""
    column = array(typecode)
    column.frombytes(values.tobytes())
    return column


class IPInterner:
    """Bidirectional string ↔ small-integer table for IP addresses.

    Ids are assigned densely in first-seen order, so they double as
    indices into :attr:`strings`, and the table is append-only: an id
    never changes meaning, so consumers may cache by id for as long as
    they hold the interner (the engine's fused path does).  Interning
    the same address twice returns the same id *and* the same ``str``
    object, which keeps downstream dict keying cheap (hash caching +
    identity fast path).
    """

    __slots__ = ("_ids", "strings")

    def __init__(self, strings: Optional[Iterable[str]] = None) -> None:
        #: id → string, in assignment order.  Treat as read-only.
        self.strings: List[str] = []
        self._ids: Dict[str, int] = {}
        if strings is not None:
            for value in strings:
                self.intern(value)

    def intern(self, ip: str) -> int:
        """Return the id for *ip*, assigning the next free id if new.

        Only strings are accepted — the table round-trips through the
        binary bin cache, which stores UTF-8.  The check runs on table
        misses only, so it costs nothing on the hot (repeat) path.
        """
        ident = self._ids.get(ip)
        if ident is None:
            if type(ip) is not str:
                raise TypeError(
                    f"interned addresses must be str, got {type(ip).__name__}"
                )
            ident = self._ids[ip] = len(self.strings)
            self.strings.append(ip)
        return ident

    def lookup(self, ident: int) -> str:
        """The string owning id *ident* (inverse of :meth:`intern`)."""
        return self.strings[ident]

    def __len__(self) -> int:
        return len(self.strings)

    def __contains__(self, ip: str) -> bool:
        return ip in self._ids


class TracerouteBatch:
    """A campaign (or slice of one) as flat parallel arrays.

    Traceroute *i* owns hops ``hop_offsets[i]:hop_offsets[i+1]``; hop
    *h* owns replies ``reply_offsets[h]:reply_offsets[h+1]``.  Reply ips
    are :class:`IPInterner` ids (:data:`NO_IP` for lost packets), reply
    RTTs are float64 milliseconds (NaN for missing).  ``from_asn`` and
    ``msm_id`` use :data:`NO_INT` for "absent".

    Batches append-only grow via :meth:`append`; analysis never mutates
    them, so one batch can back any number of :class:`BatchView`
    windows simultaneously.

    Columns are ``array`` buffers when built in memory, but a batch
    loaded with ``mapped=True`` from :mod:`repro.atlas.bincache`
    carries zero-copy ``memoryview`` casts into the cache file's mmap
    instead.  Both index and slice identically (plain ``int``/``float``
    elements out), and every consumer in the tree — :func:`bin_views`,
    the engine's extractions, :meth:`traceroute_at` — reads columns
    only that way.  Mapped batches are read-only: :meth:`append`
    requires ``array`` columns.
    """

    __slots__ = (
        "interner",
        "timestamp",
        "prb_id",
        "src_id",
        "dst_id",
        "from_asn",
        "msm_id",
        "paris_id",
        "af",
        "hop_offsets",
        "hop_ttl",
        "reply_offsets",
        "reply_ip",
        "reply_rtt",
    )

    def __init__(self, interner: Optional[IPInterner] = None) -> None:
        self.interner = interner if interner is not None else IPInterner()
        self.timestamp = array("q")
        self.prb_id = array("q")
        self.src_id = array("q")
        self.dst_id = array("q")
        self.from_asn = array("q")
        self.msm_id = array("q")
        self.paris_id = array("q")
        self.af = array("q")
        self.hop_offsets = array("q", (0,))
        self.hop_ttl = array("q")
        self.reply_offsets = array("q", (0,))
        self.reply_ip = array("q")
        self.reply_rtt = array("d")

    def __len__(self) -> int:
        return len(self.timestamp)

    def __repr__(self) -> str:
        return (
            f"TracerouteBatch(n_traceroutes={len(self)}, "
            f"n_hops={self.n_hops}, n_replies={self.n_replies}, "
            f"n_ips={len(self.interner)})"
        )

    @property
    def n_hops(self) -> int:
        """Total hops across every traceroute in the batch."""
        return len(self.hop_ttl)

    @property
    def n_replies(self) -> int:
        """Total reply slots (including lost packets) in the batch."""
        return len(self.reply_ip)

    # -- construction ------------------------------------------------------

    def append(self, traceroute: Traceroute) -> None:
        """Append one object-model traceroute to the columns.

        ``from_asn``/``msm_id`` must be non-negative (or ``None``):
        :data:`NO_INT` marks absence, so a negative value would silently
        columnarise to "absent" — rejected loudly instead, per the
        module's no-silent-corruption rule.
        """
        asn = traceroute.from_asn
        msm = traceroute.msm_id
        if (asn is not None and asn < 0) or (msm is not None and msm < 0):
            raise ValueError(
                f"from_asn/msm_id must be non-negative or None: "
                f"{asn!r}/{msm!r}"
            )
        intern = self.interner.intern
        ip_append = self.reply_ip.append
        rtt_append = self.reply_rtt.append
        for hop in traceroute.hops:
            self.hop_ttl.append(hop.ttl)
            for reply in hop.replies:
                ip = reply.ip
                ip_append(NO_IP if ip is None else intern(ip))
                rtt = reply.rtt_ms
                rtt_append(_NAN if rtt is None else rtt)
            self.reply_offsets.append(len(self.reply_ip))
        self.hop_offsets.append(len(self.hop_ttl))
        self.timestamp.append(traceroute.timestamp)
        self.prb_id.append(traceroute.prb_id)
        self.src_id.append(intern(traceroute.src_addr))
        self.dst_id.append(intern(traceroute.dst_addr))
        self.from_asn.append(NO_INT if asn is None else asn)
        self.msm_id.append(NO_INT if msm is None else msm)
        self.paris_id.append(traceroute.paris_id)
        self.af.append(traceroute.af)

    @classmethod
    def from_traceroutes(
        cls,
        traceroutes: Iterable[Traceroute],
        interner: Optional[IPInterner] = None,
    ) -> "TracerouteBatch":
        """Columnarise an iterable of object-model traceroutes."""
        batch = cls(interner)
        for traceroute in traceroutes:
            batch.append(traceroute)
        return batch

    def take(self, rows: Sequence[int]) -> "TracerouteBatch":
        """A new batch of only *rows* (in that order), on the same interner.

        How the live monitor releases closed bins: the rows still open
        are copied into a fresh appendable batch and the old columns
        are dropped, so resident columns follow the open window rather
        than the feed length.  Interned ids stay valid because the
        interner is shared, not copied.
        """
        rows = np.asarray(rows, dtype=np.int64)
        out = TracerouteBatch(self.interner)
        for name in _SCALAR_COLUMNS:
            column = np.asarray(getattr(self, name))[rows]
            setattr(out, name, _to_array("q", column))
        hop_offsets, hops = gather_ragged(np.asarray(self.hop_offsets), rows)
        reply_offsets, replies = gather_ragged(
            np.asarray(self.reply_offsets), hops
        )
        out.hop_offsets = _to_array("q", hop_offsets)
        out.hop_ttl = _to_array("q", np.asarray(self.hop_ttl)[hops])
        out.reply_offsets = _to_array("q", reply_offsets)
        out.reply_ip = _to_array("q", np.asarray(self.reply_ip)[replies])
        out.reply_rtt = _to_array("d", np.asarray(self.reply_rtt)[replies])
        return out

    # -- materialisation ---------------------------------------------------

    def traceroute_at(self, index: int) -> Traceroute:
        """Materialise traceroute *index* back into the object model."""
        strings = self.interner.strings
        hop_start = self.hop_offsets[index]
        hop_stop = self.hop_offsets[index + 1]
        reply_offsets = self.reply_offsets
        reply_ip = self.reply_ip
        reply_rtt = self.reply_rtt
        hops = []
        for hop_index in range(hop_start, hop_stop):
            replies = []
            for reply_index in range(
                reply_offsets[hop_index], reply_offsets[hop_index + 1]
            ):
                ident = reply_ip[reply_index]
                rtt = reply_rtt[reply_index]
                replies.append(
                    Reply(
                        ip=None if ident < 0 else strings[ident],
                        rtt_ms=None if rtt != rtt else rtt,
                    )
                )
            hops.append(
                Hop(ttl=self.hop_ttl[hop_index], replies=tuple(replies))
            )
        asn = self.from_asn[index]
        msm = self.msm_id[index]
        return Traceroute(
            prb_id=self.prb_id[index],
            src_addr=strings[self.src_id[index]],
            dst_addr=strings[self.dst_id[index]],
            timestamp=self.timestamp[index],
            hops=tuple(hops),
            from_asn=None if asn == NO_INT else asn,
            msm_id=None if msm == NO_INT else msm,
            paris_id=self.paris_id[index],
            af=self.af[index],
        )

    def to_traceroutes(self) -> List[Traceroute]:
        """Materialise the whole batch (the object-path fallback)."""
        return [self.traceroute_at(index) for index in range(len(self))]

    def view(self, indices: Optional[Sequence[int]] = None) -> "BatchView":
        """A :class:`BatchView` over *indices* (default: every row)."""
        if indices is None:
            indices = range(len(self))
        return BatchView(self, indices)


class BatchView:
    """An index window into a :class:`TracerouteBatch` (e.g. one bin).

    Carries no copied data — just the backing batch and the row indices
    that belong to the window, in stream order.  Iterating materialises
    objects one at a time (convenience only); the engine's columnar
    extraction reads the arrays directly and never iterates.
    """

    __slots__ = ("batch", "indices")

    def __init__(
        self, batch: TracerouteBatch, indices: Sequence[int]
    ) -> None:
        self.batch = batch
        self.indices = indices

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[Traceroute]:
        at = self.batch.traceroute_at
        return (at(index) for index in self.indices)

    def __repr__(self) -> str:
        return f"BatchView(n={len(self.indices)})"

    def to_traceroutes(self) -> List[Traceroute]:
        """Materialise the window's rows into object-model traceroutes."""
        at = self.batch.traceroute_at
        return [at(index) for index in self.indices]


#: Inputs accepted by the columnar fast paths.
ColumnarSource = Union[TracerouteBatch, BatchView]


def bin_views(
    source: ColumnarSource, bin_s: int, dense: bool = True
) -> Iterator[Tuple[int, BatchView]]:
    """Group a batch (or view) into aligned time bins of row windows.

    The columnar twin of :meth:`repro.atlas.stream.TimeBinner.bins`:
    bins come out sorted by start time, rows keep their stream order
    inside each bin, and with ``dense=True`` empty bins between
    populated ones are yielded as empty views so downstream references
    keep a uniform clock.
    """
    if bin_s <= 0:
        raise ValueError(f"bin size must be positive: {bin_s}")
    if isinstance(source, BatchView):
        batch, indices = source.batch, source.indices
    else:
        batch, indices = source, range(len(source))
    timestamps = batch.timestamp
    grouped: Dict[int, List[int]] = {}
    for index in indices:
        start = timestamps[index] // bin_s * bin_s
        bucket = grouped.get(start)
        if bucket is None:
            bucket = grouped[start] = []
        bucket.append(index)
    if not grouped:
        return
    starts = sorted(grouped)
    if dense:
        current = starts[0]
        last = starts[-1]
        empty: List[int] = []
        while current <= last:
            yield current, BatchView(batch, grouped.get(current, empty))
            current += bin_s
    else:
        for start in starts:
            yield start, BatchView(batch, grouped[start])


def decode_lines(
    batch: TracerouteBatch,
    lines: Iterable[Union[bytes, str]],
    strict: bool = False,
    first_line: int = 1,
) -> int:
    """Append Atlas-format JSONL *lines* to *batch*; return the skip count.

    The one per-line decode body: :func:`decode_traceroutes` loops it
    over a file, the live ``monitor`` path
    (:class:`repro.atlas.stream.ColumnarStream`) over tailed chunks.
    Validation mirrors the object model (a TTL below 1 is rejected
    exactly like ``Hop.__post_init__`` does).  Blank lines are skipped
    silently; an undecodable line raises
    :class:`TracerouteDecodeError` numbered from *first_line* when
    *strict*, else it is skipped and counted.  A line that fails
    mid-parse is rolled back completely, so the batch only ever
    contains whole traceroutes.

    Every value lands in the arrays exactly as the object path would
    store it (same ``int``/``float`` conversions), which is what lets
    the engine's columnar extraction reproduce the object path bit for
    bit.  Two known divergences from ``Traceroute.from_json`` are both
    *skipped and counted* here rather than accepted: the non-standard
    ``NaN``/``Infinity`` literals (orjson rejects them; consistent with
    the module's "NaN RTTs are unrepresentable" fidelity note) and
    integers beyond 64 bits (they do not fit the ``array('q')``
    columns).
    """
    # Hot loop: bind every attribute and method once per call.  This
    # function is the ingest bottleneck for cache-miss replays and the
    # live monitor, and attribute lookups per reply are measurable at
    # campaign scale.
    #
    # orjson, when the environment has it, parses raw bytes ~3x faster
    # than the stdlib; its JSONDecodeError subclasses
    # json.JSONDecodeError, so the error handling below is identical.
    loads = json.loads if _orjson is None else _orjson.loads
    strings = batch.interner.strings
    ids = batch.interner._ids
    timestamp_append = batch.timestamp.append
    prb_append = batch.prb_id.append
    src_append = batch.src_id.append
    dst_append = batch.dst_id.append
    asn_append = batch.from_asn.append
    msm_append = batch.msm_id.append
    paris_append = batch.paris_id.append
    af_append = batch.af.append
    hop_offsets = batch.hop_offsets
    hop_offsets_append = hop_offsets.append
    ttl_array = batch.hop_ttl
    ttl_append = ttl_array.append
    reply_offsets = batch.reply_offsets
    reply_offsets_append = reply_offsets.append
    ip_array = batch.reply_ip
    ip_append = ip_array.append
    rtt_array = batch.reply_rtt
    rtt_append = rtt_array.append
    nan = _NAN
    no_ip = NO_IP
    no_int = NO_INT
    scalar_arrays = [getattr(batch, name) for name in _SCALAR_COLUMNS]
    rows_before = len(batch)

    def fill_replies(replies) -> None:
        """Columnarise one hop's reply list, mirroring ``Reply.from_json``.

        Handles every shape the object model accepts: timeout markers,
        explicit ``"from": null`` (lost packet, RTT kept), fresh IPs
        needing an interner slot, ``"rtt": null``, and non-dict items
        (via membership tests so lists/strings behave exactly as the
        object model treats them).
        """
        for reply in replies:
            if type(reply) is dict:
                ip = reply.get("from")
                if ip is not None and "x" not in reply:
                    ident = ids.get(ip)
                    if ident is None:
                        if type(ip) is not str:
                            raise TypeError(
                                f"non-string responder address: {ip!r}"
                            )
                        ident = ids[ip] = len(strings)
                        strings.append(ip)
                    ip_append(ident)
                    rtt = reply.get("rtt")
                    if type(rtt) is float:
                        rtt_append(rtt)  # no float() call on the hot path
                    else:
                        # int, numeric string, or absent — exactly the
                        # conversions Reply.from_json applies.
                        rtt_append(nan if rtt is None else float(rtt))
                    continue
                if ip is None and "from" in reply and "x" not in reply:
                    # ``"from": null``: lost packet, but the object
                    # model keeps the RTT next to ip=None.
                    ip_append(no_ip)
                    rtt = reply.get("rtt")
                    rtt_append(nan if rtt is None else float(rtt))
                    continue
                ip_append(no_ip)
                rtt_append(nan)
                continue
            if "x" in reply or "from" not in reply:
                ip_append(no_ip)
                rtt_append(nan)
            else:
                ip = reply["from"]
                ident = ids.get(ip)
                if ident is None:
                    if type(ip) is not str:
                        raise TypeError(
                            f"non-string responder address: {ip!r}"
                        )
                    ident = ids[ip] = len(strings)
                    strings.append(ip)
                ip_append(ident)
                rtt = reply.get("rtt")
                rtt_append(nan if rtt is None else float(rtt))

    skipped = 0
    line_number = first_line - 1
    for line in lines:
        line_number += 1
        try:
            data = loads(line)
            for item in data.get("result", ()):
                ttl = item["hop"]
                if type(ttl) is not int:
                    ttl = int(ttl)
                if ttl < 1:
                    raise ValueError(f"TTL must be >= 1: {ttl}")
                fill_replies(item.get("result", ()))
                ttl_append(ttl)
                reply_offsets_append(len(ip_array))
            prb = data["prb_id"]
            if type(prb) is not int:
                prb = int(prb)
            src = data["src_addr"]
            src_ident = ids.get(src)
            if src_ident is None:
                if type(src) is not str:
                    raise TypeError(f"non-string src_addr: {src!r}")
                src_ident = ids[src] = len(strings)
                strings.append(src)
            dst = data["dst_addr"]
            dst_ident = ids.get(dst)
            if dst_ident is None:
                if type(dst) is not str:
                    raise TypeError(f"non-string dst_addr: {dst!r}")
                dst_ident = ids[dst] = len(strings)
                strings.append(dst)
            timestamp = data["timestamp"]
            if type(timestamp) is not int:
                timestamp = int(timestamp)
            asn = data.get("from_asn")
            msm = data.get("msm_id")
            if (asn is not None and asn < 0) or (
                msm is not None and msm < 0
            ):
                # Negative values would columnarise to the "absent"
                # sentinel — reject, never corrupt.
                raise ValueError(
                    f"from_asn/msm_id must be non-negative: {asn!r}/{msm!r}"
                )
            paris = int(data.get("paris_id", 0))
            af_value = int(data.get("af", 4))
            # All conversions succeeded: commit.  The appends can still
            # reject a non-integer asn/msm (TypeError) or a >64-bit
            # value (OverflowError); the handler truncates every column
            # back to the committed count either way.
            timestamp_append(timestamp)
            prb_append(prb)
            src_append(src_ident)
            dst_append(dst_ident)
            asn_append(no_int if asn is None else asn)
            msm_append(no_int if msm is None else msm)
            paris_append(paris)
            af_append(af_value)
            hop_offsets_append(len(ttl_array))
        except (
            json.JSONDecodeError,
            AttributeError,  # valid JSON that is not an object
            KeyError,
            TypeError,
            ValueError,
            OverflowError,
        ) as exc:
            # Roll the partial line back.  No per-line marks are kept
            # in the hot loop: every boundary is recoverable from the
            # offset tables, which are only appended to as hops/lines
            # complete.
            committed_hops = hop_offsets[-1]
            del ttl_array[committed_hops:]
            del reply_offsets[committed_hops + 1 :]
            committed_replies = reply_offsets[-1]
            del ip_array[committed_replies:]
            del rtt_array[committed_replies:]
            committed_lines = len(hop_offsets) - 1
            for column in scalar_arrays:
                del column[committed_lines:]
            if not line.strip():
                continue  # blank line: skipped silently
            if strict:
                raise TracerouteDecodeError(line_number, str(exc)) from exc
            skipped += 1
    registry = default_registry()
    registry.counter(
        "repro_ingest_traceroutes_total",
        "Traceroute lines decoded into columnar batches.",
    ).inc(len(batch) - rows_before)
    if skipped:
        registry.counter(
            "repro_ingest_decode_warnings_total",
            "Undecodable lines skipped in non-strict decoding.",
        ).inc(skipped)
    return skipped


def decode_traceroutes(
    path: PathLike,
    strict: bool = True,
    interner: Optional[IPInterner] = None,
) -> TracerouteBatch:
    """Decode an Atlas-format JSONL file straight into columns.

    The zero-object twin of :func:`repro.atlas.io.read_traceroutes`:
    same accepted format (gzip when the suffix is ``.gz``, blank lines
    skipped) and the same strictness contract — ``strict=True`` raises
    :class:`TracerouteDecodeError` with the offending line number,
    ``strict=False`` skips undecodable lines and emits one counted
    :class:`DecodeWarning` at the end.  A thin file loop over
    :func:`decode_lines`, which holds the per-line semantics.
    """
    source = Path(path)
    batch = TracerouteBatch(interner)
    skipped = 0
    first_line = 1
    # Text lines for the stdlib parser, raw bytes for orjson (which
    # skips the text-IO decode layer entirely).
    opener = (
        _open_text(source, "r") if _orjson is None else _open_binary(source)
    )
    with opener as handle:
        # readlines() with a size hint hands back ~1 MiB of complete
        # lines per call: C-speed line splitting, bounded memory, and
        # no per-line iterator protocol overhead.
        while chunk := handle.readlines(1 << 20):
            skipped += decode_lines(batch, chunk, strict, first_line)
            first_line += len(chunk)
    if skipped:
        _warn_skipped("decode_traceroutes", source, skipped)
    return batch
