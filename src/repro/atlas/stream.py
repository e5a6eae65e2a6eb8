"""Time-binned traceroute streams (the pipeline's input protocol).

The detection system "collects all traceroutes initiated in a 1-hour time
bin" (§4.2) and analyses bins in order.  :class:`TimeBinner` groups an
arbitrarily ordered iterable of traceroutes into aligned bins, and
:class:`LatenessWindow` provides the small amount of buffering needed to
consume near-real-time feeds where results may arrive slightly out of
order (the Atlas streaming API gives no ordering guarantee).  Two
streams share that window: :class:`ColumnarStream` decodes tailed
chunks of JSONL straight into columns and is what ``monitor`` runs;
the reference's :class:`~repro.reference.ingest.TracerouteStream` takes
traceroute objects one at a time and is the columnar stream's test
oracle.
:class:`FeedTailer` is the file-level companion: a ``tail -f`` chunk
reader that notices feed truncation and logrotate-style replacement,
reopens, counts the event and keeps going instead of stalling at a
stale offset.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.atlas.columnar import (
    BatchView,
    TracerouteBatch,
    bin_views,
    decode_lines,
)
from repro.atlas.model import Traceroute
from repro.obs.metrics import default_registry

#: The paper's conservative default time bin: one hour.
DEFAULT_BIN_S = 3600


def bin_start(timestamp: int, bin_s: int = DEFAULT_BIN_S) -> int:
    """Aligned start of the bin containing *timestamp*.

    >>> bin_start(3725, 3600)
    3600
    """
    if bin_s <= 0:
        raise ValueError(f"bin size must be positive: {bin_s}")
    return (timestamp // bin_s) * bin_s


class TimeBinner:
    """Group traceroutes into aligned time bins.

    Input order does not matter; output bins are sorted by start time.
    Empty bins between populated ones are yielded as empty lists when
    ``dense=True`` so that downstream per-bin references keep a uniform
    clock (important for the sliding-window magnitude metric).

    Columnar fast path: handing :meth:`bins` a
    :class:`~repro.atlas.columnar.TracerouteBatch` (or an existing
    :class:`~repro.atlas.columnar.BatchView`) yields
    ``(bin_start, BatchView)`` index windows instead of object lists —
    no traceroute objects are built, only per-bin row-index lists.
    """

    def __init__(self, bin_s: int = DEFAULT_BIN_S, dense: bool = True) -> None:
        if bin_s <= 0:
            raise ValueError(f"bin size must be positive: {bin_s}")
        self.bin_s = bin_s
        self.dense = dense

    def bins(
        self,
        traceroutes: Union[Iterable[Traceroute], TracerouteBatch, BatchView],
    ) -> Iterator[Tuple[int, Union[List[Traceroute], BatchView]]]:
        """Yield ``(bin_start, payload)`` in chronological order.

        The payload is a list of traceroutes for object input and a
        :class:`~repro.atlas.columnar.BatchView` for columnar input;
        bin starts and per-bin membership are identical either way.
        """
        if isinstance(traceroutes, (TracerouteBatch, BatchView)):
            yield from bin_views(traceroutes, self.bin_s, self.dense)
            return
        grouped: Dict[int, List[Traceroute]] = defaultdict(list)
        for traceroute in traceroutes:
            grouped[bin_start(traceroute.timestamp, self.bin_s)].append(
                traceroute
            )
        if not grouped:
            return
        starts = sorted(grouped)
        if self.dense:
            current = starts[0]
            while current <= starts[-1]:
                yield current, grouped.get(current, [])
                current += self.bin_s
        else:
            for start in starts:
                yield start, grouped[start]


def binned_payloads(
    traceroutes,
    bin_s: int = DEFAULT_BIN_S,
    skip_through: Optional[int] = None,
):
    """Yield ``(bin_start, payload)`` on the dense clock, resume-aware.

    The one bin loop every campaign driver shares (serial ``run``,
    engine ``run``, the checkpointing driver): dense binning, an
    optional skip of every bin at or before *skip_through* (a resumed
    run's last checkpointed bin), and object payloads materialised to
    lists while columnar input stays a
    :class:`~repro.atlas.columnar.BatchView`.
    """
    binner = TimeBinner(bin_s=bin_s, dense=True)
    for start, payload in binner.bins(traceroutes):
        if skip_through is not None and start <= skip_through:
            continue
        if not isinstance(payload, BatchView):
            payload = list(payload)
        yield start, payload


class FeedTailer:
    """Chunked line reader over an append-only feed that survives rotation.

    ``tail -f`` semantics with the two real-world failure modes a
    long-running monitor meets handled explicitly:

    * **truncation** — the feed shrinks below the read position (a
      logrotate ``copytruncate``, or an operator recreating the file).
      The previous implementation's read loop would sit at a stale
      offset past EOF and stall forever; the tailer detects the shrink
      via ``st_size``, reopens from the top and keeps going;
    * **rotation** — the feed is renamed away and a new file appears at
      the path (``st_ino`` changes).  The tailer finishes nothing from
      the old handle (its tail was already read), reopens the new file
      from the top and keeps going.

    Every reopen is counted in :attr:`reopens` (and in the
    ``repro_ingest_feed_reopens_total`` counter) so the monitor can
    report it.  A partial (not yet newline-terminated) trailing line is
    buffered until its remainder arrives — and dropped on reopen, since
    the bytes that would have completed it are gone with the old file.
    Without *follow* the tailer reads to end of file once and stops.
    """

    def __init__(
        self,
        path: str,
        follow: bool = False,
        poll: float = 0.5,
        idle_timeout: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if poll <= 0:
            raise ValueError(f"poll interval must be positive: {poll}")
        self.path = path
        self.follow = follow
        self.poll = poll
        self.idle_timeout = idle_timeout
        self.reopens = 0
        self._sleep = sleep

    def _rotated(self, handle) -> bool:
        """True when the path was truncated or replaced under *handle*."""
        try:
            status = os.stat(self.path)
        except OSError:
            # Mid-rotation gap: the old file is gone, the new one is
            # not there yet.  Treated as idle, not as rotation — the
            # reopen happens once the path reappears.
            return False
        if status.st_size < handle.tell():
            return True  # truncated in place
        return status.st_ino != os.fstat(handle.fileno()).st_ino

    def chunks(self, size_hint: int = 1 << 20) -> Iterator[List[bytes]]:
        """Yield lists of complete lines, about *size_hint* bytes each.

        What the columnar decoder consumes: everything the feed holds
        right now (up to the hint) in one hand-over, split into lines
        at C speed.  Only the very last line of the feed may lack its
        newline (yielded at end of file when not following).
        """
        reopened = default_registry().counter(
            "repro_ingest_feed_reopens_total",
            "Feed truncations/rotations the tailer reopened after.",
        )
        handle = open(self.path, "rb")
        try:
            partial = b""
            idle = 0.0
            while True:
                chunk = handle.readlines(size_hint)
                if chunk:
                    idle = 0.0
                    chunk[0] = partial + chunk[0]
                    # Only the last line read can be unterminated (the
                    # writer is mid-line): hold it back for its remainder.
                    partial = b"" if chunk[-1].endswith(b"\n") else chunk.pop()
                    if chunk:
                        yield chunk
                    continue
                if self._rotated(handle):
                    handle.close()
                    handle = open(self.path, "rb")
                    self.reopens += 1
                    reopened.inc()
                    partial = b""  # its completion vanished with the old file
                    continue
                if not self.follow or (
                    self.idle_timeout is not None
                    and idle >= self.idle_timeout
                ):
                    if partial:
                        yield [partial]  # final unterminated line at EOF
                    return
                self._sleep(self.poll)
                idle += self.poll
        finally:
            handle.close()

    def lines(self) -> Iterator[str]:
        """Yield newline-terminated lines (the final one may not be)."""
        for chunk in self.chunks():
            for line in chunk:
                yield line.decode("utf-8")


class LatenessWindow:
    """Lateness, densification and replay bookkeeping over open bins.

    The one implementation of the near-real-time closing rule, generic
    over what a bin holds:
    :class:`~repro.reference.ingest.TracerouteStream` adds traceroute
    objects, :class:`ColumnarStream` adds row indices of its batch.
    Whenever items arrive for a bin at least ``lateness_bins`` past an
    open bin, that older bin is closed and returned; items for a bin
    already closed are dropped and counted.

    * ``dense=True`` emits empty bins for any gap between consecutively
      closed bins, so the per-bin reference clock stays uniform — the
      push-based twin of :class:`TimeBinner`'s dense mode (important for
      the sliding-window magnitude metric and for bins_processed parity
      with a replayed run);
    * ``start_after`` (an aligned bin start, typically a checkpoint's
      ``last_timestamp``) discards everything up to and including that
      bin as *replayed* input rather than late input, so a resumed
      monitor can re-read its feed from the top without double-counting
      — replays land in :attr:`dropped_replayed`, genuine stragglers in
      :attr:`dropped_late`.
    """

    def __init__(
        self,
        bin_s: int = DEFAULT_BIN_S,
        lateness_bins: int = 1,
        dense: bool = False,
        start_after: Optional[int] = None,
    ) -> None:
        if bin_s <= 0:
            raise ValueError(f"bin size must be positive: {bin_s}")
        if lateness_bins < 0:
            raise ValueError(f"lateness must be >= 0: {lateness_bins}")
        if start_after is not None and start_after % bin_s:
            raise ValueError(
                f"start_after must be an aligned bin start: {start_after}"
            )
        self.bin_s = bin_s
        self.lateness_bins = lateness_bins
        self.dense = dense
        self.start_after = start_after
        self._open: Dict[int, list] = {}
        self._closed_watermark: int = (
            start_after if start_after is not None else -(2**62)
        )
        self._last_emitted: Optional[int] = start_after
        self.dropped_late = 0
        self.dropped_replayed = 0

    def _emit(self, closed: List[Tuple[int, list]]) -> List[Tuple[int, list]]:
        """Densify a batch of closing bins (no-op unless ``dense``)."""
        if not closed:
            return closed
        if not self.dense:
            self._last_emitted = closed[-1][0]
            return closed
        out: List[Tuple[int, list]] = []
        for start, items in closed:
            if self._last_emitted is not None:
                gap = self._last_emitted + self.bin_s
                while gap < start:
                    out.append((gap, []))
                    gap += self.bin_s
            out.append((start, items))
            self._last_emitted = start
        return out

    def add(self, start: int, items: Sequence) -> List[Tuple[int, list]]:
        """Add consecutive arrivals of bin *start*; return bins they closed.

        Equivalent to adding the items one by one: only the first can
        change the window, because a bin never closes itself.
        """
        if start <= self._closed_watermark:
            if self.start_after is not None and start <= self.start_after:
                self.dropped_replayed += len(items)
            else:
                self.dropped_late += len(items)
            return []
        self._open.setdefault(start, []).extend(items)
        horizon = start - self.lateness_bins * self.bin_s
        closed = []
        for open_start in sorted(self._open):
            if open_start < horizon:
                closed.append((open_start, self._open.pop(open_start)))
                self._closed_watermark = max(
                    self._closed_watermark, open_start
                )
        return self._emit(closed)

    def drain(self) -> List[Tuple[int, list]]:
        """Close and return every remaining open bin, oldest first."""
        closed = [(start, self._open[start]) for start in sorted(self._open)]
        if closed:
            self._closed_watermark = max(
                self._closed_watermark, closed[-1][0]
            )
        self._open.clear()
        return self._emit(closed)


class ColumnarStream(LatenessWindow):
    """Chunks of JSONL lines in, closed bins out as :class:`BatchView`s.

    The live ``monitor`` ingest: each :meth:`push` decodes one tailed
    chunk straight into the current :class:`TracerouteBatch`
    (:func:`~repro.atlas.columnar.decode_lines` — no traceroute objects)
    and runs the new rows through the same :class:`LatenessWindow` rule
    the reference's :class:`~repro.reference.ingest.TracerouteStream`
    applies to objects, so bins, drop counts and densification are
    identical for the same input order.
    Undecodable lines are skipped and counted in :attr:`skipped`.

    Returned views are valid until the next :meth:`push`: once the rows
    of closed (or dropped) bins outnumber the rows still open, the open
    rows are copied into a fresh batch and the old columns released, so
    resident columns stay within a small multiple of the open window
    (``lateness_bins + 1`` bins) however long the feed runs.  The
    interner is kept across batches — its ids are append-only, which is
    what lets the engine keep its id-keyed caches.
    """

    def __init__(
        self,
        bin_s: int = DEFAULT_BIN_S,
        lateness_bins: int = 1,
        dense: bool = False,
        start_after: Optional[int] = None,
    ) -> None:
        super().__init__(bin_s, lateness_bins, dense, start_after)
        self.batch = TracerouteBatch()
        self.skipped = 0
        #: Newest traceroute timestamp decoded so far (data time).
        self.newest_timestamp = 0

    def _views(
        self, closed: List[Tuple[int, list]]
    ) -> List[Tuple[int, BatchView]]:
        return [(start, BatchView(self.batch, rows)) for start, rows in closed]

    def _release_closed(self) -> None:
        """Rebuild the batch from the open rows once most rows are dead."""
        live = sum(len(rows) for rows in self._open.values())
        if len(self.batch) - live <= live:
            return
        starts = sorted(self._open)
        self.batch = self.batch.take(
            [row for start in starts for row in self._open[start]]
        )
        moved = 0
        for start in starts:
            count = len(self._open[start])
            self._open[start] = list(range(moved, moved + count))
            moved += count

    def push(self, lines: Sequence[bytes]) -> List[Tuple[int, BatchView]]:
        """Decode a chunk of lines; return the bins it closed."""
        self._release_closed()
        batch = self.batch
        first = len(batch)
        self.skipped += decode_lines(batch, lines)
        if len(batch) == first:
            return []
        stamps = np.array(batch.timestamp[first:], dtype=np.int64)
        self.newest_timestamp = max(self.newest_timestamp, int(stamps.max()))
        starts = stamps // self.bin_s * self.bin_s
        # One window step per run of consecutive rows in the same bin.
        cuts = (np.flatnonzero(starts[1:] != starts[:-1]) + 1).tolist()
        closed: List[Tuple[int, list]] = []
        for lo, hi in zip([0] + cuts, cuts + [len(starts)]):
            closed += self.add(
                int(starts[lo]), range(first + lo, first + hi)
            )
        return self._views(closed)

    def drain(self) -> List[Tuple[int, BatchView]]:
        """Close and return every remaining open bin, oldest first."""
        return self._views(super().drain())
