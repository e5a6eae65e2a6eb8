"""Streamed decode in a forked child process, pipelined with the bins.

``monitor`` and a cold ``analyze`` decode their feed a chunk at a time
(:func:`~repro.atlas.columnar.decode_lines`) and run the bins each
chunk closes.  :class:`ChunkDecoder` moves the decode into a child
forked from the command, so the next chunk is parsed on a second core
while the parent runs bins, store appends and checkpoints on the rows
of the last one.

The child iterates the chunks (:func:`~repro.atlas.columnar.read_chunks`
or :meth:`~repro.atlas.stream.FeedTailer.chunks`), decodes each into a
fresh :class:`~repro.atlas.columnar.TracerouteBatch` on its copy of the
stream's interner, and writes the parent one length-prefixed frame per
chunk through an ``os.pipe()``: the interner strings added since the
last frame, the 13 column buffers, the
:class:`~repro.atlas.columnar.DecodeTally`, the line count and the
tailer's reopen count.  If the child raises, the frame carries the
exception instead; a last frame carries nothing.  The parent appends
the strings to its own interner, so every id is the one an in-process
decode gives, and hands the rows to
:meth:`~repro.atlas.stream.ColumnarStream.extend`, the row entry the
warm bin-cache reader uses too.

* Back-pressure: pipe writes block, so the child is at most about one
  chunk ahead of the parent.
* Errors: an exception raised in the child is raised again in the
  parent with its type and message; a child gone without a last frame
  is a ``RuntimeError``.
* Lifetime: the parent closes the decoder on every exit path, which
  kills the child if it still runs and reaps it.  The child exits when
  the parent is gone: a write to a pipe without a reader fails, and
  while a followed feed is idle the child sleeps in ``poll()`` on the
  pipe, which wakes once the parent's end is closed.
* Peak RSS: ``wait4``'s ``ru_maxrss`` for the command is the maximum
  over it and its reaped children, not their sum.

Why ``fork`` is safe here, also in a process with other OS threads
(numpy's OpenBLAS pool gives every command one, and Python 3.12 warns
on forking such a process): the child only decodes, which is file
reads, JSON parsing, ``array`` appends, a numpy count and the metrics
registry's counters.  It calls no BLAS, logging or threading, and the
only locks it takes, the registry's, are taken by the forking thread
alone, which holds none of them while it forks.  The child leaves by
``os._exit``: it runs no exit handler and flushes no buffer it
inherited.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import warnings
from time import perf_counter
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.atlas.columnar import (
    _SCALAR_COLUMNS,
    BatchView,
    TracerouteBatch,
    count_decoded,
    decode_lines,
)
from repro.atlas.stream import ColumnarStream, FeedTailer, feed_reopens_counter

#: The column buffers a frame carries, in order.
_COLUMNS = _SCALAR_COLUMNS + (
    "hop_offsets",
    "hop_ttl",
    "reply_offsets",
    "reply_ip",
    "reply_rtt",
)

#: A frame's length prefix.
_HEADER = struct.Struct("<Q")


class ChunkDecoder:
    """Chunks of lines decoded in a child process, into *stream*.

    Forks on construction.  Iterating yields, per decoded chunk, the
    bins its rows closed in *stream*, exactly what
    :meth:`~repro.atlas.stream.ColumnarStream.push` of the same chunk
    returns.  With a *tailer* (whose :meth:`FeedTailer.chunks` *chunks*
    is) its :attr:`~FeedTailer.reopens` and the feed-reopens counter
    follow the child's.  With a *timer*, each chunk charges
    ``decode`` one call: the wait for its rows plus their window step.
    Use as a context manager, or :meth:`close` it.
    """

    def __init__(
        self,
        chunks: Iterable[list],
        stream: ColumnarStream,
        tailer: Optional[FeedTailer] = None,
        timer=None,
    ) -> None:
        self.stream = stream
        self.tailer = tailer
        self.timer = timer
        self._reopened = feed_reopens_counter() if tailer is not None else None
        read_fd, write_fd = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 warns on fork() with other threads running;
            # the module docstring says why this child is safe.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _child(chunks, stream, tailer, write_fd)
        os.close(write_fd)
        self.pid: Optional[int] = pid
        self._pipe = open(read_fd, "rb")

    def __enter__(self) -> "ChunkDecoder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __iter__(self) -> Iterator[List[Tuple[int, BatchView]]]:
        while True:
            began = perf_counter()
            body = self._receive()
            if body is None:
                self._charge(began, 0)
                return
            closed = self._apply(*body)
            self._charge(began, 1)
            yield closed

    def close(self) -> None:
        """Kill the child if it still runs and reap it (idempotent)."""
        if self.pid is None:
            return
        self._pipe.close()
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        self.pid = None

    def _charge(self, began: float, calls: int) -> None:
        if self.timer is not None:
            self.timer.add("decode", perf_counter() - began, calls)

    def _receive(self):
        """The next frame's body: rows, or ``None`` at the end."""
        head = self._pipe.read(_HEADER.size)
        size = _HEADER.unpack(head)[0] if len(head) == _HEADER.size else -1
        payload = self._pipe.read(size) if size >= 0 else b""
        if len(payload) != size:
            raise RuntimeError("decoder process ended early")
        reopens, body = pickle.loads(payload)
        if self.tailer is not None and reopens > self.tailer.reopens:
            self._reopened.inc(reopens - self.tailer.reopens)
            self.tailer.reopens = reopens
        if isinstance(body, BaseException):
            raise body
        return body

    def _apply(self, known, strings, columns, tally, lines):
        """Join one frame's rows to the stream; the bins they closed."""
        interner = self.stream.batch.interner
        if len(interner) != known:
            raise RuntimeError("decoder process interned out of step")
        for value in strings:
            interner.intern(value)
        rows = TracerouteBatch(interner)
        for name, column in zip(_COLUMNS, columns):
            setattr(rows, name, column)
        count_decoded(tally)
        return self.stream.extend(rows, lines, tally.skipped)


def _child(chunks, stream, tailer, fd: int) -> None:
    """The decoder process: one frame per chunk to *fd*, then exit."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the parent's
        with open(fd, "wb") as pipe:

            def send(body) -> None:
                reopens = 0 if tailer is None else tailer.reopens
                payload = pickle.dumps(
                    (reopens, body), protocol=pickle.HIGHEST_PROTOCOL
                )
                pipe.write(_HEADER.pack(len(payload)))
                pipe.write(payload)
                pipe.flush()

            if tailer is not None:
                tailer._sleep = _sleep_while_read(fd)
            try:
                _decode(chunks, stream, send)
                body = None
            except Exception as exc:
                body = _portable(exc)
            send(body)
        status = 0
    finally:
        os._exit(status)


def _decode(chunks, stream: ColumnarStream, send: Callable) -> None:
    """Decode *chunks* on the stream's interner; *send* each chunk's rows."""
    interner = stream.batch.interner
    line = stream.lines
    for chunk in chunks:
        known = len(interner)
        rows = TracerouteBatch(interner)
        tally = decode_lines(rows, chunk, stream.strict, line + 1)
        line += len(chunk)
        columns = [getattr(rows, name) for name in _COLUMNS]
        send((known, interner.strings[known:], columns, tally, len(chunk)))


def _portable(exc: Exception) -> Exception:
    """*exc* if it survives pickling, else a ``RuntimeError`` naming it."""
    try:
        pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _sleep_while_read(fd: int) -> Callable[[float], None]:
    """A sleep that ends the process once the pipe *fd* has no reader."""
    poller = select.poll()
    poller.register(fd, select.POLLERR)  # a pipe without a reader
    parent = os.getppid()

    def sleep(seconds: float) -> None:
        if poller.poll(seconds * 1000.0) or os.getppid() != parent:
            os._exit(1)

    return sleep
