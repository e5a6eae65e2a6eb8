"""The HTTP/1.1 server over the alarm store (asyncio, stdlib only).

Built on :func:`asyncio.start_server`: one event loop multiplexes
thousands of keep-alive connections, and the hot path — a
response-cache hit — never leaves that loop.  Every request is
answered through one :class:`~repro.service.routes.ServiceState`
(route table, validation, caching, single-acquisition coherence
discipline), so the wire carries exactly the bodies and ETags
:meth:`ServiceState.respond` computes in-process.

* **Keep-alive + pipelining.**  HTTP/1.1 connections persist by
  default; each read frames every complete request head it holds,
  answers them in order and writes the responses at once, amortising
  connection and syscall cost across the pipeline.
* **Head deadline.**  A connection that has not delivered a complete
  request head within ``HEAD_TIMEOUT_S`` of opening (or of its previous
  response being written) is aborted, so silent, byte-at-a-time and
  never-reading clients cannot pin tasks, sockets and buffers.
* **Throttled freshness probe.**  The generation token is re-read from
  the manifest at most every ``token_ttl`` seconds (default
  ``DEFAULT_TOKEN_TTL_S``); between probes requests skip the disk
  entirely.  ``token_ttl=0`` probes on every request, exactly like
  :meth:`ServiceState.respond`.  Coherence is unaffected — bodies are
  always computed pinned to the token they are cached and ETagged
  under; the TTL only bounds how quickly a *new* generation becomes
  visible.
* **Hits and misses are synchronous on the loop.**  A request head
  seen before is looked up, not parsed (a bounded memo keyed on its
  bytes); with a fresh token the response cache is probed once and a
  hit is rendered without creating a coroutine.  A miss is computed
  inline at the probed token (:meth:`ServiceState.compute_at`), with no
  executor hop or manifest read, so one key is never computed twice.
  The probe runs in a thread-pool executor and applies the new
  generation (:meth:`ServiceState.token`); the loop never applies a
  segment or waits on ``engine_lock``, and only the probe and the
  scrape routes (``/metrics``, ``/statusz``) leave it.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from collections import OrderedDict
from functools import lru_cache
from http.client import responses as _REASONS
from time import perf_counter
from typing import (
    Awaitable, Callable, Dict, List, NamedTuple, Optional, Tuple, Union,
)
from urllib.parse import parse_qsl, urlsplit

from repro.atlas.io import PathLike
from repro.service.cache import (
    DEFAULT_CACHE_SIZE,
    CachedResponse,
    ResponseCache,
)
from repro.service.routes import (
    DEFAULT_HOST,
    AccessLog,
    ServiceState,
    _params_key,
    error_response,
    if_none_match_matches,
    route_family,
    unavailable,
)
from repro.service.query import StoreQuery

#: Default freshness-probe interval (seconds): how stale the served
#: generation may be at most.  50 ms keeps a writer's new segment
#: near-instantly visible while letting tens of thousands of cache
#: hits per second skip the manifest stat entirely.
DEFAULT_TOKEN_TTL_S = 0.05

#: Largest accepted request head (request line + headers), bytes.
MAX_REQUEST_BYTES = 65536

#: Longest a connection may take to deliver one complete request head
#: (seconds), counted from connection open or from the previous
#: response and *not* reset by partial bytes.  It doubles as the
#: keep-alive idle timeout; 60 s is the common proxy default.
HEAD_TIMEOUT_S = 60.0

_SERVER_NAME = "repro-ihr-aio/1.0"

#: The head memo's bounds: at most this many heads, none longer than
#: ``MEMO_HEAD_BYTES``, so distinct hostile heads pin at most 256 KiB.
MEMO_HEADS = DEFAULT_CACHE_SIZE
MEMO_HEAD_BYTES = 1024

#: Routes the response cache never holds (the index embeds live cache
#: stats; the scrape routes move independently of the store).
_UNCACHED = ("/", "/metrics", "/statusz")


class Request(NamedTuple):
    """One parsed GET head.  ``key`` is its response-cache key without
    the token, ``None`` for a route the cache never holds."""

    route: str
    family: str
    key: Optional[Tuple[str, Tuple[Tuple[str, str], ...]]]
    params: Dict[str, str]
    close: bool
    if_none_match: Optional[str]


def _parse_head(head: bytes) -> Union[Request, CachedResponse]:
    """The request one head (without its terminator) asks for, or the
    error response that ends its connection.  The last value of a
    repeated query name wins; ``params`` is shared, never mutated."""
    request_line, _, header_block = head.decode("latin-1").partition("\r\n")
    try:
        method, target, version = request_line.split(" ", 2)
    except ValueError:
        return error_response(400, "malformed request line", "-")
    if method != "GET":
        return error_response(501, f"unsupported method: {method!r}", "-")
    headers: Dict[str, str] = {}
    for line in header_block.split("\r\n"):
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    close = version != "HTTP/1.1" or (
        headers.get("connection", "").lower() == "close"
    )
    parsed = urlsplit(target)
    route = parsed.path.rstrip("/") or "/"
    params = dict(parse_qsl(parsed.query))
    key = None if route in _UNCACHED else (route, _params_key(params))
    return Request(
        route, route_family(route), key, params, close,
        headers.get("if-none-match"),
    )


@lru_cache(maxsize=512)
def _head(
    status: int, content_type: str, length: int, etag: str,
    retry_after: Optional[int], close: bool,
) -> bytes:
    """The response head for these fields (memoised: small, body-free)."""
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
        f"Server: {_SERVER_NAME}",
        f"Content-Type: {content_type}",
        f"Content-Length: {length}",
    ]
    if status == 200:
        head.append(f"ETag: {etag}")
        head.append("Cache-Control: no-cache")
    if retry_after is not None:
        head.append(f"Retry-After: {retry_after}")
    if close:
        head.append("Connection: close")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")


def _render(response: CachedResponse, close: bool) -> bytes:
    """Serialise one response to wire bytes.

    Only the head is memoised, keyed on its own fields: a memo keyed on
    the :class:`CachedResponse` kept bodies (and a wire copy of each)
    alive long after the response cache had evicted them.
    """
    head = _head(
        response.status, response.content_type, len(response.body),
        response.etag, response.retry_after, close,
    )
    return head + response.body


def _render_304(etag: str, close: bool) -> bytes:
    """Serialise a ``304 Not Modified`` revalidation (ETag only)."""
    head = f"HTTP/1.1 304 Not Modified\r\nServer: {_SERVER_NAME}\r\nETag: {etag}\r\n"
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1")


class AsyncAlarmService:
    """The throttled-token request broker.

    Wraps one :class:`~repro.service.routes.ServiceState` (engine +
    cache + lock) for one event loop.  A request is a memo lookup of
    its head, then — with a fresh token — one cache probe and, on a
    miss, the computation, all synchronous on the loop; only the token
    probe (which applies any new generation, in the executor) and the
    scrape routes await anything.
    """

    def __init__(
        self, state: ServiceState, token_ttl: float = DEFAULT_TOKEN_TTL_S
    ) -> None:
        self.state = state
        self.token_ttl = token_ttl
        self._token: Optional[str] = None
        self._token_at = float("-inf")
        self._token_guard: Optional[asyncio.Lock] = None
        #: Head bytes -> its parse, oldest first (see ``MEMO_HEADS``).
        self._heads: OrderedDict = OrderedDict()
        #: Open connections: transport -> handler task.
        self._connections: Dict[asyncio.BaseTransport, asyncio.Task] = {}
        #: Requests answered straight from the response cache.
        self.hits = 0
        #: Requests computed on a cache miss.
        self.misses = 0

    def _fresh_token(self, now: float) -> Optional[str]:
        """The last probed token, or None once it is over ``token_ttl`` old."""
        if now - self._token_at <= self.token_ttl:
            return self._token
        return None

    async def _probe_token(self, loop: asyncio.AbstractEventLoop) -> str:
        """Refresh and apply the generation in the executor (one probe at
        a time: a request queued behind another's probe takes its result)."""
        if self._token_guard is None:
            self._token_guard = asyncio.Lock()
        async with self._token_guard:
            token = self._fresh_token(loop.time())
            if token is not None:
                return token
            token = await loop.run_in_executor(None, self.state.token)
            self._token = token
            self._token_at = loop.time()
            return token

    def _serve(
        self, head: bytes, out: List[bytes], now: float
    ) -> Union[bool, Awaitable[bool]]:
        """Answer one framed request head (without its terminator):
        append the response to *out*, return True if the connection
        must close after it — or return the coroutine that does so when
        the answer must wait (no fresh token, an uncached route).
        """
        start = perf_counter()
        request = self._heads.get(head)
        if request is None:
            request = _parse_head(head)
            if len(head) <= MEMO_HEAD_BYTES:
                if len(self._heads) >= MEMO_HEADS:
                    self._heads.popitem(last=False)
                self._heads[head] = request
        if request.__class__ is not Request:
            out.append(_render(request, True))
            return True
        if request.key is not None and now - self._token_at <= self.token_ttl:
            close = self._answer_at(request, self._token, start, out)
            if close is not None:
                return close
        return self._answer_later(request, start, out)

    def _answer_at(
        self, request: Request, token: str, start: float, out: List[bytes]
    ) -> Optional[bool]:
        """Answer at *token*: one cache probe, then the inline computation;
        ``None`` (forcing a fresh probe) if the engine is busy or not at
        *token*.  Nothing is applied or waited for here."""
        state = self.state
        if request.key is not None:
            entry = state.cache.get(request.key + (token,))
            if entry is not None:
                self.hits += 1
                return self._emit(request, entry, "hit", start, out)
        entry = state.compute_at(token, request.route, request.params)
        if entry is None:
            self._token_at = float("-inf")
            return None
        self.misses += 1
        outcome = "miss" if request.key is not None else "none"
        return self._emit(request, entry, outcome, start, out)

    async def _answer_later(
        self, request: Request, start: float, out: List[bytes]
    ) -> bool:
        """:meth:`_answer_at` after a token probe; the scrape routes in
        the executor."""
        loop = asyncio.get_running_loop()
        if request.route in ("/metrics", "/statusz"):
            entry = await loop.run_in_executor(
                None, self.state.observability, request.route
            )
            return self._emit(request, entry, "none", start, out)
        while True:
            try:
                token = await self._probe_token(loop)
            except Exception as exc:  # StoreError: store unreadable
                return self._emit(request, unavailable(exc), "none", start, out)
            close = self._answer_at(request, token, start, out)
            if close is not None:
                return close

    def _emit(
        self, request: Request, entry: CachedResponse, outcome: str,
        start: float, out: List[bytes],
    ) -> bool:
        """Append the response's head and body (a 304 when the client's
        ``If-None-Match`` holds its ETag), then record it."""
        route, family, _, _, close, validator = request
        status = entry.status
        if status == 200 and validator is not None and (
            if_none_match_matches(validator, entry.etag)
        ):
            status = 304
            out.append(_render_304(entry.etag, close))
            out.append(b"")
        else:
            out.append(_head(
                status, entry.content_type, len(entry.body), entry.etag,
                entry.retry_after, close,
            ))
            out.append(entry.body)
        state = self.state
        elapsed = perf_counter() - start
        state.metrics.observe(family, status, elapsed, outcome)
        if state.access_log is not None:
            state.access_log.write(route, status, int(elapsed * 1e6), outcome)
        return close

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection until it closes (keep-alive).

        One pass per read: the bytes read (at most ``MAX_REQUEST_BYTES``)
        join the unframed tail of the previous read, every complete head
        is answered in order, and the responses go out in one write and
        one drain; output past the transport's write high-water mark is
        flushed early, so a client that never reads holds at most one
        read's worth.  ``Connection: close``, a malformed request line
        or a non-GET method ends the batch after its own response; a
        head that does not end within ``MAX_REQUEST_BYTES`` gets a 400
        after every complete request before it.

        The head deadline costs two assignments per request:
        ``waiting_since`` says when the wait on the client began (for its
        next head, or for it to read the responses just written; ``None``
        while answering, which is never cut off), and one timer per
        connection, re-armed only when it fires, aborts the transport
        once that wait reaches ``HEAD_TIMEOUT_S`` (a ``call_later`` per
        request would cost 3-5 µs).  On a 2-vCPU host the server spends
        10-14 µs of CPU per pipelined cache hit, 17-19 µs in the same
        runs before the head memo (22-23 µs, on a quieter day, when every
        response was its own read, write and drain).
        """
        loop = asyncio.get_running_loop()
        self._connections[writer.transport] = asyncio.current_task()
        waiting_since: Optional[float] = loop.time()

        def expire() -> None:
            nonlocal timer
            now = loop.time()
            since = now if waiting_since is None else waiting_since
            if now - since < HEAD_TIMEOUT_S:
                timer = loop.call_at(since + HEAD_TIMEOUT_S, expire)
            else:
                writer.transport.abort()

        timer = loop.call_later(HEAD_TIMEOUT_S, expire)
        high_water = writer.transport.get_write_buffer_limits()[1]
        rest = b""
        try:
            close = False
            while not close:
                chunk = await reader.read(MAX_REQUEST_BYTES)
                if not chunk:
                    break
                # The tail was searched already; a terminator can only
                # straddle its last three bytes.
                search = max(0, len(rest) - 3)
                buffer = rest + chunk
                start = 0
                out: List[bytes] = []
                pending = 0
                while True:
                    end = buffer.find(b"\r\n\r\n", search)
                    # The least this head can measure, terminator included.
                    least = (end + 4 if end >= 0 else len(buffer) + 1) - start
                    if least > MAX_REQUEST_BYTES:
                        out.append(
                            _render(
                                error_response(
                                    400, "request head too large", "-"
                                ),
                                True,
                            )
                        )
                        close = True
                        break
                    if end < 0:
                        break
                    waiting_since = None
                    close = self._serve(buffer[start:end], out, loop.time())
                    if close.__class__ is not bool:
                        close = await close
                    start = search = end + 4
                    if close:
                        break
                    # A response that keeps the connection open is
                    # two items: head and body.
                    pending += len(out[-2]) + len(out[-1])
                    if pending > high_water:
                        # Stamped before the drain, so the same deadline
                        # also aborts a client that never reads.
                        waiting_since = loop.time()
                        writer.write(b"".join(out))
                        out.clear()
                        pending = 0
                        await writer.drain()
                rest = buffer[start:]
                if out:
                    waiting_since = loop.time()
                    writer.write(b"".join(out))
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            timer.cancel()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            del self._connections[writer.transport]

    async def serve(self, server: asyncio.AbstractServer) -> None:
        """Serve until cancelled; then stop accepting, abort every open
        connection and wait for its handler to return.

        Not cancelled: Python 3.11 and 3.12 log a traceback for every
        stream handler that ends cancelled.  Not ``serve_forever()``:
        from 3.12.1 its cancellation waits for every connection to
        close, which an idle keep-alive client never does.
        """
        async with server:
            try:
                await asyncio.get_running_loop().create_future()
            finally:
                server.close()
                for transport in self._connections:
                    transport.abort()
                await asyncio.gather(
                    *self._connections.values(), return_exceptions=True
                )


async def start_async_server(
    store_path: PathLike,
    host: str = DEFAULT_HOST,
    port: int = 0,
    cache_size: int = DEFAULT_CACHE_SIZE,
    window_bins: Optional[int] = None,
    token_ttl: float = DEFAULT_TOKEN_TTL_S,
    access_log: Optional[PathLike] = None,
) -> Tuple[asyncio.AbstractServer, AsyncAlarmService]:
    """Open the store and start serving it on the running event loop.

    Returns the :class:`asyncio.Server` (close it to stop) and the
    :class:`AsyncAlarmService` answering its requests.
    ``access_log`` appends one canonical-JSON line per answered
    request.
    """
    engine = StoreQuery(store_path, window_bins=window_bins)
    service = AsyncAlarmService(
        ServiceState(
            engine,
            ResponseCache(cache_size),
            access_log=(
                AccessLog(access_log) if access_log is not None else None
            ),
        ),
        token_ttl=token_ttl,
    )
    server = await asyncio.start_server(
        service.handle_connection,
        host,
        port,
        limit=MAX_REQUEST_BYTES,
    )
    return server, service


def run_async_server(
    store_path: PathLike,
    host: str = DEFAULT_HOST,
    port: int = 0,
    cache_size: int = DEFAULT_CACHE_SIZE,
    window_bins: Optional[int] = None,
    token_ttl: float = DEFAULT_TOKEN_TTL_S,
    ready: Optional[Callable[[Tuple[str, int]], None]] = None,
    access_log: Optional[PathLike] = None,
) -> None:
    """Run the server in the foreground until interrupted.

    ``ready``, when given, is called with the bound ``(host, port)``
    once the server is accepting: the CLI prints its banner from it.
    """

    async def _main() -> None:
        server, service = await start_async_server(
            store_path,
            host,
            port,
            cache_size=cache_size,
            window_bins=window_bins,
            token_ttl=token_ttl,
            access_log=access_log,
        )
        if ready is not None:
            ready(server.sockets[0].getsockname()[:2])
        await service.serve(server)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass


class AsyncServerThread:
    """The server on a background thread (tests and benchmarks).

    Context manager: entering starts an event loop in a daemon thread,
    serves the store, and blocks until the socket is accepting;
    exiting stops the loop and joins the thread.  ``.port`` is the
    bound port, ``.service`` the live :class:`AsyncAlarmService`
    (inspect ``hits``/``misses``/its cache from the test thread).
    """

    def __init__(self, store_path: PathLike, **kwargs) -> None:
        self._store_path = store_path
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._failure: Optional[BaseException] = None
        self._main: Optional[asyncio.Task] = None
        self.port: int = 0
        self.service: Optional[AsyncAlarmService] = None

    def _run(self) -> None:
        async def _main() -> None:
            try:
                server, service = await start_async_server(
                    self._store_path, **self._kwargs
                )
            except BaseException as exc:
                self._failure = exc
                self._ready.set()
                return
            self.port = server.sockets[0].getsockname()[1]
            self.service = service
            self._main = asyncio.current_task()
            self._ready.set()
            with contextlib.suppress(asyncio.CancelledError):
                await service.serve(server)

        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(_main())
        finally:
            loop.close()

    def __enter__(self) -> "AsyncServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._failure is not None:
            raise self._failure
        if not self.port:
            raise RuntimeError("async server failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop serving, end every open connection and join the thread."""
        loop, main = self._loop, self._main
        if loop is not None and main is not None:
            with contextlib.suppress(RuntimeError):  # the loop has closed
                loop.call_soon_threadsafe(main.cancel)
        if self._thread is not None:
            self._thread.join(timeout=10)
