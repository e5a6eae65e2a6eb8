"""The HTTP/1.1 server over the alarm store (asyncio, stdlib only).

Built on :func:`asyncio.start_server`: one event loop multiplexes
thousands of keep-alive connections, and the hot path — a
response-cache hit — never leaves that loop.  Every request is
answered through one :class:`~repro.service.routes.ServiceState`
(route table, validation, caching, single-acquisition coherence
discipline), so the wire carries exactly the bodies and ETags
:meth:`ServiceState.respond` computes in-process.

* **Keep-alive + pipelining.**  HTTP/1.1 connections persist by
  default and queued requests are answered in order from the stream
  buffer, amortising connection cost to ~zero.
* **Head deadline.**  A connection that has not delivered a complete
  request head within ``HEAD_TIMEOUT_S`` of opening (or of its previous
  response being written) is aborted, so silent, byte-at-a-time and
  never-reading clients cannot pin tasks, sockets and buffers.
* **Single-flight coalescing.**  N concurrent misses on one cache key
  await a single computation (an :class:`asyncio.Future` per in-flight
  key); the engine computes once, everyone gets the entry.
* **Throttled freshness probe.**  The generation token is re-read from
  the manifest at most every ``token_ttl`` seconds (default
  ``DEFAULT_TOKEN_TTL_S``); between probes cache hits skip the disk
  entirely.  ``token_ttl=0`` probes on every request, exactly like
  :meth:`ServiceState.respond`.  Coherence is unaffected — bodies are
  always computed pinned to the token they are cached and ETagged
  under; the TTL only bounds how quickly a *new* generation becomes
  visible.
* **Pre-fork workers.**  :class:`WorkerPool` runs N processes, each
  with its own event loop, ``StoreQuery`` (its own mmap) and response
  cache, all listening on one port via ``SO_REUSEPORT`` — the kernel
  load-balances accepts, no shared state, no GIL contention.  The
  parent holds a bound (non-listening) reservation socket so an
  ephemeral port can be chosen once and shared by every worker.

Blocking work (engine queries, manifest probes) runs in a thread-pool
executor so slow cache misses never stall the event loop; the state's
``engine_lock`` serialises engine access.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import socket
import threading
from functools import lru_cache
from http.client import responses as _REASONS
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.atlas.io import PathLike
from repro.obs.metrics import default_registry
from repro.service.cache import (
    DEFAULT_CACHE_SIZE,
    CachedResponse,
    CacheKey,
    ResponseCache,
)
from repro.service.routes import (
    DEFAULT_HOST,
    RETRY_AFTER_S,
    AccessLog,
    ServiceState,
    error_response,
    if_none_match_matches,
    route_family,
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
    """The single-flight, throttled-token request broker.

    Wraps one :class:`~repro.service.routes.ServiceState` (engine +
    cache + lock) for one event loop.  :meth:`respond` is the whole
    request path: throttled token probe, lock-free cache probe on the
    loop, and — only on a miss — a single-flight computation in the
    executor under the shared coherence discipline.
    """

    def __init__(
        self, state: ServiceState, token_ttl: float = DEFAULT_TOKEN_TTL_S
    ) -> None:
        self.state = state
        self.token_ttl = token_ttl
        self._token: Optional[str] = None
        self._token_at = float("-inf")
        self._token_guard: Optional[asyncio.Lock] = None
        self._inflight: Dict[CacheKey, "asyncio.Future[CachedResponse]"] = {}
        #: Requests answered straight from the response cache.
        self.hits = 0
        #: Requests that awaited a (possibly coalesced) computation.
        self.misses = 0

    async def _current_token(self) -> str:
        """The generation token, re-probed at most every ``token_ttl``."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        if self._token is not None and now - self._token_at <= self.token_ttl:
            return self._token
        if self._token_guard is None:
            self._token_guard = asyncio.Lock()
        async with self._token_guard:
            now = loop.time()
            if (
                self._token is not None
                and now - self._token_at <= self.token_ttl
            ):
                return self._token
            token = await loop.run_in_executor(None, self.state.token)
            self._token = token
            self._token_at = loop.time()
            return token

    async def respond(
        self, route: str, params: Dict[str, str]
    ) -> CachedResponse:
        """Answer one request (cache hit, coalesced miss, or error)."""
        entry, _outcome = await self.answer(route, params)
        return entry

    async def answer(
        self, route: str, params: Dict[str, str]
    ) -> Tuple[CachedResponse, str]:
        """:meth:`respond` plus the cache outcome, for telemetry.

        Outcomes mirror :meth:`ServiceState.answer` — ``"hit"``,
        ``"miss"``, ``"none"`` — plus the async-only ``"coalesced"``
        (this request awaited another request's in-flight computation;
        counted as a miss in the ``hits``/``misses`` totals, since the
        response cache did not hold the answer).
        """
        state = self.state
        loop = asyncio.get_running_loop()
        if route in ("/metrics", "/statusz"):
            # Off the loop: /statusz stats the manifest for its token.
            entry = await loop.run_in_executor(
                None, state.observability, route
            )
            return entry, "none"
        try:
            token = await self._current_token()
        except Exception as exc:  # StoreError: manifest unreadable
            return (
                error_response(
                    503, f"store unavailable: {exc}", "-",
                    retry_after=RETRY_AFTER_S,
                ),
                "none",
            )
        key = state.cache_key(route, params, token)
        if route != "/":
            entry = state.cache.get(key)
            if entry is not None:
                self.hits += 1
                return entry, "hit"
        self.misses += 1
        outcome = "miss" if route != "/" else "none"
        pending = self._inflight.get(key)
        if pending is not None:
            return await asyncio.shield(pending), "coalesced"
        future: "asyncio.Future[CachedResponse]" = loop.create_future()
        self._inflight[key] = future
        try:
            entry = await loop.run_in_executor(
                None, state.compute, route, params
            )
        except BaseException as exc:
            if not future.cancelled():
                future.set_exception(exc)
                # Consumed by awaiting followers (or nobody); don't
                # let an unretrieved-exception warning fire for the
                # no-follower case.
                future.exception()
            raise
        else:
            if not future.cancelled():
                future.set_result(entry)
            return entry, outcome
        finally:
            self._inflight.pop(key, None)

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection until it closes (keep-alive).

        The head deadline costs the request path two assignments:
        ``waiting_since`` says when the wait on the client began — for
        its next head, or for it to read the response just written
        (``None`` while a response is being computed, which is never
        cut off), and one timer per connection, re-armed only when it
        fires, aborts the transport once that wait reaches
        ``HEAD_TIMEOUT_S``.  A ``call_later`` handle per request
        measured 3-5 µs against a ~40 µs pipelined cache hit, an
        ``asyncio.wait_for`` task more.
        """
        loop = asyncio.get_running_loop()
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
        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                ):
                    break
                except asyncio.LimitOverrunError:
                    writer.write(
                        _render(
                            error_response(400, "request head too large", "-"),
                            True,
                        )
                    )
                    await writer.drain()
                    break
                waiting_since = None
                close = await self._serve_one(raw, writer)
                # Stamped before the drain, so the same deadline also
                # aborts a client that never reads its responses.
                waiting_since = loop.time()
                await writer.drain()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            timer.cancel()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_one(
        self, raw: bytes, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one framed request; True when the connection must close."""
        lines = raw[:-4].split(b"\r\n")
        try:
            method, target, version = lines[0].decode("latin-1").split(" ", 2)
        except ValueError:
            writer.write(
                _render(error_response(400, "malformed request line", "-"), True)
            )
            return True
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        close = version != "HTTP/1.1" or (
            headers.get("connection", "").lower() == "close"
        )
        if method != "GET":
            writer.write(
                _render(
                    error_response(501, f"unsupported method: {method!r}", "-"),
                    True,
                )
            )
            return True
        parsed = urlsplit(target)
        route = parsed.path.rstrip("/") or "/"
        params = dict(parse_qsl(parsed.query))
        start = perf_counter()
        response, outcome = await self.answer(route, params)
        if response.status == 200 and if_none_match_matches(
            headers.get("if-none-match"), response.etag
        ):
            status = 304
            writer.write(_render_304(response.etag, close))
        else:
            status = response.status
            writer.write(_render(response, close))
        state = self.state
        elapsed = perf_counter() - start
        state.metrics.observe(route_family(route), status, elapsed, outcome)
        if state.access_log is not None:
            state.access_log.write(route, status, int(elapsed * 1e6), outcome)
        return close


async def start_async_server(
    store_path: PathLike,
    host: str = DEFAULT_HOST,
    port: int = 0,
    cache_size: int = DEFAULT_CACHE_SIZE,
    window_bins: Optional[int] = None,
    token_ttl: float = DEFAULT_TOKEN_TTL_S,
    reuse_port: bool = False,
    access_log: Optional[PathLike] = None,
) -> Tuple[asyncio.AbstractServer, AsyncAlarmService]:
    """Open the store and start serving it on the running event loop.

    Returns the :class:`asyncio.Server` (close it to stop) and the
    :class:`AsyncAlarmService` answering its requests.  With
    ``reuse_port`` the listening socket sets ``SO_REUSEPORT`` so
    several processes can share the port (see :class:`WorkerPool`).
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
        reuse_port=reuse_port or None,
    )
    return server, service


def run_async_server(
    store_path: PathLike,
    host: str = DEFAULT_HOST,
    port: int = 0,
    cache_size: int = DEFAULT_CACHE_SIZE,
    window_bins: Optional[int] = None,
    token_ttl: float = DEFAULT_TOKEN_TTL_S,
    reuse_port: bool = False,
    ready: Optional[Callable[[Tuple[str, int]], None]] = None,
    access_log: Optional[PathLike] = None,
) -> None:
    """Run the server in the foreground until interrupted.

    ``ready``, when given, is called with the bound ``(host, port)``
    once the server is accepting: the CLI prints its banner from it,
    the :class:`WorkerPool` parent passes a queue's ``put`` as the
    workers' readiness signal.
    """

    async def _main() -> None:
        server, _service = await start_async_server(
            store_path,
            host,
            port,
            cache_size=cache_size,
            window_bins=window_bins,
            token_ttl=token_ttl,
            reuse_port=reuse_port,
            access_log=access_log,
        )
        if ready is not None:
            ready(server.sockets[0].getsockname()[:2])
        async with server:
            await server.serve_forever()

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
            self._ready.set()
            async with server:
                with contextlib.suppress(asyncio.CancelledError):
                    await server.serve_forever()

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
        """Stop the server loop and join its thread."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            def _shutdown() -> None:
                for task in asyncio.all_tasks():
                    task.cancel()

            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=10)


def _reserve_port(host: str, port: int) -> Tuple[socket.socket, int]:
    """Bind (without listening) a ``SO_REUSEPORT`` reservation socket.

    ``SO_REUSEPORT`` load-balances only among *listening* sockets, so
    a bound-but-not-listening socket pins the port number for the pool
    without ever receiving a connection — letting ``port=0`` pick one
    ephemeral port that every worker then shares.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock, sock.getsockname()[1]


class WorkerPool:
    """Pre-fork pool: N async workers sharing one ``SO_REUSEPORT`` port.

    Each worker is a separate process running its own event loop with
    its own :class:`~repro.service.query.StoreQuery` (private mmap),
    response cache and executor — no shared mutable state, no GIL
    contention; the kernel distributes accepted connections across the
    workers' listening sockets.  Construct with :func:`start_worker_pool`
    (which waits for every worker to signal readiness), stop with
    :meth:`stop`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        reservation: socket.socket,
        workers: List[multiprocessing.Process],
    ) -> None:
        self.host = host
        self.port = port
        self._reservation = reservation
        self.workers = workers
        #: Pool liveness, exported from the *parent* process registry —
        #: the single process that can observe every worker's state.
        self._alive_gauge = default_registry().gauge(
            "repro_serve_workers_alive",
            "Worker processes currently running in the pre-fork pool.",
        )
        self._alive_gauge.set(float(self.alive()))

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def alive(self) -> int:
        """How many worker processes are currently running."""
        count = sum(1 for proc in self.workers if proc.is_alive())
        gauge = getattr(self, "_alive_gauge", None)
        if gauge is not None:
            gauge.set(float(count))
        return count

    def join(self) -> None:  # pragma: no cover - interactive serving
        """Block until every worker exits (Ctrl-C stops the pool)."""
        try:
            for proc in self.workers:
                proc.join()
        except KeyboardInterrupt:
            self.stop()

    def stop(self) -> None:
        """Terminate every worker and release the port reservation."""
        for proc in self.workers:
            if proc.is_alive():
                proc.terminate()
        for proc in self.workers:
            proc.join(timeout=10)
        self._reservation.close()
        self.alive()  # refresh the liveness gauge to (normally) zero


def start_worker_pool(
    store_path: PathLike,
    host: str = DEFAULT_HOST,
    port: int = 0,
    workers: int = 2,
    cache_size: int = DEFAULT_CACHE_SIZE,
    window_bins: Optional[int] = None,
    token_ttl: float = DEFAULT_TOKEN_TTL_S,
    access_log: Optional[PathLike] = None,
) -> WorkerPool:
    """Start *workers* pre-forked async servers on one shared port.

    Requires ``SO_REUSEPORT`` (Linux, modern BSDs).  Blocks until every
    worker has bound its socket and is accepting connections, so the
    returned pool's ``.port`` is immediately usable.  With
    ``access_log`` every worker appends to the same path (``O_APPEND``
    keeps whole lines intact across processes).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover - linux CI
        raise RuntimeError("worker pool requires SO_REUSEPORT support")
    reservation, bound_port = _reserve_port(host, port)
    context = multiprocessing.get_context()
    ready: "multiprocessing.queues.Queue" = context.Queue()
    procs: List[multiprocessing.Process] = []
    try:
        for _ in range(workers):
            proc = context.Process(
                target=run_async_server,
                args=(store_path, host, bound_port),
                kwargs={
                    "cache_size": cache_size,
                    "window_bins": window_bins,
                    "token_ttl": token_ttl,
                    "reuse_port": True,
                    "ready": ready.put,
                    "access_log": access_log,
                },
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        for _ in range(workers):
            ready.get(timeout=30)
    except Exception:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        reservation.close()
        raise
    return WorkerPool(host, bound_port, reservation, procs)
