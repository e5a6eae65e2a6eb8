"""HTTP server tests: byte-identity with the in-process oracle, at scale.

The server's contract is *byte identity*: for any request, the status,
body, ETag and ``Retry-After`` on the wire must equal what an
independent in-process :class:`~repro.service.routes.ServiceState`
answers from the same store.  These tests drive that matrix (success,
batch, 400/404 and 304 paths), the server's own machinery (keep-alive
framing, the head deadline, one computation per missed key), and
the hard case: wire and oracle
agreeing while a writer appends and the compactor rewrites the store
underneath them.
"""

import contextlib
import gc
import json
import random
import socket
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from urllib.parse import parse_qsl, urlsplit

import pytest

from repro.reporting import InternetHealthReport
from repro.reporting.jsonio import dumps_canonical
from repro.service import (
    AlarmStoreWriter,
    CompactionPolicy,
    ResponseCache,
    ServiceState,
    StoreError,
    StoreQuery,
    compact_store,
)
from repro.service import aio
from repro.service.aio import AsyncServerThread
from repro.service.cache import CachedResponse
from repro.service.routes import error_response

from tests import test_service_store as store_tests
from tests.test_cli import _cli_env as subprocess_env
from tests.test_service_store import (
    BIN_S,
    analysis_of,
    build_store,
    make_mapper,
    synthetic_bins,
)

#: The request matrix wire and oracle must answer identically: every
#: route, the batch forms, and each validation-bugfix rejection (ISSUE 9).
MATRIX = [
    "/health/65001",
    "/health/AS65002",
    "/health/99999",
    "/health?asns=65001,65002,65010",
    "/links/65001",
    "/links/65002",
    "/events?kind=delay&threshold=0.5&limit=5",
    "/events?kind=forwarding&threshold=0.5&limit=5&start=0&end=99999999",
    "/top?kind=delay&k=3",
    "/top?kinds=delay,forwarding&k=2",
    "/nonsense",
    "/events?threshold=nan",
    "/events?threshold=inf",
    "/events?threshold=1e999",
    "/events?limit=1_0",
    "/top?k=%2B2",
    "/health/%2B5",
]


def make_oracle(directory) -> ServiceState:
    """An in-process ``ServiceState`` over its own engine and cache."""
    return ServiceState(
        StoreQuery(directory, window_bins=4), ResponseCache(64)
    )


def oracle_get(oracle: ServiceState, target: str):
    """What the wire must carry for *target*: (status, headers, body).

    ``headers`` holds the two response-dependent headers, lower-cased
    like :class:`KeepAliveClient` reports them (``etag`` only on 200).
    """
    parsed = urlsplit(target)
    entry = oracle.respond(
        parsed.path.rstrip("/") or "/", dict(parse_qsl(parsed.query))
    )
    headers = {}
    if entry.status == 200:
        headers["etag"] = entry.etag
    if entry.retry_after is not None:
        headers["retry-after"] = str(entry.retry_after)
    return entry.status, headers, entry.body


def assert_wire_matches_oracle(client, oracle, target) -> None:
    """One request: same status, bytes, ETag and Retry-After."""
    o_status, o_headers, o_body = oracle_get(oracle, target)
    status, headers, body = client.get(target)
    assert (status, body) == (o_status, o_body), target
    assert headers.get("etag") == o_headers.get("etag"), target
    assert headers.get("retry-after") == o_headers.get("retry-after"), target


class KeepAliveClient:
    """A raw HTTP/1.1 keep-alive client.

    ``urllib`` opens one connection per request; this client exercises
    the persistent-connection framing the server is built around — and
    can split :meth:`send` from :meth:`read_response` so tests can put
    many requests in flight concurrently.
    """

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.file = self.sock.makefile("rb")

    def send(self, target: str, headers=None) -> None:
        lines = [f"GET {target} HTTP/1.1", "Host: test"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        self.sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))

    def read_response(self):
        status_line = self.file.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = self.file.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        body = self.file.read(length) if length else b""
        return status, headers, body

    def get(self, target: str, headers=None):
        self.send(target, headers)
        return self.read_response()

    def close(self) -> None:
        self.file.close()
        self.sock.close()


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """One store, the server (exact freshness) and the in-process oracle."""
    directory = tmp_path_factory.mktemp("aio") / "store"
    mapper = make_mapper()
    bins = synthetic_bins(6, seed=29)
    build_store(directory, bins, mapper, chunk=2)
    with AsyncServerThread(
        directory, window_bins=4, token_ttl=0.0
    ) as async_server:
        yield {
            "directory": directory,
            "mapper": mapper,
            "bins": bins,
            "oracle": make_oracle(directory),
            "async_port": async_server.port,
            "async_server": async_server,
        }


class TestByteIdentity:
    def test_matrix_matches_oracle_exactly(self, stack):
        """Same status, same bytes, same ETag for every matrix request."""
        client = KeepAliveClient(stack["async_port"])
        try:
            for target in MATRIX:
                assert_wire_matches_oracle(client, stack["oracle"], target)
        finally:
            client.close()

    def test_index_reports_same_store(self, stack):
        """``/`` embeds live cache stats; the store half must agree."""
        _, _, o_body = oracle_get(stack["oracle"], "/")
        client = KeepAliveClient(stack["async_port"])
        try:
            _, _, a_body = client.get("/")
        finally:
            client.close()
        assert json.loads(a_body)["store"] == json.loads(o_body)["store"]

    def test_if_none_match_rfc_forms(self, stack):
        """List, ``*`` and ``W/`` forms all revalidate to 304 (RFC 9110)."""
        target = "/top?kind=delay&k=3"
        client = KeepAliveClient(stack["async_port"])
        try:
            _, headers, _ = client.get(target)
            etag = headers["etag"]
            for header in (
                etag,
                f'"zzz", {etag}',
                "*",
                f"W/{etag}",
            ):
                status, h304, body = client.get(
                    target, {"If-None-Match": header}
                )
                assert status == 304, header
                assert body == b""
                assert h304["etag"] == etag
            status, _, _ = client.get(target, {"If-None-Match": '"zzz"'})
            assert status == 200
        finally:
            client.close()


class TestConnectionHandling:
    def test_keep_alive_serves_many_requests(self, stack):
        client = KeepAliveClient(stack["async_port"])
        try:
            first = client.get("/health/65001")
            for _ in range(3):
                assert client.get("/health/65001") == first
        finally:
            client.close()

    def test_connection_close_is_honoured(self, stack):
        client = KeepAliveClient(stack["async_port"])
        try:
            status, headers, _ = client.get(
                "/health/65001", {"Connection": "close"}
            )
            assert status == 200
            assert headers.get("connection") == "close"
            assert client.file.read() == b""  # server closed after reply
        finally:
            client.close()

    def test_malformed_request_line_is_rejected(self, stack):
        sock = socket.create_connection(
            ("127.0.0.1", stack["async_port"]), timeout=30
        )
        try:
            sock.sendall(b"NONSENSE\r\n\r\n")
            reply = sock.makefile("rb").readline()
            assert b"400" in reply
        finally:
            sock.close()

    def test_non_get_method_gets_501(self, stack):
        client = KeepAliveClient(stack["async_port"])
        try:
            client.sock.sendall(
                b"POST /health/65001 HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            status, _, body = client.read_response()
            assert status == 501
            assert b"unsupported method" in body
        finally:
            client.close()


def render_get(target: str, headers=None) -> bytes:
    """One GET request head, as :class:`KeepAliveClient` sends it."""
    lines = [f"GET {target} HTTP/1.1", "Host: test"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def oracle_entry(oracle: ServiceState, target: str) -> CachedResponse:
    parsed = urlsplit(target)
    return oracle.respond(
        parsed.path.rstrip("/") or "/", dict(parse_qsl(parsed.query))
    )


def oracle_wire(oracle: ServiceState, target: str, close=False) -> bytes:
    """The exact response bytes the server owes *target*."""
    return aio._render(oracle_entry(oracle, target), close)


def recv_exactly(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ConnectionError(f"closed after {len(data)}/{count} bytes")
        data += chunk
    return data


def recv_until_closed(sock: socket.socket) -> bytes:
    """Every byte the server sends before it ends the connection."""
    data = b""
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            return data
        if not chunk:
            return data
        data += chunk


class TestPipelinedBatch:
    """Many requests in one write: answered in order, one by one."""

    def test_mixed_batch_answers_in_order_and_stops_at_close(self, stack):
        oracle = stack["oracle"]
        service = stack["async_server"].service
        revalidated = "/links/65002"
        etag = oracle_entry(oracle, revalidated).etag
        fresh = "/events?kind=delay&threshold=0.25&limit=3"
        batch = [
            ("/health/65001", {}),
            (fresh, {}),  # a miss: no other test asks for it
            (fresh, {}),  # ...then a hit
            ("/health/notanasn", {}),  # 400
            (revalidated, {"If-None-Match": etag}),  # 304
            ("/top?kind=forwarding&k=6", {}),  # a miss
            (revalidated, {}),
            ("/health/65010", {"Connection": "close"}),
            ("/health/65002", {}),  # after the close: never answered
            ("/top?kind=delay&k=3", {}),
        ]
        expected = [
            oracle_wire(oracle, target) for target, _ in batch[:7]
        ]
        expected[4] = aio._render_304(etag, False)
        expected.append(oracle_wire(oracle, "/health/65010", close=True))
        assert expected[3].startswith(b"HTTP/1.1 400 ")
        misses_before = service.misses
        sock = socket.create_connection(
            ("127.0.0.1", stack["async_port"]), timeout=30
        )
        try:
            sock.sendall(
                b"".join(render_get(target, h) for target, h in batch)
            )
            wire = recv_until_closed(sock)
        finally:
            sock.close()
        assert wire == b"".join(expected)
        assert service.misses >= misses_before + 2

    def test_batch_split_at_every_byte_offset(self, stack):
        """Framing survives a request boundary anywhere in a read."""
        oracle = stack["oracle"]
        targets = ["/health/65001", "/links/65001"]
        payload = b"".join(map(render_get, targets))
        expected = b"".join(oracle_wire(oracle, t) for t in targets)
        sock = socket.create_connection(
            ("127.0.0.1", stack["async_port"]), timeout=30
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for offset in range(1, len(payload)):
                sock.sendall(payload[:offset])
                time.sleep(0.002)  # let the server read the first part
                sock.sendall(payload[offset:])
                assert recv_exactly(sock, len(expected)) == expected, offset
        finally:
            sock.close()


class TestHeadTooLarge:
    """A head must end within ``MAX_REQUEST_BYTES``, terminator included."""

    TOO_LARGE = aio._render(
        error_response(400, "request head too large", "-"), True
    )

    @staticmethod
    def padded_head(size: int, terminated: bool = True) -> bytes:
        """A GET head of exactly *size* bytes."""
        prefix = b"GET /health/65001 HTTP/1.1\r\nX-Pad: "
        end = b"\r\n\r\n" if terminated else b""
        return prefix + b"x" * (size - len(prefix) - len(end)) + end

    def _exchange(self, stack, payload: bytes) -> bytes:
        sock = socket.create_connection(
            ("127.0.0.1", stack["async_port"]), timeout=30
        )
        try:
            sock.sendall(payload)
            return recv_until_closed(sock)
        finally:
            sock.close()

    def test_head_at_the_bound_is_served(self, stack):
        head = self.padded_head(aio.MAX_REQUEST_BYTES)
        client = KeepAliveClient(stack["async_port"])
        try:
            client.sock.sendall(head)
            status, _, body = client.read_response()
        finally:
            client.close()
        assert status == 200
        assert body == oracle_entry(stack["oracle"], "/health/65001").body

    @pytest.mark.parametrize("terminated", [False, True])
    def test_oversized_head_gets_400_then_close(self, stack, terminated):
        size = aio.MAX_REQUEST_BYTES + (1 if terminated else 0)
        wire = self._exchange(stack, self.padded_head(size, terminated))
        assert wire == self.TOO_LARGE

    def test_oversized_head_after_a_complete_request(self, stack):
        """The complete request gets its 200, then the 400, then EOF."""
        payload = render_get("/health/65002") + self.padded_head(
            aio.MAX_REQUEST_BYTES, terminated=False
        )
        wire = self._exchange(stack, payload)
        expected = oracle_wire(stack["oracle"], "/health/65002")
        assert expected.startswith(b"HTTP/1.1 200 ")
        assert wire == expected + self.TOO_LARGE


class TestHeadMemo:
    def test_memo_stays_bounded(self, stack):
        """5 000 distinct heads — 300-character targets, short targets
        with a varying header, and heads over the byte limit — leave at
        most ``MEMO_HEADS`` heads memoised, none over the limit."""
        heads = stack["async_server"].service._heads
        client = KeepAliveClient(stack["async_port"])
        try:
            for start in range(0, 5000, 250):
                batch = []
                for index in range(start, start + 250):
                    if index % 3 == 0:
                        target = f"/nonsense/{index:05d}/" + "x" * 300
                        batch.append(render_get(target))
                    elif index % 3 == 1:
                        batch.append(
                            render_get("/nonsense", {"X-Seq": str(index)})
                        )
                    else:
                        pad = "y" * aio.MEMO_HEAD_BYTES
                        batch.append(
                            render_get(f"/nonsense/{index}", {"X-Pad": pad})
                        )
                client.sock.sendall(b"".join(batch))
                for _ in batch:
                    assert client.read_response()[0] == 404
                assert 0 < len(heads) <= aio.MEMO_HEADS
                assert max(map(len, heads)) <= aio.MEMO_HEAD_BYTES
        finally:
            client.close()


@pytest.fixture(scope="module")
def memo_server(stack):
    """A second server on the stack's store whose token stays fresh, so
    a repeated head is answered on the synchronous hit path."""
    with AsyncServerThread(
        stack["directory"], window_bins=4, token_ttl=60.0
    ) as server:
        yield server


def exchange(port: int, payload: bytes) -> bytes:
    """Send *payload* on a fresh connection; every byte until EOF."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    try:
        sock.sendall(payload)
        return recv_until_closed(sock)
    finally:
        sock.close()


class TestMemoHits:
    """A repeated head answers with the bytes of its first answer."""

    def _thrice(self, server, head: bytes, expected: bytes) -> None:
        """The same head three times on one keep-alive connection: a
        memo miss, then two memo hits that create no coroutine."""
        service = server.service
        slow_paths = []
        original = service._answer_later

        def counting(request, start, out):
            slow_paths.append(request.route)
            return original(request, start, out)

        sock = socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        )
        try:
            sock.sendall(head)
            assert recv_exactly(sock, len(expected)) == expected
            assert head[:-4] in service._heads
            service._answer_later = counting
            for _ in range(2):
                sock.sendall(head)
                assert recv_exactly(sock, len(expected)) == expected
        finally:
            del service._answer_later
            sock.close()
        assert slow_paths == []

    def test_matrix_repeats_are_byte_identical(self, stack, memo_server):
        oracle = stack["oracle"]
        for target in MATRIX:
            self._thrice(
                memo_server, render_get(target), oracle_wire(oracle, target)
            )

    def test_if_none_match_repeats(self, stack, memo_server):
        oracle = stack["oracle"]
        target = "/top?kind=delay&k=3"
        etag = oracle_entry(oracle, target).etag
        not_modified = aio._render_304(etag, False)
        for header, expected in (
            (etag, not_modified),
            ('"zzz"', oracle_wire(oracle, target)),
            ("*", not_modified),
            (f"W/{etag}", not_modified),
        ):
            self._thrice(
                memo_server,
                render_get(target, {"If-None-Match": header}),
                expected,
            )

    def test_close_and_http10_end_the_batch_every_time(
        self, stack, memo_server
    ):
        oracle = stack["oracle"]
        target = "/health/65001"
        plain = render_get(target)
        closing = render_get(target, {"Connection": "close"})
        http10 = plain.replace(b"HTTP/1.1", b"HTTP/1.0", 1)
        open_wire = oracle_wire(oracle, target)
        close_wire = oracle_wire(oracle, target, close=True)
        for _ in range(3):
            wire = exchange(memo_server.port, plain + closing + plain)
            assert wire == open_wire + close_wire
            assert exchange(memo_server.port, http10 + plain) == close_wire

    def test_header_case_and_extra_headers_answer_identically(
        self, stack, memo_server
    ):
        oracle = stack["oracle"]
        target = "/links/65001"
        etag = oracle_entry(oracle, target).etag
        variants = [
            render_get(target),
            render_get(target).replace(b"Host:", b"HOST:"),
            render_get(target, {"X-Extra": "1"}),
        ]
        wire = exchange(
            memo_server.port,
            b"".join(variants) + render_get(target, {"Connection": "close"}),
        )
        assert wire == oracle_wire(oracle, target) * 3 + oracle_wire(
            oracle, target, close=True
        )
        revalidations = [
            render_get(target, {"If-None-Match": etag}),
            render_get(target, {"if-none-match": etag}),
            render_get(target, {"IF-NONE-MATCH": etag, "X-Extra": "2"}),
        ]
        for head in revalidations:
            self._thrice(memo_server, head, aio._render_304(etag, False))

    def test_hits_recheck_the_token(self, tmp_path):
        """A bin appended between two identical heads: the second
        answer carries the new generation's ETag."""
        mapper = make_mapper()
        bins = synthetic_bins(7, seed=47)
        directory = tmp_path / "store"
        build_store(directory, bins[:6], mapper, chunk=2)
        head = render_get("/top?kind=delay&k=3")
        with AsyncServerThread(
            directory, window_bins=4, token_ttl=0.05
        ) as server:
            client = KeepAliveClient(server.port)
            try:
                client.sock.sendall(head)
                before = client.read_response()
                client.sock.sendall(head)
                assert client.read_response() == before
                writer = AlarmStoreWriter.open_or_create(
                    directory, mapper, bin_s=BIN_S
                )
                writer.append_bins(bins[6:])
                time.sleep(0.2)  # past the token TTL
                client.sock.sendall(head)
                after = client.read_response()
            finally:
                client.close()
        o_status, o_headers, o_body = oracle_get(
            make_oracle(directory), "/top?kind=delay&k=3"
        )
        assert after[1]["etag"] == o_headers["etag"] != before[1]["etag"]
        assert (after[0], after[2]) == (o_status, o_body)

    @pytest.mark.parametrize("fresh", [False, True], ids=["ttl0", "ttl60"])
    def test_one_cache_probe_per_request(self, stack, memo_server, fresh):
        """Hits and misses pipelined: the response cache is probed
        exactly once per cacheable request, as the service counts."""
        server = memo_server if fresh else stack["async_server"]
        service = server.service
        cache = service.state.cache
        targets = [
            "/health/65001", "/links/65002", "/health/65001",
            f"/events?kind=delay&threshold=0.{1 + fresh}&limit=2",  # miss
            f"/events?kind=delay&threshold=0.{1 + fresh}&limit=2",  # hit
            "/top?kind=delay&k=3", "/nonsense", "/health/notanasn",
            "/top?kind=delay&k=3",
        ]
        before = cache.stats()
        hits, misses = service.hits, service.misses
        payload = b"".join(map(render_get, targets))
        wire = exchange(
            server.port,
            payload + render_get("/health/65001", {"Connection": "close"}),
        )
        assert wire.count(b"HTTP/1.1 ") == len(targets) + 1
        after = cache.stats()
        probes = (after["hits"] - before["hits"]) + (
            after["misses"] - before["misses"]
        )
        assert probes == len(targets) + 1
        assert after["hits"] - before["hits"] == service.hits - hits
        assert after["misses"] - before["misses"] == service.misses - misses
        assert service.hits - hits >= 2


class TestRender:
    """Wire bytes are pinned to literals; only the head is memoised."""

    HEAD = "HTTP/1.1 {}\r\nServer: repro-ihr-aio/1.0\r\n"
    JSON = "Content-Type: application/json\r\nContent-Length: {}\r\n"
    ETAG = '"g3.abc-0011223344556677"'

    def wire(self, status_line, length, extra, close, body) -> bytes:
        head = self.HEAD.format(status_line) + self.JSON.format(length) + extra
        if close:
            head += "Connection: close\r\n"
        return (head + "\r\n").encode("latin-1") + body

    @pytest.mark.parametrize("close", [False, True])
    def test_wire_bytes_are_the_literal(self, close):
        ok = CachedResponse(200, b'{"asn":65001}\n', self.ETAG)
        assert aio._render(ok, close) == self.wire(
            "200 OK", 14,
            f"ETag: {self.ETAG}\r\nCache-Control: no-cache\r\n",
            close, ok.body,
        )
        bad = error_response(400, "bad ASN: 'x'", "3.abc")
        assert aio._render(bad, close) == self.wire(
            "400 Bad Request", 25, "", close,
            b'{"error":"bad ASN: \'x\'"}\n',
        )
        down = error_response(503, "store unavailable: gone", "-", 5)
        assert aio._render(down, close) == self.wire(
            "503 Service Unavailable", 52, "Retry-After: 5\r\n", close,
            b'{"error":"store unavailable: gone","retry_after":5}\n',
        )
        not_modified = self.HEAD.format("304 Not Modified")
        not_modified += f"ETag: {self.ETAG}\r\n"
        if close:
            not_modified += "Connection: close\r\n"
        assert aio._render_304(self.ETAG, close) == (
            (not_modified + "\r\n").encode("latin-1")
        )

    def test_same_head_different_body_is_not_confused(self):
        """The memo key has no body in it: equal heads, own bodies."""
        one = CachedResponse(200, b"aaaa", self.ETAG)
        two = CachedResponse(200, b"bbbb", self.ETAG)
        assert aio._render(one, False).endswith(b"\r\n\r\naaaa")
        assert aio._render(two, False).endswith(b"\r\n\r\nbbbb")

    def test_rendered_response_is_collectable(self):
        """Rendering must not pin a body the response cache evicted."""
        response = CachedResponse(200, b"x" * 4096, '"g9.zz-00"')
        aio._render(response, False)
        aio._render(response, True)
        gone = weakref.ref(response)
        del response
        gc.collect()
        assert gone() is None


def closed_by_server(sock: socket.socket, within: float) -> bool:
    """Did the server end the connection (EOF or reset) within *within* s?"""
    sock.settimeout(within)
    try:
        return sock.recv(1) == b""
    except socket.timeout:
        return False
    except OSError:  # aborted with our bytes unread: a reset, not an EOF
        return True


def trickle(sock: socket.socket, head: bytes):
    """Send *head* one byte per 50 ms; seconds until the server closed.

    ``None`` when the server answered or outlasted the whole head.
    """
    started = time.monotonic()
    sock.settimeout(0.05)
    for index in range(len(head)):
        try:
            sock.sendall(head[index:index + 1])
            if sock.recv(1) != b"":
                return None
            return time.monotonic() - started
        except socket.timeout:
            continue
        except OSError:
            return time.monotonic() - started
    return None


#: ~4 s of trickling at one byte per 50 ms — never complete in time.
SLOW_HEAD = (
    b"GET /health/65001 HTTP/1.1\r\nHost: trickle\r\n"
    b"X-Padding: " + b"x" * 32 + b"\r\n\r\n"
)


class TestHeadDeadline:
    """Silent and byte-at-a-time clients are cut off; nobody else is."""

    @pytest.fixture()
    def impatient(self, tmp_path, monkeypatch):
        monkeypatch.setattr(aio, "HEAD_TIMEOUT_S", 0.2)
        directory = tmp_path / "store"
        build_store(directory, synthetic_bins(6, seed=31), make_mapper())
        with AsyncServerThread(directory, window_bins=4) as server:
            yield server

    def _connect(self, server) -> socket.socket:
        return socket.create_connection(("127.0.0.1", server.port), timeout=5)

    def test_silent_connection_is_closed(self, impatient):
        sock = self._connect(impatient)
        try:
            assert closed_by_server(sock, within=1.0)
        finally:
            sock.close()

    def test_trickled_head_is_closed_at_the_deadline(self, impatient):
        sock = self._connect(impatient)
        try:
            elapsed = trickle(sock, SLOW_HEAD)
        finally:
            sock.close()
        # Partial bytes do not push the deadline out.
        assert elapsed is not None and 0.15 <= elapsed < 1.0

    def test_paced_keep_alive_client_is_never_closed(self, impatient):
        client = KeepAliveClient(impatient.port)
        try:
            for _ in range(10):
                time.sleep(0.1)  # idle for half the deadline, every time
                status, _, _ = client.get("/health/65001")
                assert status == 200
        finally:
            client.close()

    def test_slow_compute_is_not_cut_off(self, impatient):
        engine = impatient.service.state.engine
        original = engine.sync
        release = threading.Event()

        def blocked_sync():
            assert release.wait(timeout=10)
            return original()

        # The probe applies the generation before any miss is answered.
        engine.sync = blocked_sync
        client = KeepAliveClient(impatient.port)
        try:
            client.send("/top?kind=delay&k=7")
            time.sleep(0.6)  # three deadlines pass mid-sync
            release.set()
            status, _, _ = client.read_response()
            assert status == 200
            # The deadline is re-armed after the response, not expired.
            assert client.get("/top?kind=delay&k=7")[0] == 200
        finally:
            release.set()
            client.close()

    def test_good_client_unharmed_by_idle_and_trickling_peers(self, impatient):
        opened = time.monotonic()
        idle = [self._connect(impatient) for _ in range(50)]
        slow = [self._connect(impatient) for _ in range(10)]
        closed_after = []
        tricklers = [
            threading.Thread(
                target=lambda sock=sock: closed_after.append(
                    trickle(sock, SLOW_HEAD)
                )
            )
            for sock in slow
        ]
        for thread in tricklers:
            thread.start()
        client = KeepAliveClient(impatient.port)
        try:
            statuses = [
                client.get(MATRIX[index % 10])[0] for index in range(200)
            ]
            assert statuses == [200] * 200
            for thread in tricklers:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert all(
                elapsed is not None and elapsed < 1.0
                for elapsed in closed_after
            ), closed_after
            remaining = max(0.05, opened + 1.0 - time.monotonic())
            assert all(closed_by_server(sock, remaining) for sock in idle)
        finally:
            client.close()
            for sock in idle + slow:
                sock.close()


    def test_client_that_never_reads_is_aborted(self, impatient):
        """A peer that pipelines requests and never reads a byte parks
        the connection in ``writer.drain()``; the same deadline aborts
        it, and a well-behaved client beside it sees only 200s."""
        engine = impatient.service.state.engine
        busiest = max(
            engine.monitored_asns(), key=lambda asn: len(engine.links_of(asn))
        )
        request = f"GET /links/{busiest} HTTP/1.1\r\nHost: deaf\r\n\r\n"
        burst = request.encode("latin-1") * 512
        deaf = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
        deaf.settimeout(0.05)
        deaf.connect(("127.0.0.1", impatient.port))
        outcome = {}

        def pump():
            """Send until the server resets us; note when it first stalled."""
            stalled = None
            give_up = time.monotonic() + 20.0
            while time.monotonic() < give_up:
                try:
                    deaf.sendall(burst)
                except socket.timeout:
                    # Its buffers are full: it has stopped reading, so it
                    # is (or has been) waiting for us to read.
                    stalled = stalled or time.monotonic()
                except OSError:
                    outcome["aborted_after"] = (
                        time.monotonic() - (stalled or time.monotonic())
                    )
                    return

        pumper = threading.Thread(target=pump)
        pumper.start()
        good = KeepAliveClient(impatient.port)
        try:
            statuses = []
            while pumper.is_alive() and len(statuses) < 20000:
                statuses.append(good.get(MATRIX[len(statuses) % 10])[0])
            pumper.join(timeout=30)
            assert not pumper.is_alive()
            assert statuses and set(statuses) == {200}
            assert good.get("/health/65001")[0] == 200
        finally:
            good.close()
            deaf.close()
        assert "aborted_after" in outcome, "the deaf client was never cut off"
        assert outcome["aborted_after"] < 1.0


class TestSingleFlight:
    def test_concurrent_misses_compute_once(self, tmp_path):
        """N simultaneous misses on one key → one engine computation."""
        directory = tmp_path / "store"
        build_store(directory, synthetic_bins(6, seed=37), make_mapper())
        with AsyncServerThread(
            directory, window_bins=4, token_ttl=60.0
        ) as server:
            warm = KeepAliveClient(server.port)
            warm.get("/health/65001")  # prime the token probe
            warm.close()
            service = server.service
            state = service.state
            original = state.compute_at
            calls = []

            def slow_compute_at(token, route, params):
                calls.append(route)
                time.sleep(0.3)
                return original(token, route, params)

            state.compute_at = slow_compute_at
            hits_before, misses_before = service.hits, service.misses
            clients = [KeepAliveClient(server.port) for _ in range(6)]
            try:
                target = "/top?kind=forwarding&k=4"
                for client in clients:
                    client.send(target)
                replies = [client.read_response() for client in clients]
            finally:
                for client in clients:
                    client.close()
            assert len(calls) == 1  # one compute for six requests
            assert service.misses == misses_before + 1
            assert service.hits == hits_before + 5
            assert len({body for _, _, body in replies}) == 1
            assert len({h["etag"] for _, h, _ in replies}) == 1


class TestLiveStoreEquivalence:
    """Wire and oracle, one store, a live writer and a running compactor."""

    def test_wire_and_oracle_agree_while_store_churns(self, tmp_path):
        mapper = make_mapper()
        bins = synthetic_bins(16, seed=43)
        directory = tmp_path / "store"
        build_store(directory, bins[:6], mapper, chunk=2)
        oracle = make_oracle(directory)
        stop_compactor = threading.Event()
        failures = []

        def writer_loop():
            writer = AlarmStoreWriter.open_or_create(
                directory, mapper, bin_s=BIN_S
            )
            for result in bins[6:]:
                for _ in range(10):
                    try:
                        writer.append_bins([result])
                        break
                    except StoreError:
                        writer.reload()  # the compactor got there first
                else:  # pragma: no cover - would mean a livelock
                    failures.append("writer starved by compactor")
                    return
                time.sleep(0.01)

        def compactor_loop():
            while not stop_compactor.is_set():
                try:
                    compact_store(
                        directory, CompactionPolicy(max_segments=3)
                    )
                except StoreError as exc:  # pragma: no cover - unexpected
                    failures.append(f"compactor failed: {exc}")
                    return
                time.sleep(0.03)

        with AsyncServerThread(
            directory, window_bins=4, token_ttl=0.0
        ) as async_server:
            client = KeepAliveClient(async_server.port)
            writer_thread = threading.Thread(target=writer_loop)
            compactor_thread = threading.Thread(target=compactor_loop)
            writer_thread.start()
            compactor_thread.start()
            rng = random.Random(7)
            targets = [t for t in MATRIX if "nonsense" not in t]
            body_by_etag = {}
            iterations = 0
            try:
                while writer_thread.is_alive() or iterations < 60:
                    iterations += 1
                    target = rng.choice(targets)
                    for status, headers, body in (
                        oracle_get(oracle, target),
                        client.get(target),
                    ):
                        if status == 503:
                            continue  # transient: manifest mid-swap
                        if status == 200:
                            # One token, one answer: any ETag seen on the
                            # wire or from the oracle must always name
                            # the same bytes.
                            key = headers["etag"]
                        else:
                            # 400s carry no ETag; their bodies depend
                            # only on the offending parameter.
                            key = (target, status)
                        assert body_by_etag.setdefault(key, body) == body
            finally:
                writer_thread.join(timeout=60)
                stop_compactor.set()
                compactor_thread.join(timeout=60)
            assert not failures, failures
            # The churn was real: answers from more than one generation
            # token were observed (ETags are "g{token}-{digest}").
            tokens = {
                key.split("-", 1)[0]
                for key in body_by_etag
                if isinstance(key, str)
            }
            assert len(tokens) > 1
            # Quiesced: the strict matrix must now agree byte for byte.
            for target in MATRIX:
                assert_wire_matches_oracle(client, oracle, target)
            client.close()


class TestLinksTieBreak:
    def test_tied_links_on_the_wire_equal_the_report(self, tmp_path):
        """Links tied on count and total deviation go by link, on the
        wire exactly as :meth:`InternetHealthReport.links_of` ranks them."""
        mapper = make_mapper()
        results = store_tests.TestTieOrder.bins()
        directory = tmp_path / "store"
        build_store(directory, results, mapper, chunk=2)
        report = InternetHealthReport(
            analysis_of(results, mapper), window_bins=2
        )
        with AsyncServerThread(directory, window_bins=2) as server:
            client = KeepAliveClient(server.port)
            try:
                for asn in (65001, 65010):
                    links = report.links_of(asn)
                    assert len(links) == 2
                    assert len(
                        {(s.alarm_count, s.total_deviation) for s in links}
                    ) == 1
                    expected = dumps_canonical(
                        [
                            {
                                "link": list(s.link),
                                "alarm_count": s.alarm_count,
                                "peak_deviation": s.peak_deviation,
                                "total_deviation": s.total_deviation,
                                "last_timestamp": s.last_timestamp,
                            }
                            for s in links
                        ]
                    ) + b"\n"
                    assert client.get(f"/links/{asn}")[::2] == (200, expected)
            finally:
                client.close()


@contextlib.contextmanager
def churning(directory, mapper, bins):
    """A writer appending *bins* one at a time and a compactor running
    until the block exits; yields the writer's thread."""
    stop = threading.Event()
    failures = []

    def writer_loop():
        writer = AlarmStoreWriter.open_or_create(
            directory, mapper, bin_s=BIN_S
        )
        for result in bins:
            for _ in range(10):
                try:
                    writer.append_bins([result])
                    break
                except StoreError:
                    writer.reload()  # the compactor got there first
            else:  # pragma: no cover - would mean a livelock
                failures.append("writer starved by compactor")
                return
            time.sleep(0.01)

    def compactor_loop():
        while not stop.is_set():
            try:
                compact_store(directory, CompactionPolicy(max_segments=3))
            except StoreError as exc:  # pragma: no cover - unexpected
                failures.append(f"compactor failed: {exc}")
                return
            time.sleep(0.03)

    writer_thread = threading.Thread(target=writer_loop)
    compactor_thread = threading.Thread(target=compactor_loop)
    writer_thread.start()
    compactor_thread.start()
    try:
        yield writer_thread
    finally:
        writer_thread.join(timeout=60)
        stop.set()
        compactor_thread.join(timeout=60)
    assert not failures, failures


class TestLoopNeverSyncs:
    def test_no_sync_runs_on_the_loop_thread(self, tmp_path, monkeypatch):
        """Segments are applied by the freshness probe in the executor,
        never on the event loop, while a writer appends, the compactor
        rewrites and ``/statusz`` is scraped between requests."""
        synced_on = []
        original = StoreQuery._sync

        def recording_sync(engine, manifest):
            synced_on.append((engine, threading.get_ident()))
            return original(engine, manifest)

        monkeypatch.setattr(StoreQuery, "_sync", recording_sync)
        mapper = make_mapper()
        bins = synthetic_bins(16, seed=59)
        directory = tmp_path / "store"
        build_store(directory, bins[:6], mapper, chunk=2)
        targets = [t for t in MATRIX if "nonsense" not in t]
        rng = random.Random(11)
        with AsyncServerThread(
            directory, window_bins=4, token_ttl=0.0
        ) as server:
            client = KeepAliveClient(server.port)
            try:
                with churning(directory, mapper, bins[6:]) as writer:
                    iterations = 0
                    while writer.is_alive() or iterations < 60:
                        iterations += 1
                        client.get(rng.choice(targets))
                        assert client.get("/statusz")[0] == 200
            finally:
                client.close()
            engine = server.service.state.engine
            loop_thread = server._thread.ident
        threads = [ident for owner, ident in synced_on if owner is engine]
        assert len(threads) > 1  # the churn reached the server
        assert loop_thread not in threads


#: Run in a fresh interpreter: serve, read three keep-alive responses,
#: then shut down with the connection still open.
SHUTDOWN_CLIENT = """
import socket, sys
def three(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    reader = sock.makefile("rb")
    for _ in range(3):
        sock.sendall(b"GET /top HTTP/1.1\\r\\nHost: test\\r\\n\\r\\n")
        length = 0
        for line in iter(reader.readline, b"\\r\\n"):
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        reader.read(length)
    return sock
"""


class TestShutdown:
    """Stopping the server with a keep-alive connection open is silent."""

    def _store(self, tmp_path):
        directory = tmp_path / "store"
        build_store(directory, synthetic_bins(6, seed=53), make_mapper())
        return directory

    def test_thread_stop_is_silent(self, tmp_path, capfd):
        script = SHUTDOWN_CLIENT + textwrap.dedent("""
            import gc
            from repro.service.aio import AsyncServerThread
            with AsyncServerThread(sys.argv[1]) as server:
                sock = three(server.port)
            gc.collect()
            sock.close()
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(self._store(tmp_path))],
            env=subprocess_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        assert capfd.readouterr().err == ""

    def test_cli_sigint_is_silent(self, tmp_path, capfd):
        script = SHUTDOWN_CLIENT + textwrap.dedent("""
            import signal, subprocess
            server = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro", "serve", sys.argv[1],
                 "--port", "0"],
                stdout=subprocess.PIPE,
            )
            banner = server.stdout.readline().decode()
            sock = three(int(banner.rsplit(":", 1)[1].split()[0]))
            server.send_signal(signal.SIGINT)
            sys.exit(server.wait(timeout=30))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(self._store(tmp_path))],
            env=subprocess_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        assert capfd.readouterr().err == ""
