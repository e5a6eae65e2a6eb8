"""Raw-socket HTTP/1.1 load generator and seeded request schedules.

``http.client`` spends ~0.3 ms of Python per request — more than the
async tier spends answering a cache hit — so the driver talks to the
server over plain keep-alive sockets: request bytes are rendered once
per distinct target, written ``depth`` at a time, and responses are
framed by ``Content-Length`` only.  Everything runs on the driver's one
thread (closed loop: the next batch goes out when the previous one is
fully read).
"""

from __future__ import annotations

import hashlib
import random
import socket
from typing import Dict, List, Sequence, Tuple
from urllib.parse import parse_qsl, urlsplit

from synthstore import zipf_cdf, zipf_draw

_HEAD_END = b"\r\n\r\n"
_LENGTH = b"content-length:"
_ETAG = b"etag:"

#: One parsed response: (status, ETag or "", body).
Response = Tuple[int, str, bytes]


def render_request(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: ledger\r\n\r\n".encode("latin-1")


def split_target(target: str) -> Tuple[str, Dict[str, str]]:
    """(route, params) exactly as both HTTP tiers derive them."""
    parsed = urlsplit(target)
    return parsed.path.rstrip("/") or "/", dict(parse_qsl(parsed.query))


def schedule_digest(targets: Sequence[str]) -> str:
    return hashlib.blake2b(
        "\n".join(targets).encode("latin-1"), digest_size=16
    ).hexdigest()


def hot_schedule(seed: int, asns: Sequence[int], length: int) -> List[str]:
    """A small working set (fits the response cache), seeded order."""
    distinct = [f"/health/{asn}" for asn in asns]
    distinct += [f"/links/{asn}" for asn in asns]
    distinct += ["/top", "/top?kind=forwarding", "/events",
                 "/events?kind=forwarding"]
    rng = random.Random(seed)
    return [rng.choice(distinct) for _ in range(length)]


def churn_schedule(seed: int, asns: Sequence[int], length: int) -> List[str]:
    """The miss-heavy mix: Zipf-popular ASNs, working set > cache.

    60 % ``/health/{asn}``, 20 % ``/links/{asn}``, 10 % ``/events``,
    5 % ``/top``, 5 % batch ``/health?asns=`` of five ASNs.
    """
    rng = random.Random(seed)
    cdf = zipf_cdf(len(asns))

    def asn() -> int:
        return asns[zipf_draw(rng, cdf)]

    def kind() -> str:
        return "" if rng.random() < 0.5 else "?kind=forwarding"

    targets = []
    for _ in range(length):
        pick = rng.random()
        if pick < 0.60:
            targets.append(f"/health/{asn()}")
        elif pick < 0.80:
            targets.append(f"/links/{asn()}")
        elif pick < 0.90:
            targets.append(f"/events{kind()}")
        elif pick < 0.95:
            targets.append(f"/top{kind()}")
        else:
            batch = ",".join(str(asn()) for _ in range(5))
            targets.append(f"/health?asns={batch}")
    return targets


class Connection:
    """One keep-alive connection with depth-N pipelining."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def read(self, count: int) -> List[Response]:
        """Read exactly *count* pipelined responses, in order."""
        buffer = self._buffer
        position = 0
        responses: List[Response] = []
        while len(responses) < count:
            head_end = buffer.find(_HEAD_END, position)
            if head_end < 0:
                buffer = self._more(buffer[position:])
                position = 0
                continue
            head = buffer[position:head_end]
            lowered = head.lower()
            length = _header_value(head, lowered, _LENGTH)
            body_start = head_end + 4
            body_end = body_start + (int(length) if length else 0)
            while body_end > len(buffer):
                buffer = self._more(buffer[position:])
                body_start -= position
                body_end -= position
                position = 0
            responses.append(
                (int(head[9:12]),
                 _header_value(head, lowered, _ETAG).decode("latin-1"),
                 buffer[body_start:body_end])
            )
            position = body_end
        self._buffer = buffer[position:]
        return responses

    def _more(self, pending: bytes) -> bytes:
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        return pending + chunk

    def get(self, target: str) -> Response:
        self.send(render_request(target))
        return self.read(1)[0]

    def close(self) -> None:
        self.sock.close()


def _header_value(head: bytes, lowered: bytes, name: bytes) -> bytes:
    """Value of header *name* (lower-case) in *head*, or b'' if absent.

    *lowered* is ``head.lower()``: names match case-insensitively while
    values (ETags) keep their case.
    """
    start = lowered.find(b"\r\n" + name)
    if start < 0:
        return b""
    start += 2 + len(name)
    end = lowered.find(b"\r\n", start)
    return head[start:end if end >= 0 else None].strip()
