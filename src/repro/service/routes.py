"""Transport-free request logic of the IHR-style JSON API (§8).

The paper's results reach operators through the Internet Health Report
API; this module is everything about that API that is not a socket —
the route table, parameter validation, caching and locking discipline
of :class:`ServiceState`.  The one HTTP server
(:mod:`repro.service.aio`) answers every request through it, and
:meth:`ServiceState.respond` is also the in-process oracle the tests
and the benchmark ledger compare wire bytes against.

========================  ====================================================
route                     answer
========================  ====================================================
``/``                     store metadata + cache statistics
``/health/{asn}``         the AS's :class:`~repro.reporting.ihr.AsCondition`
``/health?asns=1,2,3``    batch: a list of AS conditions, request order
``/links/{asn}``          per-link delay drill-down for the AS
``/events``               magnitude events (``kind``, ``threshold``,
                          ``limit``, optional ``start``/``end`` range)
``/top``                  top-K anomalous ASes (``kind``, ``k``)
``/top?kinds=a,b``        batch: ``{kind: ranking}`` for several kinds
``/metrics``              Prometheus text-format v0.0.4 scrape of the
                          process default :class:`~repro.obs.MetricsRegistry`
``/statusz``              JSON progress board (``monitor``/``fetch``
                          components, store generation, cache stats)
========================  ====================================================

Every answer is produced by :class:`~repro.service.query.StoreQuery`
(bit-identical to the in-memory IHR) and rendered to canonical JSON.

Responses are memoised in a :class:`~repro.service.cache.ResponseCache`
keyed by (route, params, store generation token): a writer appending a
segment bumps the generation, implicitly invalidating every cached
answer (the superseded entries are purged when the new token is
seen).  Strong ETags plus ``If-None-Match`` (parsed per RFC 9110:
comma-separated lists, ``W/`` prefixes and ``*`` all match) give
clients free ``304`` revalidation.

**Coherence discipline** (the ISSUE 9 race fix): the generation token
and the payload are computed under *one* ``engine_lock`` acquisition,
with the engine pinned (:meth:`StoreQuery.pinned`) so a writer
appending mid-request can never produce a generation-N+1 body cached
under a generation-N key with a ``g{N}`` ETag.

Unavailability is advertised, not just suffered: every ``503`` carries
a ``Retry-After: {RETRY_AFTER_S}`` header and a ``retry_after`` field
in its JSON error body, so clients built on a backoff policy (the
connector layer's :class:`~repro.atlas.connectors.transport.RetryPolicy`
honours ``Retry-After``) wait the advertised interval instead of
hot-looping on a store that is mid-write.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

from repro.atlas.io import PathLike
from repro.obs.expo import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.obs.expo import render_text
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    exponential_buckets,
)
from repro.obs.process import process_families
from repro.obs.status import default_board
from repro.reporting.jsonio import dumps_canonical
from repro.service.cache import (
    CachedResponse,
    CacheKey,
    ResponseCache,
    make_etag,
)
from repro.service.query import StoreQuery
from repro.service.store import StoreError

#: Default bind address of the server.
DEFAULT_HOST = "127.0.0.1"

#: Backoff interval (seconds) advertised on every 503.  Store
#: unavailability is transient (a writer mid-append, a manifest being
#: replaced), so clients honouring ``Retry-After`` — the connector
#: layer's ``RetryPolicy`` does — recover without hot-looping; the
#: value is also echoed as ``retry_after`` in the JSON error body.
RETRY_AFTER_S = 5

#: Most items one batch route accepts (``asns=``): enough for a fleet
#: dashboard's watchlist, small enough that one request cannot pin the
#: engine lock for an unbounded scan.
MAX_BATCH_ITEMS = 100

#: Strict parameter grammars.  ``int()``/``float()`` alone accept
#: underscores, surrounding whitespace and ``+`` signs — equal queries
#: spelled differently would alias to distinct cache keys, and
#: ``float('nan')`` even passes a ``<= 0`` positivity check (NaN
#: comparisons are always False), poisoning ``/events`` comparisons.
_INT_RE = re.compile(r"-?[0-9]{1,18}\Z", re.ASCII)
_FLOAT_RE = re.compile(
    r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]{1,3})?\Z",
    re.ASCII,
)
_ASN_RE = re.compile(r"[0-9]{1,10}\Z", re.ASCII)


class _BadRequest(ValueError):
    """A request parameter failed validation (rendered as HTTP 400)."""


def _json_body(payload) -> bytes:
    """Canonical JSON rendering (sorted keys, compact separators).

    Serialisation is the only per-request CPU cost a cache miss pays on
    top of the query itself, so it runs through the accelerated writer
    (:func:`repro.reporting.jsonio.dumps_canonical`).
    """
    return dumps_canonical(payload) + b"\n"


def _int_param(params: Dict[str, str], name: str, default: int) -> int:
    """A strictly spelled decimal integer parameter (no ``1_0``/`` 10``)."""
    raw = params.get(name)
    if raw is None:
        return default
    if not _INT_RE.match(raw):
        raise _BadRequest(f"parameter {name!r} must be an integer: {raw!r}")
    return int(raw)


def _float_param(
    params: Dict[str, str], name: str, default: float
) -> float:
    """A strictly spelled finite decimal parameter.

    ``nan``/``inf`` never pass: NaN slips through positivity checks
    (``nan <= 0`` is False) and both would poison cached comparisons.
    """
    raw = params.get(name)
    if raw is None:
        return default
    if not _FLOAT_RE.match(raw):
        raise _BadRequest(f"parameter {name!r} must be a number: {raw!r}")
    value = float(raw)
    if not math.isfinite(value):  # e.g. the overflow spelling "1e999"
        raise _BadRequest(f"parameter {name!r} must be finite: {raw!r}")
    return value


def _kind_value(name: str, kind: str) -> str:
    if kind not in ("delay", "forwarding"):
        raise _BadRequest(
            f"parameter {name!r} must be 'delay' or 'forwarding': {kind!r}"
        )
    return kind


def _kind_param(params: Dict[str, str]) -> str:
    return _kind_value("kind", params.get("kind", "delay"))


def _kinds_param(params: Dict[str, str]) -> List[str]:
    """The batch ``kinds=delay,forwarding`` list (strict, non-empty)."""
    raw = params.get("kinds", "")
    kinds = [_kind_value("kinds", item) for item in raw.split(",")]
    return kinds


def _asn_of(raw: str) -> int:
    """Parse an ASN component (accepts a leading ``AS``, nothing else).

    Strictly ASCII digits after the optional prefix: ``int()`` alone
    would also take ``+5``, ``" 5"``, ``5_0`` and non-ASCII digits —
    all aliases of the same AS under different cache keys.
    """
    text = raw[2:] if raw[:2].upper() == "AS" else raw
    if not _ASN_RE.match(text):
        raise _BadRequest(f"bad ASN: {raw!r}")
    return int(text)


def _asn_list_param(params: Dict[str, str]) -> List[int]:
    """The batch ``asns=1,2,3`` list (strict, non-empty, bounded)."""
    raw = params.get("asns")
    if raw is None:
        raise _BadRequest(
            "parameter 'asns' is required (e.g. /health?asns=1,2,3)"
        )
    items = raw.split(",")
    if len(items) > MAX_BATCH_ITEMS:
        raise _BadRequest(
            f"parameter 'asns' lists {len(items)} ASNs "
            f"(limit {MAX_BATCH_ITEMS})"
        )
    return [_asn_of(item) for item in items]


def if_none_match_matches(header: Optional[str], etag: str) -> bool:
    """Does an ``If-None-Match`` header revalidate *etag* (RFC 9110)?

    The header is a comma-separated list of entity tags, or ``*``
    (matches any current representation).  Comparison is *weak*: a
    ``W/`` prefix on a listed tag is ignored, as §13.1.2 requires for
    ``If-None-Match``.  Exact string equality — the previous behaviour
    — silently failed clients that cached several variants and sent
    them all, costing them every 304.  Our ETags never contain commas
    or embedded quotes, so splitting on commas is exact.
    """
    if header is None:
        return False
    if header.strip() == "*":
        return True
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate[:2] == "W/":
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


def _health_payload(engine: StoreQuery, asn: int) -> Dict[str, object]:
    condition = engine.as_condition(asn)
    return {**asdict(condition), "healthy": condition.healthy}


def _links_payload(engine: StoreQuery, asn: int) -> List[Dict[str, object]]:
    return [
        {
            "link": list(summary.link),
            "alarm_count": summary.alarm_count,
            "peak_deviation": summary.peak_deviation,
            "total_deviation": summary.total_deviation,
            "last_timestamp": summary.last_timestamp,
        }
        for summary in engine.links_of(asn)
    ]


def _top_payload(engine: StoreQuery, kind: str, k: int):
    return [
        {"asn": asn, "magnitude": magnitude}
        for asn, magnitude in engine.top_asns(kind, k)
    ]


def _events_payload(engine: StoreQuery, params: Dict[str, str]):
    kind = _kind_param(params)
    threshold = _float_param(params, "threshold", 5.0)
    limit = _int_param(params, "limit", 10)
    if threshold <= 0:
        raise _BadRequest(
            f"parameter 'threshold' must be positive: {threshold}"
        )
    if limit < 0:
        raise _BadRequest(f"parameter 'limit' must be >= 0: {limit}")
    if "start" in params or "end" in params:
        start = _int_param(params, "start", 0)
        end = _int_param(params, "end", 2**62)
        if end < start:
            raise _BadRequest(
                f"parameter 'end' precedes 'start': {end} < {start}"
            )
        events = engine.events_in(start, end, kind, threshold)[:limit]
    else:
        events = engine.top_events(kind, threshold, limit)
    return [asdict(event) for event in events]


def answer_route(
    engine: StoreQuery,
    cache: ResponseCache,
    route: str,
    params: Dict[str, str],
):
    """Compute the JSON payload for *route*; ``None`` for unknown routes.

    The single route table.  Raises :class:`_BadRequest` for invalid
    parameters and lets :class:`StoreError` propagate for the caller's
    503.
    """
    if route == "/":
        return {
            "store": engine.meta(),
            "cache": cache.stats(),
            "routes": [
                "/health/{asn}", "/health?asns=...", "/links/{asn}",
                "/events", "/top",
            ],
        }
    parts = route.strip("/").split("/")
    if route == "/health":
        return [_health_payload(engine, asn) for asn in _asn_list_param(params)]
    if parts[0] == "health" and len(parts) == 2:
        return _health_payload(engine, _asn_of(parts[1]))
    if parts[0] == "links" and len(parts) == 2:
        return _links_payload(engine, _asn_of(parts[1]))
    if route == "/events":
        return _events_payload(engine, params)
    if route == "/top":
        k = _int_param(params, "k", 10)
        if k < 0:
            raise _BadRequest(f"parameter 'k' must be >= 0: {k}")
        if "kinds" in params:
            return {
                kind: _top_payload(engine, kind, k)
                for kind in _kinds_param(params)
            }
        return _top_payload(engine, _kind_param(params), k)
    return None


def error_response(
    status: int,
    message: str,
    generation,
    retry_after: Optional[int] = None,
) -> CachedResponse:
    """Render one JSON error body as a :class:`CachedResponse`."""
    payload: Dict[str, object] = {"error": message}
    if retry_after is not None:
        payload["retry_after"] = retry_after
    body = _json_body(payload)
    return CachedResponse(
        status, body, make_etag(body, generation), retry_after=retry_after
    )


def _params_key(params: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(params.items()))


def route_family(route: str) -> str:
    """Collapse a request path to one of a fixed set of label values.

    Metric labels must stay bounded: a label per concrete ASN would
    grow one child per distinct query, so ``/health/65001`` and
    ``/health/65002`` both report as ``/health/{asn}``.  Anything the
    route table does not know is ``other`` (it will 404 anyway).
    """
    if route in ("/", "/health", "/events", "/top", "/metrics", "/statusz"):
        return route
    parts = route.strip("/").split("/")
    if len(parts) == 2 and parts[0] in ("health", "links"):
        return f"/{parts[0]}/{{asn}}"
    return "other"


#: Request-latency bounds: 10 microseconds (a rendered cache hit) up to
#: ~2.6 seconds (a cold store scan), factor-4 steps.
_REQUEST_BUCKETS = exponential_buckets(0.00001, 4.0, 9)


class ServiceMetrics:
    """The serving metric families.

    Registered idempotently against the process default registry (or an
    injected one), so every server in one process — test servers
    included — binds the same families and ``/metrics`` exposes one
    coherent view.  Telemetry only: nothing here is read back by the
    request path.
    """

    __slots__ = ("requests", "latency", "cache", "coalesced")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        registry = registry if registry is not None else default_registry()
        self.requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests answered, by route family and response status.",
            ("route", "status"),
        )
        self.latency = registry.histogram(
            "repro_http_request_seconds",
            "Request wall time from parse to fully written response.",
            ("route",),
            buckets=_REQUEST_BUCKETS,
        )
        self.cache = registry.counter(
            "repro_http_cache_total",
            "Response-cache probes by result (hit = served as cached).",
            ("result",),
        )
        self.coalesced = registry.counter(
            "repro_http_coalesced_total",
            "Requests that awaited another request's in-flight "
            "computation (async single-flight).",
        )

    def observe(
        self, family: str, status: int, seconds: float, outcome: str
    ) -> None:
        """Record one answered request (count, latency, cache outcome)."""
        self.requests.labels(family, str(status)).inc()
        self.latency.labels(family).observe(seconds)
        if outcome == "coalesced":
            self.coalesced.inc()
            self.cache.labels("miss").inc()
        elif outcome in ("hit", "miss"):
            self.cache.labels(outcome).inc()


class AccessLog:
    """One canonical-JSON line per answered request (``--access-log``).

    Four fields — ``cache`` (``hit`` / ``miss`` / ``coalesced`` /
    ``none``), ``latency_us``, ``route`` (the raw path), ``status`` —
    rendered by :func:`repro.reporting.jsonio.dumps_canonical`, whose
    sorted-key output fixes the field order.
    Writes are line-buffered under a lock; with pre-forked workers each
    process appends whole lines (``O_APPEND``), so lines never split.
    """

    def __init__(self, path: PathLike) -> None:
        self._lock = threading.Lock()
        self._handle = open(path, "ab")

    def write(
        self, route: str, status: int, latency_us: int, cache: str
    ) -> None:
        """Append one request record as a single canonical-JSON line."""
        blob = dumps_canonical(
            {
                "cache": cache,
                "latency_us": latency_us,
                "route": route,
                "status": status,
            }
        ) + b"\n"
        with self._lock:
            self._handle.write(blob)
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file."""
        with self._lock:
            self._handle.close()


class ServiceState:
    """Engine + cache + the locking/coherence discipline of one server.

    The HTTP server (:mod:`repro.service.aio`) answers every request
    through one of these, so the caching rules and the ISSUE 9
    coherence fix exist in exactly one place:

    * :meth:`respond` — fast path: one lock acquisition to refresh and
      read the generation token, then a lock-free cache probe;
    * :meth:`compute` — miss path: **token and payload under a single
      lock acquisition**, with the engine pinned so intra-request
      refreshes cannot observe a concurrent writer's new generation.
      The entry is cached under the token its body was computed at.
    """

    def __init__(
        self,
        engine: StoreQuery,
        cache: ResponseCache,
        access_log: Optional[AccessLog] = None,
    ) -> None:
        self.engine = engine
        self.cache = cache
        self.engine_lock = threading.Lock()
        self.metrics = ServiceMetrics()
        self.access_log = access_log

    def _refreshed_token(self) -> str:
        """Refresh the engine (lock held); purge superseded cache entries."""
        if self.engine.refresh():
            self.cache.retain(self.engine.cache_token)
        return self.engine.cache_token

    def token(self) -> str:
        """The current epoch-qualified generation token (refreshed)."""
        with self.engine_lock:
            return self._refreshed_token()

    def cache_key(
        self, route: str, params: Dict[str, str], token: str
    ) -> CacheKey:
        """The response-cache key for one request at one generation."""
        return (route, _params_key(params), token)

    def compute(self, route: str, params: Dict[str, str]) -> CachedResponse:
        """Compute, cache and return the response for a cache miss."""
        with self.engine_lock:
            try:
                token = self._refreshed_token()
            except StoreError as exc:
                return error_response(
                    503, f"store unavailable: {exc}", "-",
                    retry_after=RETRY_AFTER_S,
                )
            try:
                # Pinned: the payload is computed entirely at `token`'s
                # generation even if a writer publishes a new one
                # mid-request (each public query method would otherwise
                # refresh and mix generations into one response).
                with self.engine.pinned():
                    payload = answer_route(
                        self.engine, self.cache, route, params
                    )
            except _BadRequest as exc:
                return error_response(400, str(exc), token)
            except StoreError as exc:
                return error_response(
                    503, f"store unavailable: {exc}", token,
                    retry_after=RETRY_AFTER_S,
                )
            if payload is None:
                return error_response(404, f"no such route: {route}", token)
            body = _json_body(payload)
            entry = CachedResponse(200, body, make_etag(body, token))
            if route != "/":
                self.cache.put(self.cache_key(route, params, token), entry)
        return entry

    def observability(self, route: str) -> Optional[CachedResponse]:
        """Answer the scrape routes, or ``None`` for a query route.

        ``/metrics`` renders the process default registry plus the
        scrape-time ``process_*`` footprint as Prometheus text and
        ``/statusz`` the progress board as JSON.  Neither is
        memoised in the response cache (their values move independently
        of the store generation) and ``/metrics`` never touches the
        store at all, so a wedged manifest cannot take the scrape down.
        """
        if route == "/metrics":
            body = render_text(default_registry(), process_families())
            return CachedResponse(
                200,
                body,
                make_etag(body, "live"),
                content_type=METRICS_CONTENT_TYPE,
            )
        if route != "/statusz":
            return None
        store: Dict[str, object] = {}
        try:
            store["token"] = self.token()
            store["generation"] = self.engine.generation
        except StoreError as exc:
            store["error"] = str(exc)
        body = _json_body(
            {
                "components": default_board().snapshot(),
                "store": store,
                "cache": self.cache.stats(),
            }
        )
        return CachedResponse(200, body, make_etag(body, "live"))

    def answer(
        self, route: str, params: Dict[str, str]
    ) -> Tuple[CachedResponse, str]:
        """:meth:`respond` plus the cache outcome, for telemetry.

        The outcome is ``"hit"`` (served straight from the response
        cache), ``"miss"`` (computed — possibly an error response), or
        ``"none"`` (a route the cache never holds: the index,
        ``/metrics``, ``/statusz``, or a store-unavailable 503).
        """
        entry = self.observability(route)
        if entry is not None:
            return entry, "none"
        try:
            token = self.token()
        except StoreError as exc:
            return (
                error_response(
                    503, f"store unavailable: {exc}", "-",
                    retry_after=RETRY_AFTER_S,
                ),
                "none",
            )
        if route != "/":  # the index route reports live cache stats
            entry = self.cache.get(self.cache_key(route, params, token))
            if entry is not None:
                return entry, "hit"
        return self.compute(route, params), "miss" if route != "/" else "none"

    def respond(self, route: str, params: Dict[str, str]) -> CachedResponse:
        """Answer one request: cache first, :meth:`compute` on a miss."""
        return self.answer(route, params)[0]
