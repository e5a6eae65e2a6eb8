"""Observability routes and telemetry on both HTTP tiers.

The acceptance contract: ``/metrics`` and ``/statusz`` exist on the
sync and async tiers, expose the *same* metric families (names and
label sets), the access log is byte-identical in field order across
tiers, query routes stay bit-identical with metrics enabled, and the
request telemetry (counts, cache outcomes, 304s, coalesces) reflects
what the tier actually did.
"""

import json
import threading
import time

import pytest

from repro.obs.expo import parse_text, validate
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.status import StatusBoard, set_default_board
from repro.service import make_server
from repro.service.aio import AsyncServerThread
from repro.service.http import AccessLog, ServiceMetrics, route_family

from tests.test_service_aio import KeepAliveClient, sync_get
from tests.test_service_store import build_store, make_mapper, synthetic_bins

QUERY_MATRIX = [
    "/health/65001",
    "/health?asns=65001,65002",
    "/links/65001",
    "/events?kind=delay&threshold=0.5&limit=5",
    "/top?kind=delay&k=3",
]


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("obs-serve") / "store"
    build_store(directory, synthetic_bins(6, seed=13), make_mapper(), chunk=2)
    return directory


@pytest.fixture()
def stack(store_dir, tmp_path):
    """Both tiers over one store, each with its own access log."""
    sync_log = tmp_path / "sync.access.jsonl"
    async_log = tmp_path / "async.access.jsonl"
    server = make_server(store_dir, port=0, access_log=sync_log)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    with AsyncServerThread(store_dir, access_log=async_log) as async_srv:
        yield {
            "sync_base": f"http://{host}:{port}",
            "async_port": async_srv.port,
            "service": async_srv.service,
            "sync_log": sync_log,
            "async_log": async_log,
        }
    server.shutdown()
    server.server_close()


def aio_get(port: int, target: str, headers=None):
    client = KeepAliveClient(port)
    try:
        return client.get(target, headers or {})
    finally:
        client.close()


def header(headers, name):
    """Case-insensitive header lookup (the two tiers case differently)."""
    for key, value in headers.items():
        if key.lower() == name.lower():
            return value
    return None


def eventually(check, timeout=5.0):
    """Retry *check* until it stops raising/returning falsy.

    Telemetry is recorded *after* the response bytes go out, so a
    client can observe its answer microseconds before the server has
    counted it; assertions on counters and access logs poll briefly.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            result = check()
            if result or result is None:
                return result
        except (AssertionError, KeyError, IndexError):
            if time.monotonic() >= deadline:
                raise
        else:
            if time.monotonic() >= deadline:
                return result
        time.sleep(0.01)


class TestRouteFamily:
    def test_fixed_routes_map_to_themselves(self):
        for route in ("/", "/health", "/events", "/top", "/metrics",
                      "/statusz"):
            assert route_family(route) == route

    def test_parameterized_routes_collapse(self):
        assert route_family("/health/65001") == "/health/{asn}"
        assert route_family("/links/99") == "/links/{asn}"

    def test_unknown_routes_are_bounded(self):
        assert route_family("/nonsense") == "other"
        assert route_family("/a/b/c") == "other"


class TestScrapeRoutes:
    def test_metrics_route_on_both_tiers(self, stack):
        for status, headers, body in (
            sync_get(stack["sync_base"], "/metrics"),
            aio_get(stack["async_port"], "/metrics"),
        ):
            assert status == 200
            assert header(headers, "content-type").startswith(
                "text/plain; version=0.0.4"
            )
            validate(parse_text(body))

    def test_both_tiers_expose_identical_metric_families(self, stack):
        """Same names, same label sets — one coherent metric namespace."""
        for target in QUERY_MATRIX:
            sync_get(stack["sync_base"], target)
            aio_get(stack["async_port"], target)
        _, _, sync_body = sync_get(stack["sync_base"], "/metrics")
        _, _, aio_body = aio_get(stack["async_port"], "/metrics")

        def families_of(body):
            parsed = parse_text(body)
            return {
                name: (
                    entry["type"],
                    tuple(sorted(
                        frozenset(labels) - {"le"}
                        for _, labels, _ in entry["samples"]
                    )),
                )
                for name, entry in parsed.items()
            }

        # Both tiers share the process default registry, so the scrape
        # is literally the same document modulo live values.
        assert set(families_of(sync_body)) == set(families_of(aio_body))
        for name, (kind, _) in families_of(sync_body).items():
            assert families_of(aio_body)[name][0] == kind

    def test_statusz_reports_store_and_cache(self, stack):
        for status, headers, body in (
            sync_get(stack["sync_base"], "/statusz"),
            aio_get(stack["async_port"], "/statusz"),
        ):
            assert status == 200
            payload = json.loads(body)
            assert set(payload) == {"cache", "components", "store"}
            assert "generation" in payload["store"]
            assert "token" in payload["store"]

    def test_statusz_shows_board_components(self, stack):
        board = StatusBoard()
        board.update("monitor", bins_closed=7, feed_lag_s=120)
        previous = set_default_board(board)
        try:
            _, _, body = sync_get(stack["sync_base"], "/statusz")
        finally:
            set_default_board(previous)
        payload = json.loads(body)
        assert payload["components"]["monitor"] == {
            "bins_closed": 7, "feed_lag_s": 120
        }

    def test_scrape_routes_are_never_cached(self, stack):
        _, first_headers, first = sync_get(stack["sync_base"], "/metrics")

        def second_scrape_differs():
            _, _, second = sync_get(stack["sync_base"], "/metrics")
            assert first != second  # the first scrape moved the counters

        eventually(second_scrape_differs)


class TestRequestTelemetry:
    def _scrape_samples(self, base):
        _, _, body = sync_get(base, "/metrics")
        parsed = parse_text(body)
        return {
            (name, tuple(sorted(labels.items()))): value
            for name, entry in parsed.items()
            for name_, labels, value in entry["samples"]
            if name_ == name  # plain counter/gauge samples only
        }

    def test_request_counters_move_per_route_family(self, stack):
        before = self._scrape_samples(stack["sync_base"])
        sync_get(stack["sync_base"], "/health/65001")
        sync_get(stack["sync_base"], "/health/65002")
        key = (
            "repro_http_requests_total",
            (("route", "/health/{asn}"), ("status", "200")),
        )

        def moved_by_two():
            after = self._scrape_samples(stack["sync_base"])
            assert after[key] - before.get(key, 0) == 2

        eventually(moved_by_two)

    def test_304_is_counted_as_sent(self, stack):
        status, headers, _ = sync_get(stack["sync_base"], "/top?kind=delay")
        etag = header(headers, "etag")
        status, _, _ = sync_get(
            stack["sync_base"], "/top?kind=delay",
            headers={"If-None-Match": etag},
        )
        assert status == 304
        key = ("repro_http_requests_total",
               (("route", "/top"), ("status", "304")))
        eventually(
            lambda: self._scrape_samples(stack["sync_base"])[key] >= 1
        )

    def test_cache_outcomes_on_async_tier(self, stack):
        service = stack["service"]
        hits_before = service.hits
        aio_get(stack["async_port"], "/events?kind=delay&threshold=0.9")
        aio_get(stack["async_port"], "/events?kind=delay&threshold=0.9")
        assert service.hits > hits_before

        def both_outcomes_counted():
            samples = self._scrape_samples(stack["sync_base"])
            assert samples[
                ("repro_http_cache_total", (("result", "hit"),))
            ] >= 1
            assert samples[
                ("repro_http_cache_total", (("result", "miss"),))
            ] >= 1

        eventually(both_outcomes_counted)


class TestAccessLog:
    def _drain(self, path):
        return [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
            if line
        ]

    def test_one_line_per_request_with_fixed_fields(self, stack):
        sync_get(stack["sync_base"], "/health/65001")
        sync_get(stack["sync_base"], "/nonsense")
        # The sync tier logs after the body is sent, on a per-request
        # thread, so the two lines may land in either order: find each
        # record by its route, not by its position.
        wanted = {"/health/65001", "/nonsense"}
        records = eventually(
            lambda: wanted
            <= {r["route"] for r in self._drain(stack["sync_log"])}
            and self._drain(stack["sync_log"])
        )
        by_route = {r["route"]: r for r in records}
        assert by_route["/health/65001"]["status"] == 200
        assert by_route["/nonsense"]["status"] == 404
        for record in records:
            assert list(record) == ["cache", "latency_us", "route", "status"]
            assert record["cache"] in ("hit", "miss", "coalesced", "none")
            assert record["latency_us"] >= 0

    def test_field_order_is_byte_identical_across_tiers(self, stack):
        sync_get(stack["sync_base"], "/top?kind=delay&k=2")
        aio_get(stack["async_port"], "/top?kind=delay&k=2")

        def keys_of(path):
            line = eventually(
                lambda: path.read_text().strip().splitlines()[-1]
            )
            return list(json.loads(line))

        assert keys_of(stack["sync_log"]) == keys_of(stack["async_log"])
        # Byte-level: strip the (legitimately different) values and
        # compare the field skeletons of the two lines.
        import re

        def skeleton(path):
            line = path.read_text().strip().splitlines()[-1]
            return re.sub(r"(?<=:)[^,}]+", "#", line)

        assert skeleton(stack["sync_log"]) == skeleton(stack["async_log"])


class TestBitIdentityWithMetricsEnabled:
    def test_query_routes_identical_across_tiers_with_obs_on(self, stack):
        """All five query routes answer bit-identically, metrics running."""
        for target in QUERY_MATRIX:
            s_status, s_headers, s_body = sync_get(
                stack["sync_base"], target
            )
            a_status, a_headers, a_body = aio_get(
                stack["async_port"], target
            )
            assert (s_status, s_body) == (a_status, a_body), target
            assert header(s_headers, "etag") == header(a_headers, "etag"), \
                target


class TestServiceMetricsUnit:
    def test_binds_idempotently_to_injected_registry(self):
        registry = MetricsRegistry()
        first = ServiceMetrics(registry)
        second = ServiceMetrics(registry)
        assert first.requests is second.requests
        assert first.latency is second.latency

    def test_observe_outcomes(self):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry)
        metrics.observe("/top", 200, 0.001, "miss")
        metrics.observe("/top", 200, 0.0005, "hit")
        metrics.observe("/top", 200, 0.002, "coalesced")
        metrics.observe("/metrics", 200, 0.0001, "none")
        families = {f.name: f for f in registry.collect()}
        cache = {
            c.labelvalues: c.value
            for c in families["repro_http_cache_total"].children
        }
        # A coalesced request is a cache miss that waited on a peer.
        assert cache == {("hit",): 1.0, ("miss",): 2.0}
        [coalesced] = families["repro_http_coalesced_total"].children
        assert coalesced.value == 1.0

    def test_access_log_canonical_bytes(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path)
        log.write("/top", 200, 123, "hit")
        log.close()
        assert path.read_bytes() == (
            b'{"cache":"hit","latency_us":123,"route":"/top","status":200}\n'
        )
