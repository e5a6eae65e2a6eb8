"""Observability routes and telemetry of the HTTP server.

The acceptance contract: ``/metrics`` and ``/statusz`` exist, expose
the fixed metric families (names and kinds), the access log has a
fixed field order, query routes stay bit-identical to the in-process
oracle with metrics enabled, and the request telemetry (counts, cache
outcomes, 304s) reflects what the server actually did.
"""

import json
import re
import time

import pytest

from repro.obs.expo import parse_text, validate
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.status import StatusBoard, set_default_board
from repro.service.aio import AsyncServerThread
from repro.service.routes import AccessLog, ServiceMetrics, route_family

from tests.test_service_aio import (
    KeepAliveClient,
    assert_wire_matches_oracle,
    make_oracle,
)
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
    """The server over one store, with an access log."""
    log = tmp_path / "access.jsonl"
    with AsyncServerThread(
        store_dir, window_bins=4, access_log=log
    ) as server:
        yield {
            "directory": store_dir,
            "port": server.port,
            "service": server.service,
            "log": log,
        }


def get(port: int, target: str, headers=None):
    """One request on a fresh connection: (status, headers, body)."""
    client = KeepAliveClient(port)
    try:
        return client.get(target, headers or {})
    finally:
        client.close()


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
    def test_metrics_route(self, stack):
        status, headers, body = get(stack["port"], "/metrics")
        assert status == 200
        assert headers["content-type"].startswith(
            "text/plain; version=0.0.4"
        )
        validate(parse_text(body))

    def test_metric_families_have_fixed_names_and_kinds(self, stack):
        """Dashboards and alert rules are written against these names."""
        for target in QUERY_MATRIX:
            get(stack["port"], target)
        _, _, body = get(stack["port"], "/metrics")
        kinds = {
            name: entry["type"] for name, entry in parse_text(body).items()
        }
        for name, kind in (
            ("repro_http_requests_total", "counter"),
            ("repro_http_request_seconds", "histogram"),
            ("repro_http_cache_total", "counter"),
            ("repro_query_sync_total", "counter"),
            ("repro_query_sync_seconds", "histogram"),
            ("repro_query_applied_segments", "gauge"),
            ("repro_store_manifest_reads_total", "counter"),
        ):
            assert kinds.get(name) == kind, name

    def test_statusz_reports_store_and_cache(self, stack):
        status, _, body = get(stack["port"], "/statusz")
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
            _, _, body = get(stack["port"], "/statusz")
        finally:
            set_default_board(previous)
        payload = json.loads(body)
        assert payload["components"]["monitor"] == {
            "bins_closed": 7, "feed_lag_s": 120
        }

    def test_scrape_routes_are_never_cached(self, stack):
        _, _, first = get(stack["port"], "/metrics")

        def second_scrape_differs():
            _, _, second = get(stack["port"], "/metrics")
            assert first != second  # the first scrape moved the counters

        eventually(second_scrape_differs)


class TestRequestTelemetry:
    def _scrape_samples(self, port):
        _, _, body = get(port, "/metrics")
        parsed = parse_text(body)
        return {
            (name, tuple(sorted(labels.items()))): value
            for name, entry in parsed.items()
            for name_, labels, value in entry["samples"]
            if name_ == name  # plain counter/gauge samples only
        }

    def test_request_counters_move_per_route_family(self, stack):
        before = self._scrape_samples(stack["port"])
        get(stack["port"], "/health/65001")
        get(stack["port"], "/health/65002")
        key = (
            "repro_http_requests_total",
            (("route", "/health/{asn}"), ("status", "200")),
        )

        def moved_by_two():
            after = self._scrape_samples(stack["port"])
            assert after[key] - before.get(key, 0) == 2

        eventually(moved_by_two)

    def test_304_is_counted_as_sent(self, stack):
        status, headers, _ = get(stack["port"], "/top?kind=delay")
        status, _, _ = get(
            stack["port"], "/top?kind=delay",
            headers={"If-None-Match": headers["etag"]},
        )
        assert status == 304
        key = ("repro_http_requests_total",
               (("route", "/top"), ("status", "304")))
        eventually(
            lambda: self._scrape_samples(stack["port"])[key] >= 1
        )

    def test_cache_outcomes(self, stack):
        service = stack["service"]
        hits_before = service.hits
        get(stack["port"], "/events?kind=delay&threshold=0.9")
        get(stack["port"], "/events?kind=delay&threshold=0.9")
        assert service.hits > hits_before

        def both_outcomes_counted():
            samples = self._scrape_samples(stack["port"])
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
        get(stack["port"], "/health/65001")
        get(stack["port"], "/nonsense")
        # Each request ran on its own connection, so the two lines may
        # land in either order: find each record by its route, not by
        # its position.
        wanted = {"/health/65001", "/nonsense"}
        records = eventually(
            lambda: wanted
            <= {r["route"] for r in self._drain(stack["log"])}
            and self._drain(stack["log"])
        )
        by_route = {r["route"]: r for r in records}
        assert by_route["/health/65001"]["status"] == 200
        assert by_route["/nonsense"]["status"] == 404
        for record in records:
            assert list(record) == ["cache", "latency_us", "route", "status"]
            assert record["cache"] in ("hit", "miss", "none")
            assert record["latency_us"] >= 0
        # Byte-level: with the values stripped, every line is the one
        # fixed field skeleton log consumers parse.
        for line in stack["log"].read_text().strip().splitlines():
            assert re.sub(r"(?<=:)[^,}]+", "#", line) == (
                '{"cache":#,"latency_us":#,"route":#,"status":#}'
            )


class TestBitIdentityWithMetricsEnabled:
    def test_query_routes_match_oracle_with_obs_on(self, stack):
        """All five query routes answer bit-identically, metrics running."""
        oracle = make_oracle(stack["directory"])
        client = KeepAliveClient(stack["port"])
        try:
            for target in QUERY_MATRIX:
                assert_wire_matches_oracle(client, oracle, target)
        finally:
            client.close()


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
        metrics.observe("/metrics", 200, 0.0001, "none")
        families = {f.name: f for f in registry.collect()}
        cache = {
            c.labelvalues: c.value
            for c in families["repro_http_cache_total"].children
        }
        assert cache == {("hit",): 1.0, ("miss",): 1.0}

    def test_access_log_canonical_bytes(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path)
        log.write("/top", 200, 123, "hit")
        log.close()
        assert path.read_bytes() == (
            b'{"cache":"hit","latency_us":123,"route":"/top","status":200}\n'
        )
