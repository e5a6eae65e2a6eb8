"""Tests for the serving layer's routes, HTTP API and response cache."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service import (
    AlarmStoreWriter,
    CachedResponse,
    ResponseCache,
    ServiceState,
    StoreQuery,
    if_none_match_matches,
    read_manifest,
)
from repro.service.aio import AsyncServerThread
from repro.service.cache import make_etag
from repro.service.routes import (
    _asn_of,
    _BadRequest,
    _float_param,
    _int_param,
)

from tests.test_service_store import (
    analysis_of,
    build_store,
    make_mapper,
    synthetic_bins,
)


class TestResponseCache:
    def _entry(self, tag: str) -> CachedResponse:
        body = tag.encode()
        return CachedResponse(200, body, make_etag(body, 1))

    def test_hit_miss_counters(self):
        cache = ResponseCache(4)
        key = ("/health/1", (), 0)
        assert cache.get(key) is None
        cache.put(key, self._entry("a"))
        assert cache.get(key).body == b"a"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = ResponseCache(2)
        keys = [(f"/r{i}", (), 0) for i in range(3)]
        for index, key in enumerate(keys):
            cache.put(key, self._entry(str(index)))
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[2]) is not None
        assert cache.stats()["evictions"] == 1

    def test_recently_used_survives(self):
        cache = ResponseCache(2)
        keys = [(f"/r{i}", (), 0) for i in range(3)]
        cache.put(keys[0], self._entry("0"))
        cache.put(keys[1], self._entry("1"))
        cache.get(keys[0])  # refresh key 0
        cache.put(keys[2], self._entry("2"))
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None

    def test_generation_in_key_separates_entries(self):
        cache = ResponseCache(4)
        cache.put(("/r", (), 0), self._entry("old"))
        cache.put(("/r", (), 1), self._entry("new"))
        assert cache.get(("/r", (), 0)).body == b"old"
        assert cache.get(("/r", (), 1)).body == b"new"

    def test_retain_drops_other_tokens_and_counts_them(self):
        cache = ResponseCache(8)
        for token in ("1.aa", "2.aa"):
            for route in ("/a", "/b"):
                cache.put((route, (), token), self._entry(route + token))
        before = cache.stats()
        cache.retain("2.aa")
        after = cache.stats()
        assert set(after) == set(before)  # the index route's shape
        assert after["entries"] == 2
        assert after["evictions"] == before["evictions"] + 2
        assert cache.get(("/a", (), "1.aa")) is None
        assert cache.get(("/b", (), "2.aa")).body == b"/b2.aa"
        cache.put(("/late", (), "1.aa"), self._entry("late"))  # harmless
        cache.retain("2.aa")
        assert cache.stats()["entries"] == 2

    def test_clear(self):
        cache = ResponseCache(4)
        cache.put(("/r", (), 0), self._entry("x"))
        cache.clear()
        assert len(cache) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ResponseCache(0)

    def test_etag_tracks_body_and_generation(self):
        assert make_etag(b"a", 1) == make_etag(b"a", 1)
        assert make_etag(b"a", 1) != make_etag(b"b", 1)
        assert make_etag(b"a", 1) != make_etag(b"a", 2)


@pytest.fixture(scope="module")
def served_store(tmp_path_factory):
    """A store with alarms, its writer, and a live HTTP server."""
    directory = tmp_path_factory.mktemp("http") / "store"
    mapper = make_mapper()
    bins = synthetic_bins(6, seed=13)
    build_store(directory, bins, mapper, chunk=2)
    # token_ttl=0: every request probes the manifest, so an append is
    # visible to the very next request.
    with AsyncServerThread(directory, window_bins=4, token_ttl=0) as server:
        yield {
            "base": f"http://127.0.0.1:{server.port}",
            "state": server.service.state,
            "directory": directory,
            "mapper": mapper,
            "bins": bins,
        }


def _get(url: str, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.headers), response.read()


class TestRoutes:
    def test_health_matches_engine(self, served_store):
        query = StoreQuery(served_store["directory"], window_bins=4)
        asn = query.monitored_asns()[0]
        status, headers, body = _get(f"{served_store['base']}/health/{asn}")
        assert status == 200
        payload = json.loads(body)
        condition = query.as_condition(asn)
        assert payload["asn"] == asn
        assert payload["delay_alarm_count"] == condition.delay_alarm_count
        assert payload["peak_delay_magnitude"] == (
            condition.peak_delay_magnitude
        )
        assert payload["healthy"] == condition.healthy

    def test_health_accepts_as_prefix(self, served_store):
        status, _, body = _get(f"{served_store['base']}/health/AS65001")
        assert status == 200
        assert json.loads(body)["asn"] == 65001

    def test_unknown_as_is_healthy(self, served_store):
        status, _, body = _get(f"{served_store['base']}/health/99999")
        assert status == 200
        payload = json.loads(body)
        assert payload["healthy"] is True
        assert payload["delay_alarm_count"] == 0

    def test_links_route(self, served_store):
        query = StoreQuery(served_store["directory"], window_bins=4)
        asn = query.monitored_asns()[0]
        status, _, body = _get(f"{served_store['base']}/links/{asn}")
        assert status == 200
        payload = json.loads(body)
        expected = query.links_of(asn)
        assert len(payload) == len(expected)
        if expected:
            assert payload[0]["link"] == list(expected[0].link)
            assert payload[0]["alarm_count"] == expected[0].alarm_count

    def test_events_route(self, served_store):
        status, _, body = _get(
            f"{served_store['base']}/events?kind=delay&threshold=0.5&limit=3"
        )
        assert status == 200
        payload = json.loads(body)
        assert len(payload) <= 3
        query = StoreQuery(served_store["directory"], window_bins=4)
        expected = query.top_events("delay", 0.5, 3)
        assert payload == [
            {
                "asn": e.asn, "timestamp": e.timestamp,
                "magnitude": e.magnitude, "kind": e.kind,
            }
            for e in expected
        ]

    def test_events_route_with_range(self, served_store):
        status, _, body = _get(
            f"{served_store['base']}/events"
            f"?kind=delay&threshold=0.5&limit=50&start=0&end=7200"
        )
        assert status == 200
        assert all(
            0 <= event["timestamp"] < 7200 for event in json.loads(body)
        )

    def test_top_route(self, served_store):
        status, _, body = _get(f"{served_store['base']}/top?kind=delay&k=2")
        assert status == 200
        payload = json.loads(body)
        query = StoreQuery(served_store["directory"], window_bins=4)
        assert payload == [
            {"asn": asn, "magnitude": magnitude}
            for asn, magnitude in query.top_asns("delay", 2)
        ]

    def test_index_route(self, served_store):
        status, _, body = _get(served_store["base"] + "/")
        assert status == 200
        payload = json.loads(body)
        assert payload["store"]["n_segments"] >= 1
        assert "cache" in payload and "routes" in payload

    def test_unknown_route_404(self, served_store):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(served_store["base"] + "/nonsense")
        assert excinfo.value.code == 404

    def test_bad_params_400(self, served_store):
        for url in (
            "/events?kind=bogus",
            "/events?threshold=-1",
            "/events?limit=nope",
            "/top?k=-2",
            "/health/notanumber",
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(served_store["base"] + url)
            assert excinfo.value.code == 400, url


class TestCachingBehaviour:
    def test_repeat_request_hits_cache(self, served_store):
        cache = served_store["state"].cache
        url = f"{served_store['base']}/top?kind=forwarding&k=3"
        _get(url)
        hits_before = cache.stats()["hits"]
        _, headers1, body1 = _get(url)
        _, headers2, body2 = _get(url)
        assert body1 == body2
        assert headers1["ETag"] == headers2["ETag"]
        assert cache.stats()["hits"] >= hits_before + 2

    def test_if_none_match_revalidates_304(self, served_store):
        url = f"{served_store['base']}/events?kind=delay&threshold=0.5"
        _, headers, _ = _get(url)
        etag = headers["ETag"]
        request = urllib.request.Request(
            url, headers={"If-None-Match": etag}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 304
        assert excinfo.value.read() == b""
        assert excinfo.value.headers["ETag"] == etag

    def test_append_invalidates_cache(self, served_store):
        """A writer publishing a new generation changes the answers."""
        url = served_store["base"] + "/"
        _, _, before = _get(url)
        generation_before = json.loads(before)["store"]["generation"]
        writer = AlarmStoreWriter.open_or_create(
            served_store["directory"], served_store["mapper"], bin_s=3600
        )
        extra = synthetic_bins(8, seed=14)[len(served_store["bins"]):]
        assert writer.append_bins(extra) == len(extra)
        _, _, after = _get(url)
        assert json.loads(after)["store"]["generation"] > generation_before
        # A cached per-AS answer is refreshed too: its ETag embeds the
        # new epoch-qualified generation token.
        asn_url = f"{served_store['base']}/health/65001"
        _, headers, _ = _get(asn_url)
        token = served_store["state"].engine.cache_token
        assert token.startswith(
            f"{json.loads(after)['store']['generation']}."
        )
        assert f"g{token}-" in headers["ETag"]


    def test_token_change_purges_superseded_entries(self, tmp_path):
        """Keys carry the token and lookups only use the current one:
        after a bump the old entries are unreachable, so they go."""
        mapper = make_mapper()
        bins = synthetic_bins(8, seed=17)
        writer = build_store(tmp_path / "store", bins[:6], mapper, chunk=2)
        state = ServiceState(
            StoreQuery(tmp_path / "store", window_bins=4), ResponseCache(64)
        )
        targets = [("/health/65001", {}), ("/top", {"k": "3"}), ("/events", {})]
        for route, params in targets:
            state.respond(route, params)
        old_token = state.token()
        assert state.cache.stats()["entries"] == 3
        writer.append_bins(bins[6:])
        evictions = state.cache.stats()["evictions"]
        new_token = state.token()  # the bump is observed here
        assert new_token != old_token
        stats = state.cache.stats()
        assert stats["entries"] == 0
        assert stats["evictions"] == evictions + 3
        for route, params in targets:
            assert state.answer(route, params)[1] == "miss"
            assert state.answer(route, params)[1] == "hit"
        assert state.cache.stats()["entries"] == 3


class TestStrictValidation:
    """The ISSUE 9 validation bugfix: ``int()``/``float()`` leniency.

    Bare ``float()`` accepts ``nan``/``inf`` (NaN even passes a
    ``<= 0`` positivity check) and bare ``int()`` accepts ``1_0``,
    whitespace and ``+`` signs — aliasing equal queries to distinct
    cache keys.  Every spelling below must be rejected with the exact
    message clients will see.
    """

    def test_float_rejections_exact(self):
        for raw in ("nan", "inf", "-inf", "Infinity", "1_0.5", " 1.5",
                    "+1.5", "0x5", "1e", ""):
            with pytest.raises(_BadRequest) as excinfo:
                _float_param({"threshold": raw}, "threshold", 5.0)
            assert str(excinfo.value) == (
                f"parameter 'threshold' must be a number: {raw!r}"
            ), raw

    def test_float_overflow_spelling_rejected_as_non_finite(self):
        # "1e999" passes the grammar but overflows float() to inf.
        with pytest.raises(_BadRequest) as excinfo:
            _float_param({"threshold": "1e999"}, "threshold", 5.0)
        assert str(excinfo.value) == (
            "parameter 'threshold' must be finite: '1e999'"
        )

    def test_float_accepts_plain_spellings(self):
        for raw, value in (("0.5", 0.5), ("-2", -2.0), ("1e3", 1000.0),
                           (".5", 0.5), ("5.", 5.0), ("1.5E-2", 0.015)):
            assert _float_param({"x": raw}, "x", 0.0) == value

    def test_int_rejections_exact(self):
        for raw in ("1_0", " 10", "10 ", "+5", "0x5", "nope", "1.0", ""):
            with pytest.raises(_BadRequest) as excinfo:
                _int_param({"limit": raw}, "limit", 10)
            assert str(excinfo.value) == (
                f"parameter 'limit' must be an integer: {raw!r}"
            ), raw

    def test_int_accepts_plain_spellings(self):
        for raw, value in (("10", 10), ("-3", -3), ("0", 0)):
            assert _int_param({"x": raw}, "x", 99) == value

    def test_asn_rejections_exact(self):
        for raw in ("+5", " 5", "5 ", "5_0", "-1", "AS+5", "4.2", "AS", ""):
            with pytest.raises(_BadRequest) as excinfo:
                _asn_of(raw)
            assert str(excinfo.value) == f"bad ASN: {raw!r}", raw

    def test_asn_accepts_any_prefix_case(self):
        assert _asn_of("65001") == 65001
        assert _asn_of("AS65001") == 65001
        assert _asn_of("as65001") == 65001

    def test_http_400_bodies_are_exact(self, served_store):
        expectations = {
            "/events?threshold=nan":
                "parameter 'threshold' must be a number: 'nan'",
            "/events?threshold=inf":
                "parameter 'threshold' must be a number: 'inf'",
            "/events?threshold=1e999":
                "parameter 'threshold' must be finite: '1e999'",
            "/events?limit=1_0":
                "parameter 'limit' must be an integer: '1_0'",
            "/events?limit=%201":
                "parameter 'limit' must be an integer: ' 1'",
            "/top?k=%2B2":
                "parameter 'k' must be an integer: '+2'",
            "/health/%2B5": "bad ASN: '%2B5'",
            "/health?asns=65001,,65002": "bad ASN: ''",
            "/health": (
                "parameter 'asns' is required (e.g. /health?asns=1,2,3)"
            ),
            "/top?kinds=delay,bogus": (
                "parameter 'kinds' must be 'delay' or 'forwarding': 'bogus'"
            ),
        }
        for url, message in expectations.items():
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(served_store["base"] + url)
            assert excinfo.value.code == 400, url
            assert json.loads(excinfo.value.read())["error"] == message, url

    def test_batch_size_limit(self, served_store):
        url = "/health?asns=" + ",".join(["65001"] * 101)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(served_store["base"] + url)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"] == (
            "parameter 'asns' lists 101 ASNs (limit 100)"
        )


class TestIfNoneMatchRfc:
    """RFC 9110 §13.1.2: lists, ``*`` and weak tags all revalidate."""

    def test_header_parsing_unit(self):
        etag = '"g3.abc-def"'
        assert not if_none_match_matches(None, etag)
        assert if_none_match_matches(etag, etag)
        assert if_none_match_matches(f'"other", {etag}', etag)
        assert if_none_match_matches(f'"other" , {etag} ', etag)
        assert if_none_match_matches("*", etag)
        assert if_none_match_matches(" * ", etag)
        assert if_none_match_matches(f"W/{etag}", etag)
        assert if_none_match_matches(f'"a", W/{etag}, "b"', etag)
        assert not if_none_match_matches('"other"', etag)
        assert not if_none_match_matches('"a", "b"', etag)

    def _expect_304(self, url, header):
        request = urllib.request.Request(
            url, headers={"If-None-Match": header}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 304, header

    def test_list_star_and_weak_forms_over_http(self, served_store):
        url = f"{served_store['base']}/top?kind=delay&k=2"
        _, headers, _ = _get(url)
        etag = headers["ETag"]
        self._expect_304(url, etag)
        self._expect_304(url, f'"stale", {etag}')
        self._expect_304(url, "*")
        self._expect_304(url, f"W/{etag}")
        status, _, _ = _get(url, headers={"If-None-Match": '"stale"'})
        assert status == 200


class _AmbushCache(ResponseCache):
    """A cache whose probe triggers a store append (race injection).

    ``ServiceState.respond`` reads the generation token, probes the
    cache, and computes on a miss.  Arming this cache makes a writer
    publish a new generation *between* the token read and the compute —
    exactly the window of the ISSUE 9 coherence race.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.ambush = None

    def get(self, key):
        entry = super().get(key)
        if self.ambush is not None:
            ambush, self.ambush = self.ambush, None
            ambush()
        return entry


class TestCoherenceRace:
    """Regression: token and payload under one lock acquisition."""

    def test_append_between_token_and_compute_stays_coherent(self, tmp_path):
        directory = tmp_path / "store"
        mapper = make_mapper()
        bins = synthetic_bins(8, seed=47)
        writer = build_store(directory, bins[:6], mapper, chunk=2)
        cache = _AmbushCache(8)
        state = ServiceState(StoreQuery(directory, window_bins=4), cache)
        token_before = state.token()
        cache.ambush = lambda: writer.append_bins(bins[6:])
        route, params = "/health/65001", {}
        entry = state.respond(route, params)
        token_after = read_manifest(directory).token
        assert token_after != token_before
        # The body was computed at the post-append generation, so its
        # ETag and cache key must both carry the *new* token: a stale
        # ETag over a fresh body (the old bug) would let clients
        # revalidate into never seeing the new generation.
        assert f"g{token_after}-" in entry.etag
        assert cache.get(state.cache_key(route, params, token_before)) is None
        cached = cache.get(state.cache_key(route, params, token_after))
        assert cached is not None and cached.etag == entry.etag
        # And the bytes really are the new generation's answer.
        fresh = ServiceState(
            StoreQuery(directory, window_bins=4), ResponseCache(4)
        )
        fresh_entry = fresh.compute(route, params)
        assert entry.body == fresh_entry.body
        assert entry.etag == fresh_entry.etag

    def test_pinned_engine_never_mixes_generations(self, tmp_path):
        directory = tmp_path / "store"
        mapper = make_mapper()
        bins = synthetic_bins(8, seed=53)
        writer = build_store(directory, bins[:6], mapper, chunk=2)
        engine = StoreQuery(directory, window_bins=4)
        engine.refresh()
        token_before = engine.cache_token
        before = engine.top_asns("delay", 5)
        with engine.pinned():
            writer.append_bins(bins[6:])
            # Mid-request queries stay at the pinned generation even
            # though each public method normally refreshes first.
            assert engine.cache_token == token_before
            assert engine.top_asns("delay", 5) == before
        engine.refresh()
        assert engine.cache_token != token_before


class TestUnavailableStore:
    """503s must advertise their backoff, not just fail (PR 7)."""

    def test_503_carries_retry_after_header_and_body(self, tmp_path):
        from repro.service.routes import RETRY_AFTER_S
        from repro.service.store import MANIFEST_NAME

        directory = tmp_path / "store"
        build_store(directory, synthetic_bins(4, seed=13), make_mapper())
        with AsyncServerThread(
            directory, window_bins=4, token_ttl=0
        ) as server:
            base = f"http://127.0.0.1:{server.port}"
            status, _, _ = _get(f"{base}/health/65001")
            assert status == 200
            # Corrupt the manifest: the next refresh() raises
            # StoreError, which the server renders as an advertised,
            # retryable 503.
            manifest = directory / MANIFEST_NAME
            blob = bytearray(manifest.read_bytes())
            blob[len(blob) // 2] ^= 0x01
            manifest.write_bytes(bytes(blob))
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/health/65001")
            error = excinfo.value
            assert error.code == 503
            assert error.headers["Retry-After"] == str(RETRY_AFTER_S)
            payload = json.loads(error.read())
            assert payload["retry_after"] == RETRY_AFTER_S
            assert "store unavailable" in payload["error"]
            # The connector layer's own parser accepts what we emit.
            from repro.atlas.connectors import parse_retry_after

            assert parse_retry_after(
                error.headers["Retry-After"]
            ) == float(RETRY_AFTER_S)

    def test_healthy_responses_have_no_retry_after(self, served_store):
        status, headers, _ = _get(f"{served_store['base']}/health/65001")
        assert status == 200
        assert "Retry-After" not in headers
