"""Serving-layer benchmark: hot IHR queries must not rebuild the report.

The alarm store exists so that operator queries (paper §8: the IHR
website/API) are answered from mmapped columns and per-generation
caches instead of re-scanning Python alarm objects.  This benchmark
holds three claims:

1. **equivalence** — every query the serving layer answers (per-AS
   health, link drill-down, top-K rankings, events, alarm retrieval) is
   bit-identical to :class:`InternetHealthReport` over the same
   campaign;
2. **speedup** — answering repeated per-AS queries from a warm
   :class:`StoreQuery` is **≥ 10x** faster than the naive baseline of
   rebuilding ``InternetHealthReport`` per query (what ``reporting/ihr``
   alone offers a long-running API process);
3. **service** — the live HTTP server (:mod:`repro.service.aio`)
   serves exactly the bodies and ETags an in-process
   :meth:`ServiceState.respond` computes, with response-cache hits and
   ETag revalidation observable, over one-connection-per-request
   clients and a pipelined keep-alive connection alike.

Serving *throughput* is held by the benchmark ledger's ``serve_hot``
and ``serve_churn`` workloads (``BENCHMARK.json``), not here; the
rates below are reported, never asserted.

Timings land in ``BENCH_serve.json`` at the repository root.  Set
``REPRO_BENCH_SMOKE=1`` (the CI smoke mode) to run a shortened campaign
and skip the speedup floors while keeping every equivalence assertion.
"""

from __future__ import annotations

import json
import os
import socket
import time
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import parse_qsl

import numpy as np

from repro.core import analyze_campaign
from repro.reporting import InternetHealthReport, format_table
from repro.service import (
    ResponseCache,
    ServiceState,
    StoreQuery,
    append_analysis,
)
from repro.service.aio import AsyncServerThread
from repro.simulation import (
    AtlasPlatform,
    CampaignConfig,
    CompositeScenario,
    DdosScenario,
    IxpOutageScenario,
    TopologyParams,
    build_topology,
)

#: CI smoke mode: shortened campaign, no speedup floor (equivalence only).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Campaign length in hours; events keep the equivalence non-vacuous.
DURATION_H = 5 if SMOKE else 8

#: Magnitude window (bins) for both the report and the store engine.
WINDOW_BINS = 4

#: Repeated per-AS queries for the naive-vs-warm comparison.
QUERY_ROUNDS = 20 if SMOKE else 120

#: Fresh-engine (cold) queries and sustained HTTP requests.
COLD_QUERIES = 5 if SMOKE else 20
HTTP_REQUESTS = 50 if SMOKE else 300

#: Hard floor on the warm-store speedup over per-query IHR rebuilds.
MIN_SPEEDUP = 10.0

#: Sustained requests over one pipelined keep-alive connection.
ASYNC_REQUESTS = 500 if SMOKE else 60_000

#: Requests put on the wire per pipelined batch.
PIPELINE_BATCH = 200

#: Machine-readable results land here.
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def _build_analysis():
    topology = build_topology(TopologyParams.case_study(), seed=1)
    kroot = topology.services["K-root"]
    outage_window = (4 * 3600, 5 * 3600) if SMOKE else (5 * 3600, 6 * 3600)
    ddos_windows = (
        [(4 * 3600, 5 * 3600)] if SMOKE else [(6 * 3600, 8 * 3600)]
    )
    scenario = CompositeScenario(
        [
            IxpOutageScenario(topology, ixp_asn=1200, window=outage_window),
            DdosScenario(
                topology,
                "K-root",
                [kroot.instances[0].node, kroot.instances[1].node],
                windows=ddos_windows,
                seed=3,
            ),
        ]
    )
    platform = AtlasPlatform(topology, scenario=scenario, seed=2)
    traceroutes = list(
        platform.run_campaign(CampaignConfig(duration_s=DURATION_H * 3600))
    )
    return analyze_campaign(traceroutes, platform.as_mapper())


def _assert_equivalent(report, query, bin_results) -> None:
    """The store must answer every IHR query bit-identically."""
    assert query.monitored_asns() == report.monitored_asns()
    for asn in report.monitored_asns() + [64512]:
        assert query.as_condition(asn) == report.as_condition(asn)
        assert query.links_of(asn) == report.links_of(asn)
        for kind in ("delay", "forwarding"):
            expected_ts, expected = report.magnitude_series(asn, kind)
            actual_ts, actual = query.magnitude_series(asn, kind)
            assert actual_ts == expected_ts
            assert np.array_equal(actual, expected)
    for kind in ("delay", "forwarding"):
        assert query.top_events(kind, 2.0, 50) == report.top_events(
            kind, 2.0, 50
        )
        assert query.top_asns(kind, 10) == report.top_asns(kind, 10)
        end = bin_results[-1].timestamp + 3600
        assert query.events_in(0, end, kind, 2.0) == report.events_in(
            0, end, kind, 2.0
        )
    for result in bin_results:
        assert query.alarms_at(result.timestamp) == report.alarms_at(
            result.timestamp
        )


def _http_get(url: str, etag=None):
    headers = {"If-None-Match": etag} if etag else {}
    request = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.headers.get("ETag"), (
                response.read()
            )
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("ETag"), error.read()


class _PipelineClient:
    """Raw keep-alive client that pipelines pre-rendered GET requests.

    The urllib measurement pays one TCP connection per request; the
    server is built for the opposite: persistent connections with many
    requests on the wire at once.  :meth:`warm`
    performs one request/response and records the exact wire size of
    the answer, so :meth:`sustain` can write whole batches and read the
    replies back with exact-length reads — no per-response parsing on
    the timed path.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")
        self._requests = {}
        self._lengths = {}

    def warm(self, target: str):
        """One request/response; returns (status, etag, body)."""
        request = f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
        self._requests[target] = request
        self.sock.sendall(request)
        total = 0
        line = self.file.readline()
        total += len(line)
        status = int(line.split()[1])
        etag = None
        length = 0
        while True:
            header = self.file.readline()
            total += len(header)
            if header in (b"\r\n", b"\n"):
                break
            name, _, value = header.decode("latin-1").partition(":")
            lowered = name.strip().lower()
            if lowered == "content-length":
                length = int(value)
            elif lowered == "etag":
                etag = value.strip()
        body = self.file.read(length)
        total += length
        self._lengths[target] = total
        return status, etag, body

    def sustain(self, targets, n_requests: int, batch_size: int) -> float:
        """Pipeline *n_requests* cycling *targets*; returns seconds.

        Every target must have been :meth:`warm`\\ ed (responses on the
        cache-hit path are byte-stable, so their wire sizes are too).
        """
        requests = [self._requests[target] for target in targets]
        lengths = [self._lengths[target] for target in targets]
        k = len(targets)
        sent = 0
        t0 = time.perf_counter()
        while sent < n_requests:
            n = min(batch_size, n_requests - sent)
            batch = b"".join(
                requests[(sent + j) % k] for j in range(n)
            )
            expected = sum(lengths[(sent + j) % k] for j in range(n))
            self.sock.sendall(batch)
            data = self.file.read(expected)
            assert len(data) == expected, "short read from the server"
            sent += n
        return time.perf_counter() - t0

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def test_serve_speedup_and_throughput(benchmark, tmp_path):
    """Measure naive/cold/warm/HTTP query paths; assert the hard claims."""
    analysis = _build_analysis()
    assert analysis.delay_alarms and analysis.forwarding_alarms, (
        "campaign produced no alarms; the benchmark would be vacuous"
    )
    report = InternetHealthReport(analysis, window_bins=WINDOW_BINS)
    store_path = tmp_path / "alarms.store"
    writer = append_analysis(store_path, analysis, segment_bins=2)
    engine = StoreQuery(store_path, window_bins=WINDOW_BINS)
    _assert_equivalent(report, engine, analysis.bin_results)
    asns = report.monitored_asns()

    # -- naive baseline: rebuild the in-memory report per query ----------
    t0 = time.perf_counter()
    for index in range(QUERY_ROUNDS):
        fresh = InternetHealthReport(analysis, window_bins=WINDOW_BINS)
        fresh.as_condition(asns[index % len(asns)])
    naive_s = time.perf_counter() - t0

    # -- cold store queries: fresh engine (manifest + segments) each -----
    t0 = time.perf_counter()
    for index in range(COLD_QUERIES):
        StoreQuery(store_path, window_bins=WINDOW_BINS).as_condition(
            asns[index % len(asns)]
        )
    cold_s = time.perf_counter() - t0

    # -- warm store queries: one long-lived engine ----------------------
    engine.as_condition(asns[0])  # prime the generation caches
    t0 = time.perf_counter()
    for index in range(QUERY_ROUNDS):
        engine.as_condition(asns[index % len(asns)])
    warm_s = time.perf_counter() - t0
    speedup = (naive_s / QUERY_ROUNDS) / (warm_s / QUERY_ROUNDS)

    # -- live HTTP service ----------------------------------------------
    # Every body and ETag on the wire must equal what an independent
    # in-process ServiceState answers from the same store.
    oracle = ServiceState(
        StoreQuery(store_path, window_bins=WINDOW_BINS), ResponseCache(64)
    )
    targets = [f"/health/{asn}" for asn in asns]
    targets += ["/top?kind=delay&k=5", "/events?threshold=2.0"]
    expected = {}
    for target in targets:
        path, _, query = target.partition("?")
        entry = oracle.respond(path, dict(parse_qsl(query)))
        assert entry.status == 200, target
        expected[target] = (200, entry.etag, entry.body)
    with AsyncServerThread(store_path, window_bins=WINDOW_BINS) as server:
        base = f"http://127.0.0.1:{server.port}"
        t0 = time.perf_counter()
        for target in targets:  # first touch: uncached (engine computes)
            assert _http_get(base + target) == expected[target], target
        uncached_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for index in range(HTTP_REQUESTS):  # steady state: cache hits
            status, _, _ = _http_get(base + targets[index % len(targets)])
            assert status == 200
        cached_s = time.perf_counter() - t0
        status, _, body = _http_get(
            base + targets[0], etag=expected[targets[0]][1]
        )
        assert status == 304 and body == b""
        cache_stats = server.service.state.cache.stats()
        assert cache_stats["hits"] >= HTTP_REQUESTS

        # Pipelined keep-alive over one connection: the same bytes,
        # then the sustained rate.
        client = _PipelineClient(server.port)
        try:
            for target in targets:
                assert client.warm(target) == expected[target], target
            hits_before = server.service.hits
            async_s = client.sustain(
                targets, ASYNC_REQUESTS, PIPELINE_BATCH
            )
        finally:
            client.close()
        assert server.service.hits - hits_before == ASYNC_REQUESTS
    requests_per_s = HTTP_REQUESTS / cached_s
    async_rps = ASYNC_REQUESTS / async_s

    # One canonical pytest-benchmark measurement: a warm per-AS query.
    benchmark.pedantic(
        lambda: engine.as_condition(asns[0]), rounds=1, iterations=1
    )

    mode = "smoke" if SMOKE else "full"
    print(
        f"\n=== serving layer ({DURATION_H}h campaign, "
        f"{len(asns)} monitored ASes, generation "
        f"{writer.generation}, {mode}) ==="
    )
    print(
        format_table(
            ["query path", "queries", "total s", "per query ms"],
            [
                ["rebuild IHR per query", QUERY_ROUNDS, f"{naive_s:.3f}",
                 f"{1000 * naive_s / QUERY_ROUNDS:.3f}"],
                ["store, cold engine", COLD_QUERIES, f"{cold_s:.3f}",
                 f"{1000 * cold_s / COLD_QUERIES:.3f}"],
                ["store, warm engine", QUERY_ROUNDS, f"{warm_s:.3f}",
                 f"{1000 * warm_s / QUERY_ROUNDS:.3f}"],
                ["HTTP, first touch", len(targets), f"{uncached_s:.3f}",
                 f"{1000 * uncached_s / len(targets):.3f}"],
                ["HTTP, cached", HTTP_REQUESTS, f"{cached_s:.3f}",
                 f"{1000 * cached_s / HTTP_REQUESTS:.3f}"],
                ["HTTP, pipelined", ASYNC_REQUESTS, f"{async_s:.3f}",
                 f"{1000 * async_s / ASYNC_REQUESTS:.3f}"],
            ],
        )
    )
    print(
        f"repeated-query speedup: {speedup:.1f}x (floor "
        f"{MIN_SPEEDUP:.0f}x), HTTP {requests_per_s:.0f} req/s per-"
        f"connection, {async_rps:.0f} req/s pipelined, cache hits "
        f"{cache_stats['hits']}/{cache_stats['hits'] + cache_stats['misses']}"
    )

    payload = {
        "campaign_hours": DURATION_H,
        "smoke": SMOKE,
        "monitored_asns": len(asns),
        "store_generation": writer.generation,
        "query_rounds": QUERY_ROUNDS,
        "naive_s": naive_s,
        "naive_per_query_ms": 1000 * naive_s / QUERY_ROUNDS,
        "cold_queries": COLD_QUERIES,
        "cold_s": cold_s,
        "cold_per_query_ms": 1000 * cold_s / COLD_QUERIES,
        "warm_s": warm_s,
        "warm_per_query_ms": 1000 * warm_s / QUERY_ROUNDS,
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "http_requests": HTTP_REQUESTS,
        "http_uncached_per_request_ms": 1000 * uncached_s / len(targets),
        "http_cached_per_request_ms": 1000 * cached_s / HTTP_REQUESTS,
        "http_requests_per_s": requests_per_s,
        "http_cache": cache_stats,
        "async_requests": ASYNC_REQUESTS,
        "async_s": async_s,
        "async_per_request_ms": 1000 * async_s / ASYNC_REQUESTS,
        "async_requests_per_s": async_rps,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")

    # Hard claim 2: >= 10x (skipped in smoke mode, where the campaign is
    # too short for stable timings).
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"warm store speedup {speedup:.1f}x fell below the "
            f"{MIN_SPEEDUP:.0f}x floor (naive {naive_s:.3f}s, "
            f"warm {warm_s:.3f}s over {QUERY_ROUNDS} queries)"
        )
