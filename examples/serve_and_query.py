#!/usr/bin/env python
"""Ingest a scenario, persist its alarms, serve them over HTTP (§8).

The paper's deployment pairs the detection pipeline with the Internet
Health Report website/API so operators can watch the ASes they care
about.  This example is that whole loop, offline:

1. simulate a DDoS campaign and run the detection pipeline,
2. export every alarm and per-AS severity event into the persistent
   alarm store (:mod:`repro.service.store`),
3. start the HTTP server over the store and query it like an
   operator would — per-AS health, top anomalous ASes, events, link
   drill-down — including an ETag revalidation round trip,
4. show that the served answers equal the in-memory
   :class:`~repro.reporting.InternetHealthReport` on the same campaign,
5. compact the store's segments down
   (:func:`~repro.service.compact.compact_store`, the maintenance pass
   behind ``repro compact``) and show every answer survives the
   rewrite bit-identically.

Run:  python examples/serve_and_query.py
"""

import json
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

from repro.core import analyze_campaign
from repro.reporting import InternetHealthReport, format_table
from repro.service import (
    AsyncServerThread,
    CompactionPolicy,
    StoreQuery,
    append_analysis,
    compact_store,
)
from repro.simulation import (
    AtlasPlatform,
    CampaignConfig,
    DdosScenario,
    TopologyParams,
    build_topology,
)

EVENT = (6 * 3600, 8 * 3600)
WINDOW_BINS = 4


def build_analysis():
    """A 12-hour campaign with a two-hour DDoS against K-root."""
    topology = build_topology(TopologyParams(n_probes=60), seed=9)
    kroot = topology.services["K-root"]
    scenario = DdosScenario(
        topology, "K-root", [kroot.instances[0].node], windows=[EVENT],
        seed=1,
    )
    platform = AtlasPlatform(topology, scenario=scenario, seed=3)
    traceroutes = platform.run_campaign(
        CampaignConfig(duration_s=12 * 3600)
    )
    return analyze_campaign(traceroutes, platform.as_mapper())


def get(url, etag=None):
    """One GET against the local API; returns (status, etag, payload)."""
    headers = {"If-None-Match": etag} if etag else {}
    request = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(request) as response:
            return (
                response.status,
                response.headers.get("ETag"),
                json.loads(response.read() or b"null"),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("ETag"), None


def main() -> None:
    """Run the ingest → store → serve → query loop end to end."""
    print("simulating and analyzing a 12h DDoS campaign ...")
    analysis = build_analysis()
    report = InternetHealthReport(analysis, window_bins=WINDOW_BINS)

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "alarms.store"
        writer = append_analysis(store_path, analysis, segment_bins=1)
        print(
            f"alarm store: {len(analysis.bin_results)} bins in "
            f"{len(writer.manifest.segments)} segments "
            f"(generation {writer.generation})"
        )

        with AsyncServerThread(
            store_path, window_bins=WINDOW_BINS
        ) as server:
            base = f"http://127.0.0.1:{server.port}"
            print(f"serving on {base}\n")

            _, _, top = get(f"{base}/top?kind=delay&k=5")
            print("GET /top?kind=delay&k=5")
            print(
                format_table(
                    ["AS", "peak magnitude"],
                    [
                        [f"AS{row['asn']}", f"{row['magnitude']:+.1f}"]
                        for row in top
                    ],
                )
            )
            worst = top[0]["asn"]

            status, etag, health = get(f"{base}/health/{worst}")
            print(f"\nGET /health/{worst} -> {status}")
            print(json.dumps(health, indent=2, sort_keys=True))
            status, _, _ = get(f"{base}/health/{worst}", etag=etag)
            print(f"revalidation with If-None-Match -> {status} (cached)")

            _, _, events = get(
                f"{base}/events?kind=delay&threshold=2.0&limit=3"
            )
            print(f"\nGET /events?kind=delay&threshold=2.0&limit=3")
            for event in events:
                print(
                    f"  AS{event['asn']} hour "
                    f"{event['timestamp'] // 3600} magnitude "
                    f"{event['magnitude']:+.1f}"
                )

            _, _, links = get(f"{base}/links/{worst}")
            print(f"\nGET /links/{worst} ({len(links)} links)")
            for row in links[:3]:
                print(
                    f"  {row['link'][0]} -> {row['link'][1]}: "
                    f"{row['alarm_count']} alarms, peak deviation "
                    f"{row['peak_deviation']:.1f}"
                )

            # The served answers equal the in-memory report, bit for bit.
            query = StoreQuery(store_path, window_bins=WINDOW_BINS)
            assert query.monitored_asns() == report.monitored_asns()
            for asn in report.monitored_asns():
                assert query.as_condition(asn) == report.as_condition(asn)
            assert query.top_events("delay", 2.0, 5) == report.top_events(
                "delay", 2.0, 5
            )
            print(
                "\nstore answers == in-memory InternetHealthReport for "
                f"{len(report.monitored_asns())} ASes  [OK]"
            )
            print(f"cache: {server.service.state.cache.stats()}")

        # -- compaction: a long-lived store stays bounded ---------------
        # A monitor appends one segment per checkpoint forever; the
        # maintenance pass merges old segments without changing a
        # single answer (rows are copied verbatim in journal order).
        result = compact_store(store_path, CompactionPolicy(max_segments=1))
        print(
            f"\ncompacted: {result.segments_before} -> "
            f"{result.segments_after} segments ({result.merged} merged, "
            f"generation {result.generation}, "
            f"{result.bytes_before} -> {result.bytes_after} bytes)"
        )
        compacted = StoreQuery(store_path, window_bins=WINDOW_BINS)
        assert compacted.monitored_asns() == report.monitored_asns()
        for asn in report.monitored_asns():
            assert compacted.as_condition(asn) == report.as_condition(asn)
        assert compacted.top_events("delay", 2.0, 5) == report.top_events(
            "delay", 2.0, 5
        )
        print(
            "compacted store answers == in-memory InternetHealthReport  "
            "[OK]"
        )


if __name__ == "__main__":
    main()
