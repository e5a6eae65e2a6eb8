#!/usr/bin/env python
"""Fetching live Atlas data — the whole story, run offline (paper §3/§8).

The paper's system ingests public RIPE Atlas traceroutes over the
Internet, where requests get dropped, rate-limited, 503'd and cut off
mid-body.  This example drives the fault-tolerant connector layer
(:mod:`repro.atlas.connectors`) through exactly those conditions with
zero network access:

1. a synthetic campaign becomes a recorded, paginated "Atlas API"
   fixture served by :class:`ScriptedTransport`;
2. a fetch through a 30 %-fault schedule (drops, 429s with
   ``Retry-After``, flapping 5xx, truncated bodies) absorbs every
   burst within its retry budget;
3. the fetch is killed at a page boundary and resumed through its
   durable cursor — exactly-once, byte-identical to a locally written
   feed;
4. a probe-metadata dump becomes an ASN→probe map, then the API "goes
   down" and the connector degrades to its stale cache;
5. the fetched feed runs through the normal streaming detection loop.

Run:  python examples/fetch_and_monitor.py
"""

import tempfile
from pathlib import Path

from repro.atlas import (
    TracerouteStream,
    read_traceroutes,
    write_traceroutes,
)
from repro.atlas.connectors import (
    Fault,
    FaultSchedule,
    FaultTolerantClient,
    RetryPolicy,
    ScriptedTransport,
    asn_probe_map,
    fetch_probes,
    fetch_results,
    paged_results_fixture,
    probe_dump_fixture,
)
from repro.core import Engine
from repro.simulation import (
    AtlasPlatform,
    CampaignConfig,
    TopologyParams,
    build_topology,
)

MSM = 5051
BASE_URL = "https://atlas.example/api/v2"
META_URL = "https://ftp.example/ripe/atlas/probes/archive/meta-latest"


def make_client(pages, faults=None, max_attempts=8):
    """A connector client over the scripted transport (sleeps skipped)."""
    return FaultTolerantClient(
        transport=ScriptedTransport(pages, faults=faults),
        policy=RetryPolicy(max_attempts=max_attempts, seed=7),
        sleep=lambda _s: None,  # don't actually wait in a demo
    )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-fetch-"))

    # -- 1. record a paginated "Atlas API" from a simulated campaign --
    topology = build_topology(TopologyParams(n_probes=40), seed=5)
    platform = AtlasPlatform(topology, seed=2)
    campaign = list(
        platform.run_campaign(CampaignConfig(duration_s=6 * 3600))
    )
    pages = paged_results_fixture(
        campaign, MSM, page_size=200, base_url=BASE_URL
    )
    reference = workdir / "reference.jsonl"
    write_traceroutes(reference, campaign)
    print(
        f"recorded fixture: {len(campaign)} traceroutes across "
        f"{len(pages)} API pages"
    )

    # -- 2 + 3. fetch through faults, crash at a page boundary, resume --
    faults = FaultSchedule.seeded(seed=11, rate=0.3)
    out = workdir / "fetched.jsonl"
    cursor = workdir / "fetched.cursor"
    client = make_client(pages, faults=faults)
    first = fetch_results(
        client, MSM, out, cursor_path=cursor,
        base_url=BASE_URL, page_size=200,
        max_pages=2,  # "crash" after two pages
    )
    print(
        f"fetch leg 1: {first.pages} pages / {first.records} traceroutes, "
        f"then killed; transport took {client.stats.attempts} attempts "
        f"for {client.stats.requests} requests "
        f"({client.stats.retries} retries absorbed)"
    )
    client = make_client(pages, faults=FaultSchedule.seeded(seed=12, rate=0.3))
    second = fetch_results(
        client, MSM, out, cursor_path=cursor,
        base_url=BASE_URL, page_size=200,
    )
    assert second.resumed and second.completed
    assert out.read_bytes() == reference.read_bytes()
    print(
        f"fetch leg 2: resumed, {second.pages} more pages — output is "
        "byte-identical to the locally written feed (exactly-once)"
    )

    # -- 4. probe metadata, then stale-but-serving degradation --
    raw_probes = [
        {"id": 100 + i, "status_id": 1, "is_public": True,
         "asn_v4": 65001 + i % 3, "prefix_v4": f"10.{i}.0.0/16"}
        for i in range(9)
    ] + [{"id": 999, "status_id": 2, "is_public": True, "asn_v4": 65009}]
    meta_pages = {META_URL: probe_dump_fixture(raw_probes, compress=True)}
    cache = workdir / "probes.cache"
    live = fetch_probes(
        make_client(meta_pages), url=META_URL, cache_path=cache
    )
    mapping = asn_probe_map(list(live.probes))
    print(
        f"probe map: {len(live.probes)}/{live.total_in_dump} probes "
        f"usable across {len(mapping)} ASNs (stale={live.stale})"
    )
    outage = FaultSchedule({i: Fault(kind="drop") for i in range(100)})
    degraded = fetch_probes(
        make_client(meta_pages, faults=outage, max_attempts=3),
        url=META_URL,
        cache_path=cache,
    )
    assert degraded.stale and len(degraded.probes) == len(live.probes)
    print("API down: served the cached probe set flagged stale=True")

    # -- 5. the fetched feed through the normal detection loop --
    engine = Engine()
    stream = TracerouteStream(bin_s=3600, dense=True)
    bins = delay_alarms = forwarding_alarms = 0
    results = []
    for traceroute in read_traceroutes(out):
        results.extend(stream.push(traceroute))
    results.extend(stream.drain())
    for start, payload in results:
        result = engine.process_bin(start, payload)
        bins += 1
        delay_alarms += len(result.delay_alarms)
        forwarding_alarms += len(result.forwarding_alarms)
    stats = engine.stats()
    print(
        f"monitored the fetched feed: {bins} bins, "
        f"{stats.links_analyzed} link-bins analyzed, "
        f"{delay_alarms} delay alarms, "
        f"{forwarding_alarms} forwarding alarms"
    )


if __name__ == "__main__":
    main()
