#!/usr/bin/env python3
"""Observability smoke test: boot the HTTP server and scrape it.

CI's end-to-end check for the :mod:`repro.obs` surface.  It builds a
tiny campaign with an injected DDoS event with the CLI, publishes an
alarm store, then:

1. boots the server as a real ``python -m repro serve`` subprocess;
2. scrapes ``/metrics`` and checks the Content-Type, parses the body
   with the strict parser (:func:`repro.obs.expo.parse_text`) and
   re-checks every scrape invariant (:func:`~repro.obs.expo.validate`),
   including the standard ``process_*`` footprint families;
3. fetches ``/statusz`` and checks the progress document shape;
4. issues one real query (``/top?kind=delay``) and confirms a second
   scrape shows the request counter moved;
5. fetches ``/links/{busiest AS}``, ``/top`` and ``/events`` and checks
   each body against an in-process ``ServiceState.respond``;
6. appends one bin behind the server's back that alarms the busiest
   AS's top link again, repeats step 5 (the link's count must have
   grown by one) and confirms the query engine *extended* its derived
   state, link aggregates included (the ``repro_query_sync_*`` /
   ``repro_store_manifest_reads_total`` families are present and say
   so).

Exit code 0 on success, 1 with the failed check's traceback otherwise.

Usage::

    python tools/obs_smoke.py [--keep DIR]

Run via ``make obs-smoke``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import BinResult  # noqa: E402
from repro.net import AsMapper  # noqa: E402
from repro.obs.expo import parse_text, validate  # noqa: E402
from repro.service import (  # noqa: E402
    AlarmStoreWriter,
    ResponseCache,
    ServiceState,
    StoreQuery,
)

#: Seconds to wait for the freshly booted server to answer.
BOOT_TIMEOUT_S = 20.0

PORT = 8181

#: The standard footprint families every scrape must carry.
PROCESS_FAMILIES = {
    "process_cpu_seconds_total": "counter",
    "process_open_fds": "gauge",
    "process_resident_memory_bytes": "gauge",
    "process_start_time_seconds": "gauge",
    "process_virtual_memory_bytes": "gauge",
}


_ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


def _run_cli(args, **kwargs):
    """Run ``python -m repro <args>`` with src/ on the path."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=REPO_ROOT, check=True, env=_ENV, **kwargs,
    )


def _get(port, route):
    """GET localhost:*port**route*; returns (status, content_type, body)."""
    request = urllib.request.Request(f"http://127.0.0.1:{port}{route}")
    with urllib.request.urlopen(request, timeout=10) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read(),
        )


def _wait_for_boot(port):
    """Poll the server until it answers (or the boot window closes)."""
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while True:
        try:
            _get(port, "/statusz")
            return
        except (urllib.error.URLError, ConnectionError, OSError):
            if time.monotonic() >= deadline:
                raise SystemExit(
                    f"obs-smoke: server on port {port} never came up"
                )
            time.sleep(0.1)


def _counter_total(families, name, **labels):
    """Sum the plain samples of family *name* carrying *labels* (0 if absent)."""
    entry = families.get(name)
    if entry is None:
        return 0.0
    return sum(
        value for sample_name, sample_labels, value in entry["samples"]
        if sample_name == name and labels.items() <= sample_labels.items()
    )


def _busiest_link(store):
    """(ASN, link): the AS with the most alarmed links and its top link."""
    query = StoreQuery(store)
    asn = max(
        query.monitored_asns(),
        key=lambda candidate: (len(query.links_of(candidate)), -candidate),
        default=None,
    )
    assert asn is not None and query.links_of(asn), (
        "the smoke campaign raised no delay alarms"
    )
    return asn, query.links_of(asn)[0].link


def _append_alarm_bin(store, asn, link):
    """Publish one more bin re-alarming *link* for *asn*: a new
    generation that extends one existing link aggregate, no rewrite."""
    alarm = next(
        alarm for alarm in StoreQuery(store).alarms_involving(link[0])
        if alarm.link == link
    )
    near = link[0]
    writer = AlarmStoreWriter(
        store, AsMapper([(near, 128 if ":" in near else 32, asn)])
    )
    timestamp = writer.manifest.end + writer.manifest.bin_s
    writer.append_bins([
        BinResult(
            timestamp=timestamp, n_traceroutes=0,
            n_links_observed=0, n_links_analyzed=0,
            delay_alarms=[dataclasses.replace(alarm, timestamp=timestamp)],
            forwarding_alarms=[],
        )
    ])


def _check_in_process(port, store, routes):
    """Each route's wire body equals an in-process ServiceState's."""
    state = ServiceState(StoreQuery(store), ResponseCache(16))
    for route in routes:
        _, _, body = _get(port, route)
        expected = state.respond(route, {}).body
        assert body == expected, f"{route}: wire differs from respond()"


def _link_count(port, asn, link):
    """The served ``alarm_count`` of *link* in ``/links/{asn}``."""
    _, _, body = _get(port, f"/links/{asn}")
    return next(
        entry["alarm_count"] for entry in json.loads(body)
        if tuple(entry["link"]) == link
    )


def _scrape(port, store):
    """Scrape checks against the running server."""
    status, content_type, body = _get(port, "/metrics")
    assert status == 200, f"/metrics returned {status}"
    assert content_type.startswith("text/plain; version=0.0.4"), (
        f"wrong scrape Content-Type {content_type!r}"
    )
    families = parse_text(body)
    validate(families)
    for name, kind in PROCESS_FAMILIES.items():
        assert name in families, f"metric family {name} is missing"
        assert families[name]["type"] == kind, f"{name} is not a {kind}"
    rss = _counter_total(families, "process_resident_memory_bytes")
    assert 1 << 20 < rss < 1 << 30, f"implausible server RSS {rss}"

    status, content_type, body = _get(port, "/statusz")
    assert status == 200, f"/statusz returned {status}"
    assert content_type.startswith("application/json")
    progress = json.loads(body)
    assert set(progress) == {"cache", "components", "store"}, (
        f"unexpected /statusz shape {sorted(progress)}"
    )
    assert "generation" in progress["store"]

    status, _, _ = _get(port, "/top?kind=delay&k=3")
    assert status == 200, f"query route returned {status}"
    _, _, body = _get(port, "/metrics")
    after = parse_text(body)
    validate(after)
    moved = (
        _counter_total(after, "repro_http_requests_total")
        - _counter_total(families, "repro_http_requests_total")
    )
    assert moved >= 1, f"request counter did not move ({moved})"

    asn, link = _busiest_link(store)
    routes = [f"/links/{asn}", "/top", "/events"]
    _check_in_process(port, store, routes)
    count = _link_count(port, asn, link)
    _append_alarm_bin(store, asn, link)
    time.sleep(0.2)  # several freshness-probe intervals
    _check_in_process(port, store, routes)
    assert _link_count(port, asn, link) == count + 1, (
        "the appended alarm did not reach the served link aggregate"
    )
    _, _, body = _get(port, "/metrics")
    after = parse_text(body)
    validate(after)
    for name in ("repro_query_sync_total", "repro_query_sync_seconds",
                 "repro_query_applied_segments",
                 "repro_store_manifest_reads_total"):
        assert name in after, f"metric family {name} is missing"
    syncs = {
        mode: _counter_total(after, "repro_query_sync_total", mode=mode)
        for mode in ("rebuild", "extend")
    }
    assert syncs == {"rebuild": 1, "extend": 1}, (
        f"one cold build then one extension expected, got {syncs}"
    )
    for result in ("parsed", "unchanged"):
        assert _counter_total(
            after, "repro_store_manifest_reads_total", result=result
        ) >= 1, f"no manifest probe counted as {result}"
    print(f"obs-smoke: OK ({len(after)} metric families, counters moving, "
          f"append extended the query state and its link aggregates)")


def main(argv):
    """Build a store, boot the server, scrape it; 0 unless a check raises."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--keep", type=Path, default=None,
        help="build the campaign/store here and keep it (default: tmpdir)",
    )
    args = parser.parse_args(argv[1:])

    with tempfile.TemporaryDirectory(prefix="obs-smoke-") as tmp:
        workdir = args.keep or Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        campaign = workdir / "campaign.jsonl"
        store = workdir / "alarms.store"
        # The shortest campaign whose injected event raises delay
        # alarms: step 5 needs an alarmed link to drill into.
        _run_cli(["generate", "--hours", "6", "--seed", "3",
                  "--probes", "12", "--no-anchoring", "--scenario", "ddos",
                  "--out", str(campaign)], stdout=subprocess.DEVNULL)
        _run_cli(["analyze", str(campaign), "--seed", "3", "--probes", "12",
                  "--store", str(store)], stdout=subprocess.DEVNULL)

        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(store),
             "--port", str(PORT)],
            cwd=REPO_ROOT, env=_ENV, stdout=subprocess.DEVNULL,
        )
        try:
            _wait_for_boot(PORT)
            _scrape(PORT, store)
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
