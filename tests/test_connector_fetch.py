"""End-to-end connector tests: fetch → JSONL → stream → pipeline.

The acceptance bar for the connector layer, proven entirely offline:

* a fetched measurement is **byte-identical** to the same campaign
  written locally by :func:`repro.atlas.io.write_traceroutes`, and runs
  through ``TracerouteStream`` → ``Engine`` to bit-identical
  results;
* a fetch interrupted at *any* page boundary — or mid-page, leaving a
  partial tail — resumes exactly-once: no duplicated and no skipped
  traceroutes;
* bursts of 429/5xx/drops are absorbed within the retry budget, and a
  corrupt cursor restarts the window instead of trusting it;
* the probe-metadata connector filters, maps and degrades to its stale
  cache exactly as documented;
* the ``fetch`` subcommand and ``monitor --atlas`` drive all of the
  above from the command line against recorded fixtures.
"""

import json

import pytest

from repro.atlas import (
    TracerouteStream,
    make_traceroute,
    read_traceroutes,
    write_traceroutes,
)
from repro.atlas.connectors import (
    CircuitBreaker,
    CursorError,
    Fault,
    FaultSchedule,
    FaultTolerantClient,
    ProbeInfo,
    RetryPolicy,
    ScriptedTransport,
    asn_probe_map,
    fetch_probes,
    fetch_results,
    load_cursor,
    load_fixture,
    paged_results_fixture,
    parse_probe_dump,
    prefix_entries,
    probe_dump_fixture,
    refresh_mapper,
    results_url,
    usable_probes,
    write_fixture,
)
from repro.cli import main
from repro.core import Engine
from repro.net.asmap import AsMapper

BASE_URL = "https://atlas.example/api/v2"
MSM = 5051


def campaign(n=120, n_probes=6):
    """A small deterministic multi-probe campaign."""
    traceroutes = []
    for index in range(n):
        probe = index % n_probes
        traceroutes.append(
            make_traceroute(
                1000 + probe,
                f"192.0.2.{probe + 1}",
                "198.51.100.7",
                3600 * (index // n_probes) + probe,
                [
                    [("10.0.0.1", 1.5 + probe), ("10.0.0.1", 1.6 + probe)],
                    [("10.0.0.2", 7.5 + probe), ("10.0.0.2", 7.7 + probe)],
                ],
                from_asn=65000 + probe % 3,
                msm_id=MSM,
            )
        )
    return traceroutes


def make_client(pages, faults=None, breaker=None, max_attempts=6):
    """A no-sleep client over a scripted transport."""
    return FaultTolerantClient(
        transport=ScriptedTransport(pages, faults=faults),
        policy=RetryPolicy(max_attempts=max_attempts, seed=2),
        breaker=breaker,
        sleep=lambda _s: None,
    )


@pytest.fixture()
def pages():
    return paged_results_fixture(campaign(), MSM, page_size=25,
                                 base_url=BASE_URL)


@pytest.fixture()
def reference(tmp_path):
    """The campaign written by the local-file path, for bit-identity."""
    path = tmp_path / "reference.jsonl"
    write_traceroutes(path, campaign())
    return path


class TestFetchResults:
    def test_output_byte_identical_to_write_traceroutes(
        self, tmp_path, pages, reference
    ):
        out = tmp_path / "fetched.jsonl"
        report = fetch_results(
            make_client(pages), MSM, out, base_url=BASE_URL, page_size=25
        )
        assert report.completed and report.pages == 5
        assert report.records == 120 and report.skipped == 0
        assert out.read_bytes() == reference.read_bytes()

    def test_bare_list_envelope(self, tmp_path, reference):
        url = results_url(MSM, page_size=25, base_url=BASE_URL)
        body = json.dumps(
            [tr.to_json() for tr in campaign()], sort_keys=True
        ).encode("utf-8")
        out = tmp_path / "fetched.jsonl"
        report = fetch_results(
            make_client({url: body}), MSM, out,
            base_url=BASE_URL, page_size=25,
        )
        assert report.completed and report.pages == 1
        assert out.read_bytes() == reference.read_bytes()

    def test_unrecognized_envelope_raises(self, tmp_path):
        url = results_url(MSM, page_size=25, base_url=BASE_URL)
        client = make_client({url: b'{"weird": true}'})
        with pytest.raises(ValueError, match="envelope"):
            fetch_results(client, MSM, tmp_path / "out.jsonl",
                          base_url=BASE_URL, page_size=25)

    def test_bad_items_skipped_unless_strict(self, tmp_path):
        good = campaign(n=2)
        items = [good[0].to_json(), {"nonsense": 1}, good[1].to_json()]
        url = results_url(MSM, page_size=25, base_url=BASE_URL)
        body = json.dumps({"results": items, "next": None}).encode()
        out = tmp_path / "out.jsonl"
        report = fetch_results(
            make_client({url: body}), MSM, out,
            base_url=BASE_URL, page_size=25,
        )
        assert report.records == 2 and report.skipped == 1
        assert len(list(read_traceroutes(out))) == 2
        with pytest.raises(KeyError):
            fetch_results(
                make_client({url: body}), MSM, tmp_path / "strict.jsonl",
                base_url=BASE_URL, page_size=25, strict=True,
            )


class TestExactlyOnceResume:
    @pytest.mark.parametrize("boundary", [1, 2, 3, 4])
    def test_interrupt_at_every_page_boundary(
        self, tmp_path, pages, reference, boundary
    ):
        # Stop after `boundary` of the 5 pages (a simulated crash right
        # at a commit point), then re-run: the resumed fetch must
        # produce exactly the reference bytes — nothing doubled,
        # nothing lost.
        out = tmp_path / "fetched.jsonl"
        cursor = tmp_path / "fetch.cursor"
        first = fetch_results(
            make_client(pages), MSM, out, cursor_path=cursor,
            base_url=BASE_URL, page_size=25, max_pages=boundary,
        )
        assert first.pages == boundary and not first.completed
        second = fetch_results(
            make_client(pages), MSM, out, cursor_path=cursor,
            base_url=BASE_URL, page_size=25,
        )
        assert second.resumed and second.completed
        assert second.pages == 5 - boundary
        assert first.records + second.records == 120
        assert out.read_bytes() == reference.read_bytes()

    def test_partial_page_tail_is_erased_on_resume(
        self, tmp_path, pages, reference
    ):
        # Crash *between* the page append and the cursor write: the
        # output holds a partial page beyond the cursor's commit point.
        # Resume must truncate it away before refetching — otherwise
        # those records would be duplicated.
        out = tmp_path / "fetched.jsonl"
        cursor = tmp_path / "fetch.cursor"
        fetch_results(
            make_client(pages), MSM, out, cursor_path=cursor,
            base_url=BASE_URL, page_size=25, max_pages=2,
        )
        with open(out, "ab") as handle:
            handle.write(b'{"partial": ')  # torn write, no newline
        report = fetch_results(
            make_client(pages), MSM, out, cursor_path=cursor,
            base_url=BASE_URL, page_size=25,
        )
        assert report.resumed and report.completed
        assert out.read_bytes() == reference.read_bytes()

    def test_corrupt_cursor_restarts_window_cleanly(
        self, tmp_path, pages, reference
    ):
        out = tmp_path / "fetched.jsonl"
        cursor = tmp_path / "fetch.cursor"
        fetch_results(
            make_client(pages), MSM, out, cursor_path=cursor,
            base_url=BASE_URL, page_size=25, max_pages=3,
        )
        raw = bytearray(cursor.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        cursor.write_bytes(bytes(raw))
        with pytest.raises(CursorError):
            load_cursor(cursor)
        report = fetch_results(
            make_client(pages), MSM, out, cursor_path=cursor,
            base_url=BASE_URL, page_size=25,
        )
        assert report.restarted and not report.resumed
        assert report.completed and report.pages == 5
        assert out.read_bytes() == reference.read_bytes()

    def test_foreign_cursor_restarts_window(self, tmp_path, pages, reference):
        # A cursor saved for a different window (other page size) must
        # not resume this one.
        out = tmp_path / "fetched.jsonl"
        cursor = tmp_path / "fetch.cursor"
        other = paged_results_fixture(
            campaign(), MSM, page_size=60, base_url=BASE_URL
        )
        fetch_results(
            make_client(other), MSM, tmp_path / "other.jsonl",
            cursor_path=cursor, base_url=BASE_URL, page_size=60, max_pages=1,
        )
        report = fetch_results(
            make_client(pages), MSM, out, cursor_path=cursor,
            base_url=BASE_URL, page_size=25,
        )
        assert report.restarted and report.completed
        assert out.read_bytes() == reference.read_bytes()

    def test_completed_cursor_short_circuits(self, tmp_path, pages):
        out = tmp_path / "fetched.jsonl"
        cursor = tmp_path / "fetch.cursor"
        fetch_results(
            make_client(pages), MSM, out, cursor_path=cursor,
            base_url=BASE_URL, page_size=25,
        )
        client = make_client(pages)
        report = fetch_results(
            client, MSM, out, cursor_path=cursor,
            base_url=BASE_URL, page_size=25,
        )
        assert report.already_complete and report.completed
        assert client.stats.requests == 0  # not a single network call


class TestFaultAbsorption:
    def test_seeded_burst_absorbed_and_output_identical(
        self, tmp_path, pages, reference
    ):
        # A 35% injected-fault rate (drops, 429s with Retry-After,
        # flapping 5xx, truncated bodies) across the whole pagination:
        # the client must absorb every burst within its retry budget
        # and still produce byte-identical output.
        faults = FaultSchedule.seeded(9, 0.35)
        client = make_client(pages, faults=faults, max_attempts=8)
        out = tmp_path / "fetched.jsonl"
        report = fetch_results(
            client, MSM, out, base_url=BASE_URL, page_size=25
        )
        assert report.completed
        assert out.read_bytes() == reference.read_bytes()
        assert client.stats.retries > 0  # the schedule really fired

    def test_fault_transcript_is_reproducible(self, tmp_path, pages):
        transcripts = []
        for _ in range(2):
            faults = FaultSchedule.seeded(9, 0.35)
            transport = ScriptedTransport(pages, faults=faults)
            client = FaultTolerantClient(
                transport=transport,
                policy=RetryPolicy(max_attempts=8, seed=2),
                sleep=lambda _s: None,
            )
            fetch_results(
                client, MSM, tmp_path / "out.jsonl",
                base_url=BASE_URL, page_size=25,
            )
            transcripts.append(transport.calls)
            (tmp_path / "out.jsonl").unlink()
        assert transcripts[0] == transcripts[1]

    def test_resume_after_breaker_opens_mid_fetch(
        self, tmp_path, pages, reference
    ):
        # Page 3's URL is permanently dropping; the breaker opens and
        # the fetch dies with its cursor at the last good page.  A
        # later run against a healthy API resumes exactly-once.
        from repro.atlas.connectors import (
            CircuitOpenError,
            RetryBudgetExceeded,
        )

        faults = FaultSchedule(
            {i: Fault(kind="drop") for i in range(2, 50)}
        )
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=60.0)
        client = make_client(pages, faults=faults, breaker=breaker,
                             max_attempts=4)
        out = tmp_path / "fetched.jsonl"
        cursor = tmp_path / "fetch.cursor"
        with pytest.raises((RetryBudgetExceeded, CircuitOpenError)):
            fetch_results(
                client, MSM, out, cursor_path=cursor,
                base_url=BASE_URL, page_size=25,
            )
        assert breaker.state == "open"
        saved = load_cursor(cursor)
        assert 0 < saved.pages_fetched < 5 and not saved.completed
        report = fetch_results(
            make_client(pages), MSM, out, cursor_path=cursor,
            base_url=BASE_URL, page_size=25,
        )
        assert report.resumed and report.completed
        assert out.read_bytes() == reference.read_bytes()


class TestPipelineIdentity:
    def test_fetched_feed_runs_bit_identical_to_local(
        self, tmp_path, pages, reference
    ):
        # The whole point of normalization: a fetched campaign streamed
        # through TracerouteStream into the engine yields
        # results indistinguishable from local-file ingestion.
        out = tmp_path / "fetched.jsonl"
        fetch_results(
            make_client(pages), MSM, out, base_url=BASE_URL, page_size=25
        )

        def run(path):
            engine = Engine()
            stream = TracerouteStream(bin_s=3600)
            results = []
            for traceroute in read_traceroutes(path):
                for start, payload in stream.push(traceroute):
                    results.append(engine.process_bin(start, payload))
            for start, payload in stream.drain():
                results.append(engine.process_bin(start, payload))
            return results, engine.stats()

        fetched_results, fetched_stats = run(out)
        local_results, local_stats = run(reference)
        assert fetched_results == local_results
        assert fetched_stats == local_stats


RAW_PROBES = [
    {"id": 1, "status_id": 1, "is_public": True, "asn_v4": 65001,
     "prefix_v4": "10.1.0.0/16", "address_v4": "10.1.2.3"},
    {"id": 2, "status_id": 1, "is_public": True, "asn_v4": 65001,
     "prefix_v4": "10.1.0.0/16", "address_v4": "10.1.9.9"},
    {"id": 3, "status_id": 1, "is_public": True, "asn_v4": 65002,
     "prefix_v4": "10.2.0.0/16"},
    {"id": 4, "status_id": 2, "is_public": True, "asn_v4": 65003},
    {"id": 5, "status_id": 1, "is_public": False, "asn_v4": 65004},
    {"id": 6, "status_id": 1, "is_public": True, "asn_v4": None},
    {"id": 7, "status_id": 1, "is_public": True, "asn_v6": 65005,
     "prefix_v6": "2001:db8::/32"},
    "not-a-dict",
]


class TestProbes:
    def test_filtering_matches_atlas_idiom(self):
        probes = usable_probes(parse_probe_dump(probe_dump_fixture(
            RAW_PROBES)), af=4)
        assert [p.id for p in probes] == [1, 2, 3]
        assert all(p.af == 4 for p in probes)
        v6 = usable_probes([p for p in RAW_PROBES if isinstance(p, dict)],
                           af=6)
        assert [p.id for p in v6] == [7]
        with pytest.raises(ValueError):
            usable_probes([], af=5)

    def test_bz2_and_plain_bodies_decode_identically(self):
        plain = parse_probe_dump(probe_dump_fixture(RAW_PROBES))
        packed = parse_probe_dump(
            probe_dump_fixture(RAW_PROBES, compress=True)
        )
        assert plain == packed
        with pytest.raises(ValueError, match="probe dump"):
            parse_probe_dump(b'"just a string"')

    def test_asn_map_and_prefix_entries_deterministic(self):
        probes = usable_probes([p for p in RAW_PROBES if isinstance(p, dict)])
        assert asn_probe_map(probes) == {65001: [1, 2], 65002: [3]}
        assert prefix_entries(probes) == [
            ("10.1.0.0", 16, 65001),
            ("10.2.0.0", 16, 65002),
        ]

    def test_refresh_mapper_loads_live_prefixes(self):
        mapper = AsMapper()
        mapper.load([("10.9.0.0", 16, 64999)])
        probes = usable_probes([p for p in RAW_PROBES if isinstance(p, dict)])
        assert refresh_mapper(mapper, probes) == 2
        assert mapper.asn_of("10.1.44.5") == 65001
        assert mapper.asn_of("10.9.1.1") == 64999  # seed entries survive
        assert refresh_mapper(mapper, []) == 0

    def test_fetch_probes_happy_path_writes_cache(self, tmp_path):
        url = "https://ftp.example/meta-latest"
        pages = {url: probe_dump_fixture(RAW_PROBES, compress=True)}
        cache = tmp_path / "probes.cache.json"
        probe_set = fetch_probes(
            make_client(pages), url=url, cache_path=cache
        )
        assert not probe_set.stale
        assert probe_set.total_in_dump == len(RAW_PROBES)
        assert [p.id for p in probe_set.probes] == [1, 2, 3]
        assert cache.exists()

    def test_stale_but_serving_when_api_down(self, tmp_path):
        url = "https://ftp.example/meta-latest"
        pages = {url: probe_dump_fixture(RAW_PROBES)}
        cache = tmp_path / "probes.cache.json"
        fetch_probes(make_client(pages), url=url, cache_path=cache)
        # Now the API is down hard: every request drops.
        faults = FaultSchedule({i: Fault(kind="drop") for i in range(50)})
        down = make_client(pages, faults=faults, max_attempts=3)
        probe_set = fetch_probes(down, url=url, cache_path=cache)
        assert probe_set.stale
        assert [p.id for p in probe_set.probes] == [1, 2, 3]
        assert probe_set.probes[0] == ProbeInfo(
            id=1, asn=65001, af=4, prefix="10.1.0.0/16", address="10.1.2.3"
        )

    def test_no_cache_means_the_error_propagates(self, tmp_path):
        from repro.atlas.connectors import RetryBudgetExceeded

        url = "https://ftp.example/meta-latest"
        faults = FaultSchedule({i: Fault(kind="drop") for i in range(50)})
        down = make_client({url: b"{}"}, faults=faults, max_attempts=3)
        with pytest.raises(RetryBudgetExceeded):
            fetch_probes(down, url=url, cache_path=tmp_path / "missing.json")
        with pytest.raises(RetryBudgetExceeded):
            fetch_probes(down, url=url)


class TestFixtureFiles:
    def test_fixture_round_trip_text_and_binary(self, tmp_path, pages):
        mixed = dict(pages)
        mixed["https://ftp.example/meta-latest"] = probe_dump_fixture(
            RAW_PROBES, compress=True
        )
        path = tmp_path / "fixture.json"
        assert write_fixture(path, mixed) == len(mixed)
        assert load_fixture(path) == mixed
        # The file itself is reviewable JSON with base64 for binary.
        data = json.loads(path.read_text())
        assert "base64" in data["https://ftp.example/meta-latest"]


class TestCliFetch:
    def fixture_path(self, tmp_path, fetch_page_size=None):
        pages = paged_results_fixture(
            campaign(), MSM, page_size=25, base_url=BASE_URL,
            fetch_page_size=fetch_page_size,
        )
        path = tmp_path / "fixture.json"
        write_fixture(path, pages)
        return path

    def test_fetch_results_from_fixture(self, tmp_path, reference, capsys):
        fixture = self.fixture_path(tmp_path)
        out = tmp_path / "feed.jsonl"
        code = main([
            "fetch", "results", "--msm", str(MSM), "--out", str(out),
            "--base-url", BASE_URL, "--page-size", "25",
            "--fixture", str(fixture),
        ])
        assert code == 0
        assert out.read_bytes() == reference.read_bytes()
        printed = capsys.readouterr().out
        assert f"fetched msm {MSM}: 5 pages, 120 traceroutes" in printed

    def test_fetch_results_with_faults_and_cursor(
        self, tmp_path, reference, capsys
    ):
        fixture = self.fixture_path(tmp_path)
        out = tmp_path / "feed.jsonl"
        cursor = tmp_path / "feed.cursor"
        common = [
            "fetch", "results", "--msm", str(MSM), "--out", str(out),
            "--base-url", BASE_URL, "--page-size", "25",
            "--fixture", str(fixture), "--cursor", str(cursor),
            "--fault-seed", "4", "--fault-rate", "0.3",
        ]
        assert main(common + ["--max-pages", "2"]) == 0
        assert "paused (resumable)" in capsys.readouterr().out
        assert main(common) == 0
        printed = capsys.readouterr().out
        assert "[complete] (resumed)" in printed
        assert out.read_bytes() == reference.read_bytes()

    def test_fetch_results_requires_msm(self, tmp_path, capsys):
        code = main([
            "fetch", "results", "--out", str(tmp_path / "feed.jsonl"),
        ])
        assert code == 2
        assert "requires --msm" in capsys.readouterr().err

    def test_fetch_probes_from_fixture(self, tmp_path, capsys):
        url = "https://ftp.example/meta-latest"
        fixture = tmp_path / "fixture.json"
        write_fixture(
            fixture, {url: probe_dump_fixture(RAW_PROBES, compress=True)}
        )
        out = tmp_path / "probes.json"
        code = main([
            "fetch", "probes", "--out", str(out),
            "--base-url", url, "--fixture", str(fixture),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["usable_probes"] == 3
        assert payload["asn_probe_map"] == {"65001": [1, 2], "65002": [3]}
        assert payload["prefix_entries"] == [
            ["10.1.0.0", 16, 65001], ["10.2.0.0", 16, 65002],
        ]
        assert payload["stale"] is False
        assert "3 usable probes across 2 ASNs" in capsys.readouterr().out


class TestCliMonitorAtlas:
    def test_monitor_atlas_prefetches_then_analyzes(self, tmp_path, capsys):
        # monitor --atlas uses the default page size (500), so the
        # fixture advertises that while chunking at 25.
        pages = paged_results_fixture(
            campaign(), MSM, page_size=25, base_url=BASE_URL,
            fetch_page_size=500,
        )
        fixture = tmp_path / "fixture.json"
        write_fixture(fixture, pages)
        feed = tmp_path / "feed.jsonl"
        code = main([
            "monitor", str(feed), "--atlas", "--atlas-msm", str(MSM),
            "--base-url", BASE_URL, "--fixture", str(fixture),
            "--atlas-cursor", str(tmp_path / "feed.cursor"),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert f"atlas fetch: msm {MSM}, 5 pages, 120 traceroutes" in printed
        assert "monitor done:" in printed

    def test_monitor_atlas_requires_msm(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["monitor", str(tmp_path / "feed.jsonl"), "--atlas"])
        assert "requires --atlas-msm" in capsys.readouterr().err
