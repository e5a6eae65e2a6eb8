"""Tests for the persistent alarm store and its IHR-equivalent queries.

The central claim (ISSUE 5): for any campaign, :class:`StoreQuery` over
the on-disk store answers every Internet-Health-Report query
bit-identically to :class:`InternetHealthReport` over the in-memory
analysis — across arbitrary segment chunkings, while a writer appends,
and never from a truncated or corrupt file (those raise
:class:`StoreError`).
"""

import os
import random
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AlarmAggregator, CampaignAnalysis, Pipeline
from repro.core.alarms import DelayAlarm, ForwardingAlarm
from repro.core.pipeline import BinResult
from repro.net import AsMapper
from repro.reporting import InternetHealthReport
from repro.service import (
    AlarmStore,
    AlarmStoreWriter,
    StoreError,
    StoreQuery,
    append_analysis,
)
from repro.service import store as store_module
from repro.stats import WilsonInterval

#: Prefix table: two prefixes share AS 65001 (multi-link ASes), one IP
#: pool entry (198.51.100.7) is deliberately unmapped.
MAPPER_ENTRIES = [
    ("10.0.0.0", 24, 65001),
    ("10.0.1.0", 24, 65002),
    ("10.0.2.0", 24, 65001),
    ("10.1.0.0", 16, 65010),
]
IPS = [
    "10.0.0.1", "10.0.0.2", "10.0.1.1", "10.0.2.1",
    "10.1.0.1", "198.51.100.7",
]
HOPS = IPS + ["*"]
BIN_S = 3600


def make_mapper() -> AsMapper:
    return AsMapper(MAPPER_ENTRIES)


def _interval(rng) -> WilsonInterval:
    base = rng.uniform(-100.0, 100.0)
    return WilsonInterval(
        median=base,
        lower=base - rng.uniform(0.0, 5.0),
        upper=base + rng.uniform(0.0, 5.0),
        n=rng.randint(1, 500),
    )


def _delay_alarm(rng, timestamp: int) -> DelayAlarm:
    near, far = rng.sample(IPS, 2)
    return DelayAlarm(
        timestamp=timestamp + rng.randint(0, BIN_S - 1),
        link=(near, far),
        observed=_interval(rng),
        reference=_interval(rng),
        deviation=rng.uniform(0.0, 50.0),
        direction=rng.choice([-1, 1]),
        n_probes=rng.randint(1, 40),
        n_asns=rng.randint(1, 5),
    )


def _forwarding_alarm(rng, timestamp: int) -> ForwardingAlarm:
    hops = rng.sample(HOPS, rng.randint(1, 4))
    return ForwardingAlarm(
        timestamp=timestamp + rng.randint(0, BIN_S - 1),
        router_ip=rng.choice(IPS),
        destination=rng.choice(["anchor-1", "anchor-2"]),
        correlation=rng.uniform(-1.0, 1.0),
        responsibilities={
            hop: rng.choice([0.0, rng.uniform(-3.0, 3.0)]) for hop in hops
        },
        pattern={hop: rng.uniform(0.0, 30.0) for hop in hops},
        reference={hop: rng.uniform(0.0, 30.0) for hop in hops},
    )


def synthetic_bins(n_bins: int, seed: int, start: int = 0):
    """Deterministic random campaign: BinResults with both alarm kinds."""
    rng = random.Random(seed)
    results = []
    for index in range(n_bins):
        timestamp = start + index * BIN_S
        results.append(
            BinResult(
                timestamp=timestamp,
                n_traceroutes=rng.randint(0, 50),
                n_links_observed=rng.randint(0, 20),
                n_links_analyzed=rng.randint(0, 20),
                delay_alarms=[
                    _delay_alarm(rng, timestamp)
                    for _ in range(rng.randint(0, 3))
                ],
                forwarding_alarms=[
                    _forwarding_alarm(rng, timestamp)
                    for _ in range(rng.randint(0, 2))
                ],
            )
        )
    return results


def analysis_of(bin_results, mapper) -> CampaignAnalysis:
    """Aggregate synthetic bin results exactly like analyze_campaign."""
    start = bin_results[0].timestamp if bin_results else 0
    aggregator = AlarmAggregator(mapper, bin_s=BIN_S, start=start)
    for result in bin_results:
        aggregator.add_alarms(result.delay_alarms, result.forwarding_alarms)
    if bin_results:
        aggregator.close(bin_results[-1].timestamp)
    return CampaignAnalysis(
        bin_results=bin_results, aggregator=aggregator, pipeline=Pipeline()
    )


def build_store(directory, bin_results, mapper, chunk: int = 3):
    """Write *bin_results* into a store at *directory* in chunks."""
    start = bin_results[0].timestamp if bin_results else None
    writer = AlarmStoreWriter.create(
        directory, mapper, bin_s=BIN_S, start=start
    )
    for index in range(0, len(bin_results), chunk):
        writer.append_bins(bin_results[index : index + chunk])
    return writer


def assert_equivalent(report: InternetHealthReport, query: StoreQuery,
                      bin_results) -> None:
    """Every IHR answer must be bit-identical from the store."""
    assert query.monitored_asns() == report.monitored_asns()
    asns = report.monitored_asns() + [65001, 99999]
    for asn in asns:
        assert query.as_condition(asn) == report.as_condition(asn)
        assert query.links_of(asn) == report.links_of(asn)
        for kind in ("delay", "forwarding"):
            expected_ts, expected = report.magnitude_series(asn, kind)
            actual_ts, actual = query.magnitude_series(asn, kind)
            assert actual_ts == expected_ts
            assert np.array_equal(actual, expected)
    for kind in ("delay", "forwarding"):
        for threshold in (0.5, 2.0):
            assert query.top_events(kind, threshold, 20) == (
                report.top_events(kind, threshold, 20)
            )
        assert query.top_asns(kind, 5) == report.top_asns(kind, 5)
        span = (bin_results[-1].timestamp + BIN_S) if bin_results else BIN_S
        assert query.events_in(0, span, kind, 0.5) == (
            report.events_in(0, span, kind, 0.5)
        )
    for result in bin_results:
        probe = result.timestamp + 17
        assert query.alarms_at(probe) == report.alarms_at(probe)
    for ip in IPS[:3]:
        assert query.alarms_involving(ip) == report.alarms_involving(ip)


class TestEquivalence:
    """Property: store append → query round-trips the IHR bit-for-bit."""

    @given(
        seed=st.integers(0, 10_000),
        n_bins=st.integers(1, 6),
        chunk=st.integers(1, 3),
        window=st.one_of(st.none(), st.integers(1, 8)),
    )
    @settings(max_examples=25, deadline=None)
    def test_store_matches_ihr(self, seed, n_bins, chunk, window):
        mapper = make_mapper()
        bin_results = synthetic_bins(n_bins, seed)
        analysis = analysis_of(bin_results, mapper)
        report = InternetHealthReport(analysis, window_bins=window)
        with tempfile.TemporaryDirectory() as tmp:
            build_store(Path(tmp) / "store", bin_results, mapper, chunk)
            query = StoreQuery(Path(tmp) / "store", window_bins=window)
            assert_equivalent(report, query, bin_results)

    def test_multi_segment_equals_single_segment(self, tmp_path):
        mapper = make_mapper()
        bin_results = synthetic_bins(8, seed=7)
        build_store(tmp_path / "one", bin_results, mapper, chunk=100)
        build_store(tmp_path / "many", bin_results, mapper, chunk=1)
        one = StoreQuery(tmp_path / "one", window_bins=4)
        many = StoreQuery(tmp_path / "many", window_bins=4)
        assert one.monitored_asns() == many.monitored_asns()
        for asn in one.monitored_asns():
            assert one.as_condition(asn) == many.as_condition(asn)
            assert one.links_of(asn) == many.links_of(asn)
        assert len(many.store.manifest.segments) > len(
            one.store.manifest.segments
        )

    def test_real_campaign_via_append_analysis(self, tmp_path):
        """End to end on a real pipeline campaign (not synthetic alarms)."""
        from repro.atlas import make_traceroute
        from repro.core import analyze_campaign

        rng = np.random.default_rng(0)
        traceroutes = []
        for hour in range(10):
            shift = 25.0 if hour in (6, 7) else 0.0
            for probe in range(9):
                noise = rng.normal(0, 0.1, size=2)
                traceroutes.append(
                    make_traceroute(
                        probe, f"s{probe}", "dst", hour * 3600,
                        [
                            [("10.0.0.1", 10.0 + probe + noise[0])],
                            [("10.0.1.1", 15.0 + probe + shift + noise[1])],
                        ],
                        from_asn=65001 + probe % 3,
                    )
                )
        analysis = analyze_campaign(traceroutes, make_mapper())
        assert analysis.delay_alarms, "campaign must raise alarms"
        report = InternetHealthReport(analysis, window_bins=5)
        append_analysis(tmp_path / "store", analysis, segment_bins=4)
        query = StoreQuery(tmp_path / "store", window_bins=5)
        assert_equivalent(report, query, analysis.bin_results)


class TestWriterSemantics:
    def test_create_refuses_existing_store(self, tmp_path):
        mapper = make_mapper()
        AlarmStoreWriter.create(tmp_path / "store", mapper)
        with pytest.raises(StoreError):
            AlarmStoreWriter.create(tmp_path / "store", mapper)
        AlarmStoreWriter.create(tmp_path / "store", mapper, overwrite=True)

    def test_open_or_create_checks_bin_s(self, tmp_path):
        mapper = make_mapper()
        AlarmStoreWriter.create(tmp_path / "store", mapper, bin_s=3600)
        reopened = AlarmStoreWriter.open_or_create(
            tmp_path / "store", mapper, bin_s=3600
        )
        assert reopened.generation == 0
        with pytest.raises(StoreError):
            AlarmStoreWriter.open_or_create(
                tmp_path / "store", mapper, bin_s=900
            )

    def test_append_rejects_unordered_bins(self, tmp_path):
        writer = AlarmStoreWriter.create(tmp_path / "store", make_mapper())
        bins = synthetic_bins(2, seed=1)
        with pytest.raises(StoreError):
            writer.append_bins(list(reversed(bins)))

    def test_append_rejects_off_clock_bins(self, tmp_path):
        writer = AlarmStoreWriter.create(tmp_path / "store", make_mapper())
        writer.append_bins(synthetic_bins(1, seed=1))
        crooked = synthetic_bins(1, seed=2, start=BIN_S + 17)
        with pytest.raises(StoreError):
            writer.append_bins(crooked)

    def test_replayed_bins_are_skipped(self, tmp_path):
        mapper = make_mapper()
        bins = synthetic_bins(4, seed=3)
        writer = AlarmStoreWriter.create(tmp_path / "store", mapper)
        assert writer.append_bins(bins[:3]) == 3
        generation = writer.generation
        # An at-least-once stream replays everything after a restart.
        assert writer.append_bins(bins) == 1
        assert writer.generation == generation + 1
        assert writer.append_bins(bins) == 0
        assert writer.generation == generation + 1
        query = StoreQuery(tmp_path / "store", window_bins=3)
        report = InternetHealthReport(
            analysis_of(bins, mapper), window_bins=3
        )
        assert_equivalent(report, query, bins)

    def test_quiet_bins_advance_the_clock_without_segments(self, tmp_path):
        writer = AlarmStoreWriter.create(tmp_path / "store", make_mapper())
        quiet = [
            BinResult(
                timestamp=index * BIN_S, n_traceroutes=0,
                n_links_observed=0, n_links_analyzed=0,
                delay_alarms=[], forwarding_alarms=[],
            )
            for index in range(3)
        ]
        assert writer.append_bins(quiet) == 3
        assert writer.generation == 1
        assert not writer.manifest.segments
        assert writer.manifest.n_bins == 3
        assert StoreQuery(tmp_path / "store").monitored_asns() == []

    def test_alarm_before_start_rejected(self, tmp_path):
        writer = AlarmStoreWriter.create(
            tmp_path / "store", make_mapper(), start=10 * BIN_S
        )
        bins = synthetic_bins(1, seed=4, start=11 * BIN_S)
        early = _delay_alarm(random.Random(0), 0)
        bins[0].delay_alarms.append(early)
        with pytest.raises(StoreError):
            writer.append_bins(bins)

    def test_recreated_store_invalidates_live_readers(self, tmp_path):
        """A store rebuilt at the same generation number must still be
        picked up: the epoch token, not the bare counter, is compared."""
        mapper = make_mapper()
        first = synthetic_bins(3, seed=31)
        writer = AlarmStoreWriter.create(
            tmp_path / "store", mapper, bin_s=BIN_S, start=first[0].timestamp
        )
        writer.append_bins(first)
        query = StoreQuery(tmp_path / "store", window_bins=3)
        token_before = query.cache_token
        report_before = InternetHealthReport(
            analysis_of(first, mapper), window_bins=3
        )
        assert query.monitored_asns() == report_before.monitored_asns()
        # Recreate with different content but the same append count —
        # the generation number coincides, the epoch id cannot.
        second = synthetic_bins(3, seed=32)
        rebuilt = AlarmStoreWriter.create(
            tmp_path / "store", mapper, bin_s=BIN_S,
            start=second[0].timestamp, overwrite=True,
        )
        rebuilt.append_bins(second)
        assert rebuilt.generation == writer.generation
        report_after = InternetHealthReport(
            analysis_of(second, mapper), window_bins=3
        )
        assert query.monitored_asns() == report_after.monitored_asns()
        assert query.cache_token != token_before
        assert_equivalent(report_after, query, second)

    def test_generation_counts_every_append(self, tmp_path):
        writer = AlarmStoreWriter.create(tmp_path / "store", make_mapper())
        bins = synthetic_bins(5, seed=5)
        for index, result in enumerate(bins):
            writer.append_bins([result])
            assert writer.generation == index + 1
        store = AlarmStore(tmp_path / "store")
        assert store.generation == len(bins)


class TestConcurrentReaders:
    def test_reader_never_sees_partial_appends(self, tmp_path):
        """Queries during a live append stream never fail or tear."""
        mapper = make_mapper()
        bins = synthetic_bins(25, seed=11)
        writer = AlarmStoreWriter.create(tmp_path / "store", mapper)
        writer.append_bins(bins[:1])
        done = threading.Event()
        errors = []

        def poll():
            query = StoreQuery(tmp_path / "store", window_bins=4)
            while not done.is_set():
                try:
                    for asn in query.monitored_asns()[:4]:
                        query.as_condition(asn)
                        query.top_events("delay", 0.5, 5)
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)
                    return

        reader = threading.Thread(target=poll)
        reader.start()
        try:
            for result in bins[1:]:
                writer.append_bins([result])
                time.sleep(0.001)
        finally:
            done.set()
            reader.join()
        assert not errors, errors
        report = InternetHealthReport(
            analysis_of(bins, mapper), window_bins=4
        )
        query = StoreQuery(tmp_path / "store", window_bins=4)
        assert_equivalent(report, query, bins)


def _built_store(tmp_path) -> Path:
    directory = tmp_path / "store"
    build_store(directory, synthetic_bins(6, seed=21), make_mapper(), chunk=2)
    return directory


def _query_everything(directory) -> None:
    query = StoreQuery(directory)
    query.monitored_asns()
    query.alarms_at(0)
    query.alarms_involving(IPS[0])


class TestCorruption:
    """Damaged stores must raise StoreError — never serve partial data."""

    def _segment_path(self, directory) -> Path:
        segments = sorted(directory.glob("seg-*.seg"))
        assert segments, "fixture store must have segments"
        return segments[0]

    def test_segment_payload_bit_flip(self, tmp_path):
        directory = _built_store(tmp_path)
        path = self._segment_path(directory)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError):
            _query_everything(directory)

    def test_segment_truncation(self, tmp_path):
        directory = _built_store(tmp_path)
        path = self._segment_path(directory)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(StoreError):
            _query_everything(directory)

    def test_segment_trailing_garbage(self, tmp_path):
        directory = _built_store(tmp_path)
        path = self._segment_path(directory)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(StoreError):
            _query_everything(directory)

    def test_segment_bad_magic(self, tmp_path):
        directory = _built_store(tmp_path)
        path = self._segment_path(directory)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError):
            _query_everything(directory)

    def test_segment_foreign_version(self, tmp_path):
        directory = _built_store(tmp_path)
        path = self._segment_path(directory)
        blob = bytearray(path.read_bytes())
        blob[8] ^= 0x01  # first byte of the little-endian version field
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError):
            _query_everything(directory)

    def test_segment_missing(self, tmp_path):
        directory = _built_store(tmp_path)
        self._segment_path(directory).unlink()
        with pytest.raises(StoreError):
            _query_everything(directory)

    def test_segment_empty_file(self, tmp_path):
        directory = _built_store(tmp_path)
        self._segment_path(directory).write_bytes(b"")
        with pytest.raises(StoreError):
            _query_everything(directory)

    def test_segment_swapped_between_stores(self, tmp_path):
        """A well-formed segment from another store fails the manifest
        digest pinning."""
        directory = _built_store(tmp_path)
        other = tmp_path / "other"
        build_store(other, synthetic_bins(6, seed=99), make_mapper(), chunk=2)
        victim = self._segment_path(directory)
        donor = other / victim.name
        victim.write_bytes(donor.read_bytes())
        with pytest.raises(StoreError):
            _query_everything(directory)

    def test_manifest_truncation(self, tmp_path):
        directory = _built_store(tmp_path)
        manifest = directory / "MANIFEST"
        manifest.write_bytes(manifest.read_bytes()[:-7])
        with pytest.raises(StoreError):
            StoreQuery(directory)

    def test_manifest_bit_flip(self, tmp_path):
        directory = _built_store(tmp_path)
        manifest = directory / "MANIFEST"
        blob = bytearray(manifest.read_bytes())
        blob[-3] ^= 0x10
        manifest.write_bytes(bytes(blob))
        with pytest.raises(StoreError):
            StoreQuery(directory)

    def test_manifest_missing(self, tmp_path):
        with pytest.raises(StoreError):
            StoreQuery(tmp_path / "nonexistent")

    def test_refresh_surfaces_manifest_corruption(self, tmp_path):
        directory = _built_store(tmp_path)
        query = StoreQuery(directory)
        assert query.monitored_asns()
        manifest = directory / "MANIFEST"
        manifest.write_bytes(b"junk")
        with pytest.raises(StoreError):
            query.monitored_asns()

    def test_failed_sync_leaves_nothing_half_applied(self, tmp_path):
        """A long-lived engine that hits a corrupt *new* segment raises,
        and answers exactly like a fresh engine once the file is back."""
        directory = _built_store(tmp_path)
        query = StoreQuery(directory, window_bins=4)
        assert query.monitored_asns()
        writer = AlarmStoreWriter(directory, make_mapper())
        more = synthetic_bins(4, seed=22, start=6 * BIN_S)
        writer.append_bins(more[:2])
        writer.append_bins(more[2:])  # two unapplied segments, one sync
        newest = sorted(directory.glob("seg-*.seg"))[-1]
        good = newest.read_bytes()
        newest.write_bytes(good[:-9])
        with pytest.raises(StoreError):
            query.top_asns("delay", 5)
        newest.write_bytes(good)
        fresh = StoreQuery(directory, window_bins=4)
        for kind in ("delay", "forwarding"):
            assert query.top_asns(kind, 9) == fresh.top_asns(kind, 9)
            assert query.top_events(kind, 0.5, 50) == (
                fresh.top_events(kind, 0.5, 50)
            )
        for asn in fresh.monitored_asns():
            assert query.as_condition(asn) == fresh.as_condition(asn)


class TestManifestProbe:
    """``AlarmStore.refresh`` recognises an unchanged manifest by its
    bytes — no digest, no parse — and still validates anything else."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        """Paths handed to ``_unframe`` (every validated store file)."""
        seen = []
        real = store_module._unframe

        def counting(blob, magic, path):
            seen.append(Path(path).name)
            return real(blob, magic, path)

        monkeypatch.setattr(store_module, "_unframe", counting)
        return seen

    def test_unchanged_manifest_is_not_reparsed(self, tmp_path, parses):
        store = AlarmStore(_built_store(tmp_path))
        del parses[:]
        assert not store.refresh()
        assert not store.refresh()
        assert parses == []

    def test_rewritten_identical_manifest_is_a_noop(self, tmp_path, parses):
        """Same bytes under a new inode and mtime: still nothing to do."""
        directory = _built_store(tmp_path)
        store = AlarmStore(directory)
        token = store.manifest.token
        manifest = directory / "MANIFEST"
        twin = directory / "MANIFEST.twin"
        twin.write_bytes(manifest.read_bytes())
        os.replace(twin, manifest)
        del parses[:]
        assert not store.refresh()
        assert parses == [] and store.manifest.token == token

    def test_new_generation_is_parsed_once(self, tmp_path, parses):
        directory = _built_store(tmp_path)
        store = AlarmStore(directory)
        AlarmStoreWriter(directory, make_mapper()).append_bins(
            synthetic_bins(1, seed=23, start=6 * BIN_S)
        )
        del parses[:]
        assert store.refresh()
        assert not store.refresh()
        assert parses == ["MANIFEST"]
        assert store.generation == 4

    def test_corrupt_manifest_is_not_mistaken_for_unchanged(self, tmp_path):
        """Damage keeps raising on every probe, then recovery is seen."""
        directory = _built_store(tmp_path)
        store = AlarmStore(directory)
        manifest = directory / "MANIFEST"
        good = manifest.read_bytes()
        flipped = bytearray(good)
        flipped[-3] ^= 0x10
        manifest.write_bytes(bytes(flipped))
        for _ in range(2):
            with pytest.raises(StoreError):
                store.refresh()
        manifest.write_bytes(good)
        assert not store.refresh()
