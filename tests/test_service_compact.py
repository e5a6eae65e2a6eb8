"""Compaction and retention tests: bit-identical answers across rewrites.

The compactor's contract is exact: merging segments (in any schedule)
must leave every :class:`StoreQuery` answer bit-identical to the
uncompacted store, coarsening must preserve everything the severity
journal feeds, and the generation-token cutover must keep live
readers, writers and response caches coherent.  A hypothesis property
drives random campaigns × random segment chunkings × random compaction
schedules through the full equivalence check.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reference import InternetHealthReport
from repro.service.compact import (
    CompactionPolicy,
    CompactionReport,
    compact_store,
)
from repro.service.query import StoreQuery
from repro.service.store import (
    AlarmStoreWriter,
    StoreError,
    read_manifest,
)
from tests.test_service_store import (
    BIN_S,
    IPS,
    analysis_of,
    assert_equivalent,
    build_store,
    make_mapper,
    synthetic_bins,
)


def assert_same_answers(left: StoreQuery, right: StoreQuery, bins) -> None:
    """Every query answer of *left* must equal *right*'s, bit for bit."""
    assert left.monitored_asns() == right.monitored_asns()
    for asn in left.monitored_asns() + [99999]:
        assert left.as_condition(asn) == right.as_condition(asn)
        assert left.links_of(asn) == right.links_of(asn)
        for kind in ("delay", "forwarding"):
            left_ts, left_vals = left.magnitude_series(asn, kind)
            right_ts, right_vals = right.magnitude_series(asn, kind)
            assert left_ts == right_ts
            assert np.array_equal(left_vals, right_vals)
    for kind in ("delay", "forwarding"):
        assert left.top_asns(kind, 10) == right.top_asns(kind, 10)
        assert left.top_events(kind, 0.5, 50) == right.top_events(
            kind, 0.5, 50
        )
    for result in bins:
        assert left.alarms_at(result.timestamp) == right.alarms_at(
            result.timestamp
        )
    for ip in IPS[:3]:
        assert left.alarms_involving(ip) == right.alarms_involving(ip)


class TestMergeEquivalence:
    def test_merge_matches_ihr_bit_for_bit(self, tmp_path):
        mapper = make_mapper()
        bins = synthetic_bins(12, seed=21)
        build_store(tmp_path / "store", bins, mapper, chunk=1)
        before = read_manifest(tmp_path / "store")
        report = InternetHealthReport(analysis_of(bins, mapper))
        live = StoreQuery(tmp_path / "store")
        assert_equivalent(report, live, bins)

        result = compact_store(
            tmp_path / "store", CompactionPolicy(max_segments=3)
        )
        assert isinstance(result, CompactionReport)
        assert result.changed and result.merged == 10
        after = read_manifest(tmp_path / "store")
        assert len(after.segments) == 3
        assert after.generation == before.generation + 1
        assert after.store_id == before.store_id
        assert (after.start, after.end, after.bin_s) == (
            before.start, before.end, before.bin_s
        )
        # A fresh engine and the live engine (post-refresh cutover)
        # both still answer bit-identically to the in-memory IHR.
        assert_equivalent(report, StoreQuery(tmp_path / "store"), bins)
        assert live.refresh()
        assert_equivalent(report, live, bins)

    def test_replaced_segment_files_are_removed(self, tmp_path):
        bins = synthetic_bins(10, seed=3)
        build_store(tmp_path / "store", bins, make_mapper(), chunk=1)
        names_before = {
            p.name for p in (tmp_path / "store").glob("seg-*.seg")
        }
        compact_store(tmp_path / "store", CompactionPolicy(max_segments=2))
        names_after = {
            p.name for p in (tmp_path / "store").glob("seg-*.seg")
        }
        manifest = read_manifest(tmp_path / "store")
        assert names_after == {m.name for m in manifest.segments}
        assert len(names_after & names_before) <= 1  # only the newest kept

    def test_full_disk_mid_pass_leaves_the_store_as_found(
        self, tmp_path, monkeypatch
    ):
        """A segment write failing after another one succeeded removes
        the pass's new files; the old manifest still rules."""
        import errno

        from repro import binfmt

        store = tmp_path / "store"
        build_store(store, synthetic_bins(6, seed=5), make_mapper(), chunk=1)
        before = {p.name: p.read_bytes() for p in store.iterdir()}
        real, calls = binfmt.atomic_write, []

        def fill_up(path, fmt, chunks):
            calls.append(Path(path).name)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(path, fmt, chunks)

        monkeypatch.setattr(binfmt, "atomic_write", fill_up)
        with pytest.raises(OSError):
            compact_store(store, CompactionPolicy(
                max_segments=None, coarsen_after_bins=2
            ))
        assert len(calls) == 2
        assert {p.name: p.read_bytes() for p in store.iterdir()} == before

    def test_noop_pass_publishes_nothing(self, tmp_path):
        bins = synthetic_bins(6, seed=5)
        build_store(tmp_path / "store", bins, make_mapper(), chunk=3)
        before = read_manifest(tmp_path / "store")
        result = compact_store(
            tmp_path / "store", CompactionPolicy(max_segments=8)
        )
        assert not result.changed
        assert result.bytes_after == result.bytes_before
        after = read_manifest(tmp_path / "store")
        assert after.token == before.token

    def test_dry_run_writes_nothing(self, tmp_path):
        bins = synthetic_bins(10, seed=9)
        build_store(tmp_path / "store", bins, make_mapper(), chunk=1)
        before = read_manifest(tmp_path / "store")
        result = compact_store(
            tmp_path / "store",
            CompactionPolicy(max_segments=2),
            dry_run=True,
        )
        assert result.changed and result.dry_run
        assert result.bytes_after is None
        assert result.segments_after < result.segments_before
        assert read_manifest(tmp_path / "store").token == before.token

    @given(
        seed=st.integers(0, 2**16),
        n_bins=st.integers(4, 10),
        chunk=st.integers(1, 4),
        schedule=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_schedule_is_bit_identical(
        self, seed, n_bins, chunk, schedule
    ):
        """Random campaign × chunking × compaction schedule ≡ untouched.

        The reference store is never compacted; the subject store runs
        an arbitrary sequence of merge passes.  Every query answer must
        stay bit-identical throughout.
        """
        mapper = make_mapper()
        bins = synthetic_bins(n_bins, seed)
        with tempfile.TemporaryDirectory() as tmp:
            build_store(Path(tmp) / "ref", bins, mapper, chunk)
            build_store(Path(tmp) / "sub", bins, mapper, chunk)
            reference = StoreQuery(Path(tmp) / "ref", window_bins=4)
            subject = StoreQuery(Path(tmp) / "sub", window_bins=4)
            for max_segments in schedule:
                compact_store(
                    Path(tmp) / "sub",
                    CompactionPolicy(max_segments=max_segments),
                )
                assert_same_answers(subject, reference, bins)


def sync_counts(query: StoreQuery) -> dict:
    """``repro_query_sync_total`` by mode (process-wide, so diff it)."""
    counts = {"extend": 0.0, "rebuild": 0.0}
    for child in query._syncs.snapshot().children:
        counts[child.labelvalues[0]] = child.value
    return counts


def syncs_during(query: StoreQuery, action) -> dict:
    before = sync_counts(query)
    action()
    after = sync_counts(query)
    return {mode: int(after[mode] - before[mode]) for mode in after}


#: One step of a store's life: (operation, argument).
STEP = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 3)),  # bins in the append
    st.tuples(st.just("late"), st.integers(1, 4)),  # bins its alarms lag
    st.tuples(st.just("merge"), st.integers(1, 4)),  # max_segments
    st.tuples(st.just("coarsen"), st.integers(1, 6)),  # horizon, bins
    st.tuples(st.just("drop"), st.integers(1, 6)),  # horizon, bins
    st.tuples(st.just("recreate"), st.sampled_from([0, 2 * BIN_S])),  # start
)


class TestLongLivedEngine:
    """Appends extend the answer: one engine held across a store's life.

    Every other equivalence test opens its ``StoreQuery`` after the
    store is built.  Here one engine lives through appends, compaction
    passes, skipped generations and store recreation, and after every
    step must answer exactly like a fresh engine and like the in-memory
    ``InternetHealthReport`` — the derived state it carries from
    generation to generation is either a provable extension or rebuilt.
    The report knows nothing of retention: once a pass has coarsened
    segments it is compared on what the journal feeds, and once a pass
    has dropped history only the fresh engine is (until the store is
    recreated).
    """

    @staticmethod
    def assert_journal_answers(report, query, bins) -> None:
        """What survives coarsening: everything the journal feeds."""
        assert query.monitored_asns() == report.monitored_asns()
        for asn in report.monitored_asns() + [99999]:
            assert query.links_of(asn) == report.links_of(asn)
            for kind in ("delay", "forwarding"):
                expected_ts, expected = report.magnitude_series(asn, kind)
                actual_ts, actual = query.magnitude_series(asn, kind)
                assert actual_ts == expected_ts
                assert np.array_equal(actual, expected)
        span = bins[-1].timestamp + BIN_S
        for kind in ("delay", "forwarding"):
            assert query.top_asns(kind, 5) == report.top_asns(kind, 5)
            assert query.top_events(kind, 0.5, 50) == (
                report.top_events(kind, 0.5, 50)
            )
            assert query.events_in(0, span, kind, 0.5) == (
                report.events_in(0, span, kind, 0.5)
            )

    @staticmethod
    def campaign(seed: int, quiet_every: int, start: int = 0):
        """Bins to append, every *quiet_every*-th one without alarms (a
        quiet bin moves the clock, and old ASes' magnitudes, rowlessly)."""
        return iter(
            dataclasses.replace(result, delay_alarms=[], forwarding_alarms=[])
            if index % quiet_every == quiet_every - 1
            else result
            for index, result in enumerate(synthetic_bins(48, seed, start))
        )

    @staticmethod
    def lagged(result, lag_bins: int, floor):
        """*result* with its delay alarms stamped *lag_bins* bins earlier
        (never before *floor*, the store's start): rows that land in
        bins the engine has already scored, so rescoring must reach back."""
        if floor is None:  # the very first append sets the start itself
            return result
        return dataclasses.replace(
            result,
            delay_alarms=[
                dataclasses.replace(
                    alarm,
                    timestamp=max(floor, alarm.timestamp - lag_bins * BIN_S),
                )
                for alarm in result.delay_alarms
            ],
        )

    @given(
        seed=st.integers(0, 2**16),
        window=st.sampled_from([2, 64]),  # shorter / longer than the series
        quiet_every=st.integers(2, 5),
        warmup=st.integers(1, 4),
        schedule=st.lists(
            st.tuples(STEP, st.booleans()), min_size=2, max_size=8
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_step_matches_fresh_engine_and_ihr(
        self, seed, window, quiet_every, warmup, schedule
    ):
        mapper = make_mapper()
        # A few queried appends first, so that every later step meets an
        # engine that already carries state.
        schedule = [(("append", 1), True)] * warmup + schedule
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store"
            # No start yet: the first append sets the clock.
            writer = AlarmStoreWriter.create(path, mapper, bin_s=BIN_S)
            live = StoreQuery(path, window_bins=window)
            assert live.monitored_asns() == []
            epoch = 0
            supply = self.campaign(seed, quiet_every)
            bins, coarsened, dropped = [], False, False
            for (operation, argument), query_after in schedule:
                if operation == "append":
                    fresh_bins = [next(supply) for _ in range(argument)]
                    writer.append_bins(fresh_bins)
                    bins.extend(fresh_bins)
                elif operation == "late":
                    result = self.lagged(
                        next(supply), argument, writer.manifest.start
                    )
                    writer.append_bins([result])
                    bins.append(result)
                elif operation == "recreate":
                    epoch += 1
                    writer = AlarmStoreWriter.create(
                        path, mapper, bin_s=BIN_S, start=argument,
                        overwrite=True,
                    )
                    supply = self.campaign(
                        seed + epoch, quiet_every, start=argument
                    )
                    bins, coarsened, dropped = [], False, False
                else:
                    policy = {
                        "merge": CompactionPolicy(max_segments=argument),
                        "coarsen": CompactionPolicy(
                            max_segments=None, coarsen_after_bins=argument
                        ),
                        "drop": CompactionPolicy(
                            max_segments=None, drop_after_bins=argument
                        ),
                    }[operation]
                    report = compact_store(path, policy)
                    writer.reload()
                    coarsened = coarsened or report.coarsened > 0
                    dropped = dropped or report.dropped > 0
                if not query_after:
                    continue  # generations pile up between two queries
                assert_same_answers(
                    live, StoreQuery(path, window_bins=window), bins
                )
                if bins and not dropped:
                    ihr = InternetHealthReport(
                        analysis_of(bins, mapper), window_bins=window
                    )
                    if coarsened:
                        self.assert_journal_answers(ihr, live, bins)
                    else:
                        assert_equivalent(ihr, live, bins)

    def test_plain_appends_extend_and_rewrites_rebuild(self, tmp_path):
        """The fast path is the one taken: over N plain appends the sync
        counter reads one rebuild and N extends; a merge or a drop
        costs exactly one rebuild each, and a no-op pass nothing."""
        mapper = make_mapper()
        bins = synthetic_bins(14, seed=41)
        writer = build_store(tmp_path / "store", bins[:4], mapper, chunk=2)
        live = StoreQuery(tmp_path / "store", window_bins=4)
        ask = lambda: live.top_asns("delay", 3)  # noqa: E731
        assert syncs_during(live, ask) == {"extend": 0, "rebuild": 1}
        assert syncs_during(live, ask) == {"extend": 0, "rebuild": 0}

        def appends():
            for result in bins[4:10]:
                writer.append_bins([result])
                ask()
                live.as_condition(65001)  # same generation: no second sync

        assert syncs_during(live, appends) == {"extend": 6, "rebuild": 0}

        def skipped():
            writer.append_bins(bins[10:11])
            writer.append_bins(bins[11:12])
            ask()

        assert syncs_during(live, skipped) == {"extend": 1, "rebuild": 0}
        for policy in (
            CompactionPolicy(max_segments=3),
            CompactionPolicy(max_segments=None, drop_after_bins=1),
        ):
            assert compact_store(tmp_path / "store", policy).changed
            assert syncs_during(live, ask) == {"extend": 0, "rebuild": 1}
        assert not compact_store(
            tmp_path / "store", CompactionPolicy(max_segments=8)
        ).changed
        assert syncs_during(live, ask) == {"extend": 0, "rebuild": 0}
        writer.reload()
        writer.append_bins(bins[12:])
        assert syncs_during(live, ask) == {"extend": 1, "rebuild": 0}
        assert_same_answers(
            live, StoreQuery(tmp_path / "store", window_bins=4), bins
        )

    def test_magnitude_series_is_a_copy(self, tmp_path):
        """A caller's array must not change when a later sync rescoring
        writes into the engine's matrix."""
        mapper = make_mapper()
        bins = synthetic_bins(8, seed=43)
        writer = build_store(tmp_path / "store", bins[:6], mapper, chunk=3)
        live = StoreQuery(tmp_path / "store", window_bins=3)
        asn = live.monitored_asns()[0]
        _, held = live.magnitude_series(asn, "delay")
        snapshot = held.copy()
        writer.append_bins(bins[6:])
        _, extended = live.magnitude_series(asn, "delay")
        assert extended.size == held.size + 2
        assert np.array_equal(held, snapshot)
        held[:] = 99.0
        assert not np.any(live.magnitude_series(asn, "delay")[1] == 99.0)


class TestRetentionTiers:
    def test_coarsen_preserves_journal_answers(self, tmp_path):
        mapper = make_mapper()
        bins = synthetic_bins(12, seed=11)
        build_store(tmp_path / "ref", bins, mapper, chunk=2)
        build_store(tmp_path / "sub", bins, mapper, chunk=2)
        result = compact_store(
            tmp_path / "sub",
            CompactionPolicy(max_segments=None, coarsen_after_bins=6),
        )
        assert result.changed and result.coarsened > 0
        reference = StoreQuery(tmp_path / "ref", window_bins=4)
        subject = StoreQuery(tmp_path / "sub", window_bins=4)
        # Everything the severity journal feeds is untouched.
        assert subject.monitored_asns() == reference.monitored_asns()
        for asn in reference.monitored_asns():
            assert subject.links_of(asn) == reference.links_of(asn)
            for kind in ("delay", "forwarding"):
                _, left = subject.magnitude_series(asn, kind)
                _, right = reference.magnitude_series(asn, kind)
                assert np.array_equal(left, right)
        for kind in ("delay", "forwarding"):
            assert subject.top_asns(kind, 10) == reference.top_asns(kind, 10)
            assert subject.top_events(kind, 0.5, 50) == (
                reference.top_events(kind, 0.5, 50)
            )
        # The explicit trade: raw alarms in the coarsened range are gone.
        old_ts = bins[0].timestamp
        ref_delay, ref_fwd = reference.alarms_at(old_ts)
        if ref_delay or ref_fwd:
            sub_delay, sub_fwd = subject.alarms_at(old_ts)
            assert len(sub_delay) + len(sub_fwd) < (
                len(ref_delay) + len(ref_fwd)
            )

    def test_coarsened_segments_shrink(self, tmp_path):
        bins = synthetic_bins(12, seed=11)
        build_store(tmp_path / "store", bins, make_mapper(), chunk=2)
        result = compact_store(
            tmp_path / "store",
            CompactionPolicy(max_segments=None, coarsen_after_bins=4),
        )
        assert result.changed
        assert result.bytes_after < result.bytes_before

    def test_drop_removes_old_history_but_keeps_the_clock(self, tmp_path):
        mapper = make_mapper()
        bins = synthetic_bins(12, seed=13)
        build_store(tmp_path / "store", bins, mapper, chunk=2)
        before = read_manifest(tmp_path / "store")
        result = compact_store(
            tmp_path / "store",
            CompactionPolicy(max_segments=None, drop_after_bins=4),
        )
        assert result.changed and result.dropped > 0
        after = read_manifest(tmp_path / "store")
        assert (after.start, after.end, after.bin_s) == (
            before.start, before.end, before.bin_s
        )
        assert after.n_bins == before.n_bins
        query = StoreQuery(tmp_path / "store", window_bins=4)
        # Dropped history reads as zeros; recent bins keep their rows.
        horizon = before.end - 3 * BIN_S
        for segment in query.store.segments():
            if segment.e_ts.size:
                assert int(segment.e_ts.max()) >= horizon

    def test_second_coarsen_pass_is_a_noop(self, tmp_path):
        bins = synthetic_bins(12, seed=17)
        build_store(tmp_path / "store", bins, make_mapper(), chunk=2)
        policy = CompactionPolicy(max_segments=None, coarsen_after_bins=4)
        first = compact_store(tmp_path / "store", policy)
        assert first.changed
        second = compact_store(tmp_path / "store", policy)
        assert not second.changed  # already-coarse segments stay put

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CompactionPolicy(max_segments=0)
        with pytest.raises(ValueError):
            CompactionPolicy(coarsen_after_bins=0)
        with pytest.raises(ValueError):
            CompactionPolicy(drop_after_bins=-1)


class TestWriterCoexistence:
    def test_stale_writer_is_refused_then_reloads(self, tmp_path):
        mapper = make_mapper()
        bins = synthetic_bins(10, seed=19)
        writer = build_store(tmp_path / "store", bins[:8], mapper, chunk=1)
        result = compact_store(
            tmp_path / "store", CompactionPolicy(max_segments=2)
        )
        assert result.changed
        # The writer's cached manifest predates the compaction: an
        # append from it would resurrect the replaced segments.
        with pytest.raises(StoreError, match="advanced underneath"):
            writer.append_bins(bins[8:])
        assert writer.reload()
        writer.append_bins(bins[8:])
        report = InternetHealthReport(analysis_of(bins, mapper))
        assert_equivalent(report, StoreQuery(tmp_path / "store"), bins)

    def test_reload_without_change_reports_false(self, tmp_path):
        writer = AlarmStoreWriter.create(tmp_path / "store", make_mapper())
        assert not writer.reload()

    def test_cli_compact_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        bins = synthetic_bins(10, seed=23)
        build_store(tmp_path / "store", bins, make_mapper(), chunk=1)
        assert main(
            ["compact", str(tmp_path / "store"), "--max-segments", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "-> 2 segments" in out
        assert len(read_manifest(tmp_path / "store").segments) == 2
        assert main(
            ["compact", str(tmp_path / "store"), "--max-segments", "2"]
        ) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_cli_compact_missing_store(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["compact", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err
