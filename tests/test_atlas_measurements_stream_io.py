"""Tests for measurement specs, time binning, streaming and JSONL IO."""

import gzip

import pytest

from repro.atlas import (
    ANCHORING,
    BUILTIN,
    DecodeWarning,
    FeedTailer,
    MeasurementKind,
    MeasurementSpec,
    TimeBinner,
    TracerouteDecodeError,
    bin_start,
    make_traceroute,
    minimum_usable_bin_s,
    shortest_detectable_event_s,
    write_traceroutes,
)
from repro.reference import TracerouteStream, read_traceroutes


class TestMeasurementSpecs:
    def test_builtin_rate_matches_paper(self):
        assert BUILTIN.interval_s == 1800
        assert BUILTIN.rate_per_hour == 2.0

    def test_anchoring_rate_matches_paper(self):
        assert ANCHORING.interval_s == 900
        assert ANCHORING.rate_per_hour == 4.0

    def test_schedule(self):
        times = list(BUILTIN.schedule(0, 7200))
        assert times == [0, 1800, 3600, 5400]

    def test_schedule_with_offset(self):
        times = list(BUILTIN.schedule(0, 3600, offset=600))
        assert times == [600, 2400]

    def test_schedule_validates(self):
        with pytest.raises(ValueError):
            list(BUILTIN.schedule(100, 0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MeasurementSpec(MeasurementKind.BUILTIN, interval_s=0)
        with pytest.raises(ValueError):
            MeasurementSpec(MeasurementKind.BUILTIN, interval_s=60, packets_per_hop=0)

    def test_expected_packets_appendix_b(self):
        """3 probes on builtin for one hour: 3*2*3 = 18 packets."""
        assert BUILTIN.expected_packets_per_bin(3, 3600) == 18.0

    def test_minimum_usable_bin(self):
        """Appendix B: builtin Tmin = 0.5h, anchoring Tmin = 0.25h."""
        assert minimum_usable_bin_s(BUILTIN) == pytest.approx(1800.0)
        assert minimum_usable_bin_s(ANCHORING) == pytest.approx(900.0)

    def test_shortest_detectable_event_eq11(self):
        """Paper: builtin, n=3, T=1h -> 33 min; anchoring at Tmin -> 9 min."""
        builtin_s = shortest_detectable_event_s(BUILTIN, n_probes=3, bin_s=3600)
        assert builtin_s / 60 == pytest.approx(33.33, abs=0.1)
        anchoring_s = shortest_detectable_event_s(ANCHORING, n_probes=3, bin_s=900)
        assert anchoring_s / 60 == pytest.approx(9.17, abs=0.2)

    def test_shortest_detectable_event_validates(self):
        with pytest.raises(ValueError):
            shortest_detectable_event_s(BUILTIN, n_probes=0, bin_s=3600)


def _tr(ts, prb=1):
    return make_traceroute(prb, "10.0.0.1", "10.9.9.9", ts, [[("10.0.0.2", 1.0)]])


class TestBinning:
    def test_bin_start(self):
        assert bin_start(3725, 3600) == 3600
        assert bin_start(0, 3600) == 0
        with pytest.raises(ValueError):
            bin_start(0, 0)

    def test_binner_groups_and_sorts(self):
        binner = TimeBinner(bin_s=3600)
        bins = list(binner.bins([_tr(7300), _tr(100), _tr(200)]))
        assert [start for start, _ in bins] == [0, 3600, 7200]
        assert len(bins[0][1]) == 2
        assert bins[1][1] == []  # dense: empty middle bin kept
        assert len(bins[2][1]) == 1

    def test_binner_sparse_mode(self):
        binner = TimeBinner(bin_s=3600, dense=False)
        bins = list(binner.bins([_tr(7300), _tr(100)]))
        assert [start for start, _ in bins] == [0, 7200]

    def test_binner_empty_input(self):
        assert list(TimeBinner().bins([])) == []

    def test_binner_validation(self):
        with pytest.raises(ValueError):
            TimeBinner(bin_s=0)

    def test_dense_mode_fills_large_gap(self):
        """A long quiet stretch yields one empty bin per missing hour —
        the uniform clock the sliding-window magnitude metric needs."""
        gap_bins = 500
        binner = TimeBinner(bin_s=3600, dense=True)
        bins = list(binner.bins([_tr(100), _tr(gap_bins * 3600 + 50)]))
        assert len(bins) == gap_bins + 1
        assert [start for start, _ in bins] == [
            i * 3600 for i in range(gap_bins + 1)
        ]
        assert len(bins[0][1]) == 1 and len(bins[-1][1]) == 1
        assert all(payload == [] for _, payload in bins[1:-1])

    def test_dense_mode_multiple_gaps(self):
        binner = TimeBinner(bin_s=3600, dense=True)
        bins = list(binner.bins([_tr(0), _tr(3 * 3600), _tr(7 * 3600)]))
        populated = [start for start, payload in bins if payload]
        empty = [start for start, payload in bins if not payload]
        assert populated == [0, 3 * 3600, 7 * 3600]
        assert empty == [h * 3600 for h in (1, 2, 4, 5, 6)]

    def test_dense_mode_negative_timestamps(self):
        """Bin alignment floors correctly below zero (pre-epoch data)."""
        binner = TimeBinner(bin_s=3600, dense=True)
        bins = list(binner.bins([_tr(-3601), _tr(100)]))
        assert [start for start, _ in bins] == [-7200, -3600, 0]
        assert len(bins[0][1]) == 1
        assert bins[1][1] == []


class TestTracerouteStream:
    def test_bins_close_in_order(self):
        stream = TracerouteStream(bin_s=3600, lateness_bins=1)
        assert stream.push(_tr(100)) == []
        assert stream.push(_tr(3700)) == []  # previous bin still in lateness
        closed = stream.push(_tr(7300))
        assert [start for start, _ in closed] == [0]
        remaining = stream.drain()
        assert [start for start, _ in remaining] == [3600, 7200]

    def test_late_results_tolerated_within_window(self):
        stream = TracerouteStream(bin_s=3600, lateness_bins=1)
        stream.push(_tr(3700))
        stream.push(_tr(100))  # late but within tolerance
        closed = stream.drain()
        assert [start for start, _ in closed] == [0, 3600]
        assert stream.dropped_late == 0

    def test_very_late_results_dropped(self):
        stream = TracerouteStream(bin_s=3600, lateness_bins=0)
        stream.push(_tr(100))
        stream.push(_tr(3700))  # closes bin 0
        stream.push(_tr(200))  # bin 0 already closed -> dropped
        assert stream.dropped_late == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TracerouteStream(bin_s=0)
        with pytest.raises(ValueError):
            TracerouteStream(lateness_bins=-1)

    def test_forward_jump_closes_several_bins_at_once(self):
        """A result far in the future closes every bin behind the
        lateness horizon in one push, oldest first."""
        stream = TracerouteStream(bin_s=3600, lateness_bins=1)
        stream.push(_tr(100))
        stream.push(_tr(3700))
        closed = stream.push(_tr(10 * 3600 + 5))
        assert [start for start, _ in closed] == [0, 3600]
        assert stream.dropped_late == 0

    def test_out_of_order_within_lateness_buffers_into_right_bin(self):
        """Results arriving shuffled inside the tolerance window land in
        their own bins, not the bin that was open on arrival."""
        stream = TracerouteStream(bin_s=3600, lateness_bins=2)
        for ts in (7300, 100, 3700, 200, 7400):
            assert stream.push(_tr(ts)) == []
        closed = stream.drain()
        assert [start for start, _ in closed] == [0, 3600, 7200]
        sizes = {start: len(members) for start, members in closed}
        assert sizes == {0: 2, 3600: 1, 7200: 2}

    def test_drop_applies_only_below_watermark(self):
        """After a bin closes, stragglers for it are dropped but results
        for still-open bins keep buffering."""
        stream = TracerouteStream(bin_s=3600, lateness_bins=0)
        stream.push(_tr(100))
        stream.push(_tr(3700))  # closes bin 0
        assert stream.push(_tr(50)) == []  # bin 0: dropped
        assert stream.dropped_late == 1
        assert stream.push(_tr(3800)) == []  # bin 3600 still open: kept
        closed = stream.drain()
        assert [start for start, _ in closed] == [3600]
        assert len(closed[0][1]) == 2

    def test_drain_advances_watermark(self):
        """Everything at or before the last drained bin is late after a
        drain, even if no push ever closed a bin."""
        stream = TracerouteStream(bin_s=3600, lateness_bins=5)
        stream.push(_tr(100))
        stream.push(_tr(3700))
        assert [start for start, _ in stream.drain()] == [0, 3600]
        stream.push(_tr(200))  # behind the drained watermark
        assert stream.dropped_late == 1
        assert stream.push(_tr(3900)) == []
        assert stream.dropped_late == 2  # bin 3600 was drained too


class TestDenseTracerouteStream:
    """The live path's dense clock and resume semantics."""

    def test_dense_fills_gap_between_closed_bins(self):
        """A multi-bin silence emits empty bins, exactly like the
        batch binner's dense mode — the per-bin reference clock the
        incremental engine depends on stays uniform."""
        stream = TracerouteStream(bin_s=3600, lateness_bins=0, dense=True)
        stream.push(_tr(100))
        closed = stream.push(_tr(5 * 3600 + 10))  # closes bin 0, gap 1-4
        assert [start for start, _ in closed] == [0]
        closed = stream.drain()
        assert [start for start, _ in closed] == [
            3600, 7200, 10800, 14400, 18000,
        ]
        assert [len(members) for _, members in closed] == [0, 0, 0, 0, 1]

    def test_dense_gap_spanning_push_and_drain(self):
        """Gap bins are emitted exactly once even when the closing spans
        several pushes."""
        stream = TracerouteStream(bin_s=3600, lateness_bins=1, dense=True)
        stream.push(_tr(100))
        closed = stream.push(_tr(3 * 3600 + 5))
        assert [start for start, _ in closed] == [0]
        closed = stream.push(_tr(6 * 3600 + 5))
        assert [start for start, _ in closed] == [3600, 7200, 10800]
        assert [len(members) for _, members in closed] == [0, 0, 1]
        assert [start for start, _ in stream.drain()] == [14400, 18000, 21600]

    def test_dense_without_gaps_matches_sparse(self):
        stream = TracerouteStream(bin_s=3600, lateness_bins=0, dense=True)
        out = []
        for ts in (100, 3700, 7300):
            out += stream.push(_tr(ts))
        out += stream.drain()
        assert [start for start, _ in out] == [0, 3600, 7200]
        assert all(members for _, members in out)

    def test_start_after_drops_replayed_not_late(self):
        """Re-reading a feed after a checkpoint: everything at or before
        start_after is replay, everything newly late still counts as
        late."""
        stream = TracerouteStream(
            bin_s=3600, lateness_bins=0, start_after=7200
        )
        assert stream.push(_tr(100)) == []
        assert stream.push(_tr(7300)) == []
        assert stream.dropped_replayed == 2
        assert stream.dropped_late == 0
        assert stream.push(_tr(10900)) == []  # bin 10800 opens
        closed = stream.push(_tr(14500))  # closes bin 10800
        assert [start for start, _ in closed] == [10800]
        assert stream.push(_tr(10950)) == []  # genuinely late now
        assert stream.dropped_late == 1
        assert stream.dropped_replayed == 2

    def test_start_after_with_dense_fills_from_checkpoint(self):
        """A resumed dense stream emits the empty bins between the
        checkpointed bin and the first new data."""
        stream = TracerouteStream(
            bin_s=3600, lateness_bins=0, dense=True, start_after=3600
        )
        stream.push(_tr(4 * 3600 + 10))
        closed = stream.drain()
        assert [start for start, _ in closed] == [7200, 10800, 14400]
        assert [len(members) for _, members in closed] == [0, 0, 1]

    def test_start_after_must_be_aligned(self):
        with pytest.raises(ValueError):
            TracerouteStream(bin_s=3600, start_after=100)
        TracerouteStream(bin_s=3600, start_after=-3600)  # aligned: fine


class TestJsonlIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "results.jsonl"
        originals = [_tr(100, prb=1), _tr(200, prb=2)]
        assert write_traceroutes(path, originals) == 2
        restored = list(read_traceroutes(path))
        assert restored == originals

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "results.jsonl.gz"
        originals = [_tr(100)]
        write_traceroutes(path, originals)
        assert list(read_traceroutes(path)) == originals

    def test_corrupt_line_strict(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"prb_id": 1}\n')
        with pytest.raises(TracerouteDecodeError) as excinfo:
            list(read_traceroutes(path))
        assert excinfo.value.line_number == 1

    def test_strict_reports_offending_line_number(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        write_traceroutes(path, [_tr(100), _tr(200)])
        with open(path, "a") as handle:
            handle.write("this is not json\n")
        with pytest.raises(TracerouteDecodeError) as excinfo:
            list(read_traceroutes(path))
        assert excinfo.value.line_number == 3

    def test_corrupt_line_lenient_warns_with_count(self, tmp_path):
        """Lenient reads skip bad lines but say how many were lost."""
        path = tmp_path / "mixed.jsonl"
        write_traceroutes(path, [_tr(100)])
        with open(path, "a") as handle:
            handle.write("this is not json\n")
            handle.write('{"prb_id": 2}\n')
        with pytest.warns(DecodeWarning) as captured:
            results = list(read_traceroutes(path, strict=False))
        assert len(results) == 1
        assert len(captured) == 1
        assert captured[0].message.skipped == 2
        assert "skipped 2" in str(captured[0].message)

    def test_lenient_clean_file_does_not_warn(self, tmp_path):
        import warnings

        path = tmp_path / "clean.jsonl"
        write_traceroutes(path, [_tr(100)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(list(read_traceroutes(path, strict=False))) == 1

    def test_gzip_corrupt_line_strict(self, tmp_path):
        path = tmp_path / "bad.jsonl.gz"
        originals = [_tr(100)]
        write_traceroutes(path, originals)
        with gzip.open(path, "at", encoding="utf-8") as handle:
            handle.write("broken\n")
        with pytest.raises(TracerouteDecodeError) as excinfo:
            list(read_traceroutes(path))
        assert excinfo.value.line_number == 2

    def test_gzip_corrupt_line_lenient_roundtrip(self, tmp_path):
        """The .gz path honours both strict modes and round-trips the
        decodable lines."""
        path = tmp_path / "mixed.jsonl.gz"
        originals = [_tr(100), _tr(3700)]
        write_traceroutes(path, originals)
        with gzip.open(path, "at", encoding="utf-8") as handle:
            handle.write("broken\n")
        with pytest.warns(DecodeWarning) as captured:
            assert list(read_traceroutes(path, strict=False)) == originals
        assert captured[0].message.skipped == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        write_traceroutes(path, [_tr(100)])
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(list(read_traceroutes(path))) == 1


class TestFeedTailer:
    """Regression tests for follow-mode truncation/rotation handling.

    The pre-PR-7 follow loop kept its read offset when the feed shrank
    (logrotate ``copytruncate``) or was replaced (rename + recreate),
    stalling forever past EOF.  The tailer must detect both, reopen,
    count the reopen, and keep yielding.
    """

    def drive(self, tailer, script):
        """Run tailer.lines() with *script* steps between idle polls.

        *script* maps poll number → callable; the tailer's injected
        sleep runs the step due at each idle poll.  Returns the lines
        yielded until the iterator finishes (idle_timeout).
        """
        polls = {"n": 0}

        def fake_sleep(_seconds):
            step = script.get(polls["n"])
            polls["n"] += 1
            if step is not None:
                step()

        tailer._sleep = fake_sleep
        return list(tailer.lines())

    def test_plain_read_without_follow(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text("a\nb\n")
        tailer = FeedTailer(str(path))
        assert list(tailer.lines()) == ["a\n", "b\n"]
        assert tailer.reopens == 0

    def test_unterminated_final_line_yielded_at_eof(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text("a\ntail-without-newline")
        assert list(FeedTailer(str(path)).lines()) == [
            "a\n", "tail-without-newline"
        ]

    def test_follow_picks_up_appends(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text("a\n")
        tailer = FeedTailer(
            str(path), follow=True, poll=0.1, idle_timeout=0.3
        )
        lines = self.drive(tailer, {
            0: lambda: path.open("a").write("b\n"),
        })
        assert lines == ["a\n", "b\n"]
        assert tailer.reopens == 0

    def test_truncation_reopens_from_top(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text("a\nb\n")
        tailer = FeedTailer(
            str(path), follow=True, poll=0.1, idle_timeout=0.3
        )
        lines = self.drive(tailer, {
            0: lambda: path.write_text("c\n"),  # copytruncate-style
        })
        assert lines == ["a\n", "b\n", "c\n"]
        assert tailer.reopens == 1

    def test_rotation_reopens_new_file(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text("a\n")

        def rotate():
            path.rename(tmp_path / "feed.jsonl.1")
            # The replacement is longer than the old file, so only the
            # inode change can reveal the rotation.
            path.write_text("brand\nnew\nfeed\n")

        tailer = FeedTailer(
            str(path), follow=True, poll=0.1, idle_timeout=0.3
        )
        lines = self.drive(tailer, {0: rotate})
        assert lines == ["a\n", "brand\n", "new\n", "feed\n"]
        assert tailer.reopens == 1

    def test_partial_line_dropped_on_truncation(self, tmp_path):
        # The bytes that would have completed the partial line vanished
        # with the old content; keeping the fragment would glue two
        # unrelated records together.
        path = tmp_path / "feed.jsonl"
        path.write_text("a\npart")
        tailer = FeedTailer(
            str(path), follow=True, poll=0.1, idle_timeout=0.3
        )
        lines = self.drive(tailer, {
            0: lambda: path.write_text("b\n"),
        })
        assert lines == ["a\n", "b\n"]
        assert tailer.reopens == 1

    def test_mid_rotation_gap_is_idle_not_fatal(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text("a\n")

        def vanish():
            path.unlink()  # rotation in progress, new file not yet there

        def reappear():
            path.write_text("b\n")

        tailer = FeedTailer(
            str(path), follow=True, poll=0.1, idle_timeout=0.5
        )
        lines = self.drive(tailer, {0: vanish, 1: reappear})
        assert lines == ["a\n", "b\n"]
        assert tailer.reopens == 1

    def test_rejects_bad_poll(self, tmp_path):
        with pytest.raises(ValueError):
            FeedTailer(str(tmp_path / "f"), poll=0.0)
