"""The live ingest path: chunked tailing, columnar decode, lateness window.

``monitor`` reads its feed as chunks of complete lines
(:meth:`FeedTailer.chunks`), decodes them straight into columns
(:func:`decode_lines`) and closes bins through :class:`ColumnarStream`.
The object path — ``Traceroute.from_json`` + :class:`TracerouteStream` —
is the oracle: for any input order, chunking, lateness and resume point
both must close the same bins with the same traceroutes and count the
same drops and skips.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atlas import (
    ColumnarStream,
    FeedTailer,
    Traceroute,
    TracerouteBatch,
    decode_lines,
    make_traceroute,
)
from repro.atlas import columnar
from repro.core import Engine, PipelineConfig
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.reference import Pipeline, TracerouteStream

BIN_S = 3600

ip_strategy = st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.1.1", "10.1.0.1"])
rtt_strategy = st.floats(min_value=0.1, max_value=200.0, allow_nan=False)

#: Lines that are not traceroutes: blank ones are dropped silently,
#: the rest are skipped and counted by both paths.
JUNK = [b"\n", b"   \n", b"not json\n", b'{"half": true}\n', b"[1, 2]\n", b"7\n"]


@st.composite
def record_line(draw):
    """One feed line for a traceroute anywhere in (or before) ten bins."""
    hop_replies = [
        [
            (draw(ip_strategy), draw(rtt_strategy))
            if draw(st.booleans())
            else (None, None)
            for _ in range(draw(st.integers(1, 3)))
        ]
        for _ in range(draw(st.integers(0, 4)))
    ]
    traceroute = make_traceroute(
        prb_id=draw(st.integers(0, 20)),
        src_addr="192.0.2.1",
        dst_addr=draw(ip_strategy),
        timestamp=draw(st.integers(-2 * BIN_S, 8 * BIN_S)),
        hop_replies=hop_replies,
        from_asn=draw(st.sampled_from([65001, 65002, None])),
    )
    return json.dumps(traceroute.to_json()).encode() + b"\n"


def _chunked(lines, cuts):
    """*lines* split into consecutive chunks at the sorted *cuts*."""
    bounds = [0] + sorted(cuts) + [len(lines)]
    return [lines[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _object_path(lines, **window):
    """What the per-object loop closes, drops and skips for *lines*."""
    stream = TracerouteStream(bin_s=BIN_S, **window)
    closed, skipped = [], 0
    for line in lines:
        if not line.strip():
            continue
        try:
            traceroute = Traceroute.from_json(json.loads(line))
        except (ValueError, KeyError, TypeError, AttributeError):
            skipped += 1
            continue
        closed += stream.push(traceroute)
    closed += stream.drain()
    return closed, (stream.dropped_late, stream.dropped_replayed, skipped)


def _columnar_path(chunks, **window):
    stream = ColumnarStream(bin_s=BIN_S, **window)
    closed = []
    for chunk in chunks:
        # Views are only valid until the next push: materialise now.
        closed += [
            (start, view.to_traceroutes()) for start, view in stream.push(chunk)
        ]
    closed += [(start, view.to_traceroutes()) for start, view in stream.drain()]
    return closed, (stream.dropped_late, stream.dropped_replayed, stream.skipped)


class TestColumnarStreamMatchesObjectStream:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        lines=st.lists(
            st.one_of(record_line(), st.sampled_from(JUNK)), max_size=30
        ),
        data=st.data(),
        lateness=st.sampled_from([0, 1, 2]),
        dense=st.booleans(),
        start_after=st.one_of(
            st.none(), st.integers(-3, 8).map(lambda k: k * BIN_S)
        ),
        terminated=st.booleans(),
    )
    def test_same_bins_drops_and_skips(
        self, lines, data, lateness, dense, start_after, terminated
    ):
        if lines and not terminated:
            lines = lines[:-1] + [lines[-1].rstrip(b"\n")]
        cuts = data.draw(
            st.lists(st.integers(0, len(lines)), max_size=6), label="cuts"
        )
        window = dict(
            lateness_bins=lateness, dense=dense, start_after=start_after
        )
        assert _columnar_path(_chunked(lines, cuts), **window) == _object_path(
            lines, **window
        )

    def test_out_of_order_arrivals_inside_one_chunk(self):
        """A run of rows for one bin is one window step; a straggler
        between two runs is dropped exactly where the object path
        drops it."""
        def line(prb_id, timestamp):
            return json.dumps(
                make_traceroute(
                    prb_id, "192.0.2.1", "10.0.0.9", timestamp,
                    [[("10.0.0.1", 1.0)]],
                ).to_json()
            ).encode() + b"\n"

        lines = [
            line(1, 10), line(2, 20),
            line(3, 2 * BIN_S + 5),  # closes bin 0 (lateness 1)
            line(4, 30),             # late for the closed bin 0
            line(5, BIN_S + 1),      # bin 1 is still open
        ]
        closed, counts = _columnar_path([lines], lateness_bins=1, dense=True)
        assert closed == _object_path(lines, lateness_bins=1, dense=True)[0]
        assert [(start, len(rows)) for start, rows in closed] == [
            (0, 2), (BIN_S, 1), (2 * BIN_S, 1)
        ]
        assert counts == (1, 0, 0)


class TestDecoderDivergences:
    """Where columns are narrower than objects, lines are *skipped and
    counted* — never accepted with different content."""

    def _line(self, **overrides):
        record = make_traceroute(
            1, "192.0.2.1", "10.0.0.9", 100, [[("10.0.0.1", 1.0)]]
        ).to_json()
        record.update(overrides)
        return json.dumps(record)

    @pytest.mark.skipif(
        columnar._orjson is None,
        reason="the stdlib parser accepts the NaN literal",
    )
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_float_literals(self, literal):
        line = self._line().replace('"rtt": 1.0', f'"rtt": {literal}')
        assert Traceroute.from_json(json.loads(line))  # objects take it
        stream = ColumnarStream(bin_s=BIN_S)
        assert stream.push([line.encode()]) == []
        assert (stream.skipped, len(stream.batch)) == (1, 0)

    def test_integers_beyond_64_bits(self):
        line = self._line(prb_id=2**70)
        assert Traceroute.from_json(json.loads(line)).prb_id == 2**70
        stream = ColumnarStream(bin_s=BIN_S)
        assert stream.push([line.encode()]) == []
        assert (stream.skipped, len(stream.batch)) == (1, 0)

    def test_json_that_is_not_an_object_is_skipped_not_fatal(self):
        batch = TracerouteBatch()
        lines = [b"[1, 2]\n", b'"text"\n', b"7\n", self._line().encode()]
        assert decode_lines(batch, lines) == 3
        assert len(batch) == 1

    def test_a_rolled_back_line_leaves_whole_traceroutes_only(self):
        good = self._line().encode()
        # Fails at the very end, after its hops and replies were appended.
        torn = self._line(from_asn=-5).encode()
        batch = TracerouteBatch()
        assert decode_lines(batch, [good, torn, good]) == 1
        assert batch.to_traceroutes() == [
            Traceroute.from_json(json.loads(good))
        ] * 2


class TestWindowRelease:
    def test_resident_rows_follow_the_window_not_the_feed(self):
        """Closed bins' columns are released: the batch never holds
        more than a few windows' worth of rows however long the feed."""
        per_bin, n_bins, chunk_rows = 20, 60, 7
        lines = [
            json.dumps(
                make_traceroute(
                    row, "192.0.2.1", "10.0.0.9", start * BIN_S + row,
                    [[("10.0.0.1", 1.0)], [("10.0.0.2", 2.0)]],
                ).to_json()
            ).encode()
            for start in range(n_bins)
            for row in range(per_bin)
        ]
        stream = ColumnarStream(bin_s=BIN_S, lateness_bins=1, dense=True)
        resident, closed_rows = 0, 0
        for first in range(0, len(lines), chunk_rows):
            for _start, view in stream.push(lines[first:first + chunk_rows]):
                closed_rows += len(view)
            resident = max(resident, len(stream.batch))
        closed_rows += sum(len(view) for _start, view in stream.drain())
        assert closed_rows == per_bin * n_bins
        window_rows = 2 * per_bin  # lateness + 1 bins
        assert resident <= 2 * window_rows + chunk_rows + per_bin
        assert resident < len(lines) / 5

    def test_take_keeps_rows_and_interner(self):
        traceroutes = [
            make_traceroute(
                index, "192.0.2.1", "10.0.0.9", index,
                [[(f"10.0.0.{index}", 1.0 + index)], [(None, None)]][: index % 3],
                from_asn=None if index % 2 else 65000 + index,
            )
            for index in range(7)
        ]
        batch = TracerouteBatch.from_traceroutes(traceroutes)
        taken = batch.take([5, 2, 6])
        assert taken.interner is batch.interner
        assert taken.to_traceroutes() == [
            traceroutes[5], traceroutes[2], traceroutes[6]
        ]
        assert len(batch.take([])) == 0
        # The copy is appendable, like any in-memory batch.
        taken.append(traceroutes[0])
        assert taken.traceroute_at(3) == traceroutes[0]


class TestEngineOverFreshBatches:
    """A fresh batch per window on one interner: the engine refreshes
    ranks for new strings and keeps its id-keyed caches."""

    def test_matches_serial_oracle_and_keeps_caches(self):
        import numpy as np

        rng = np.random.default_rng(11)
        traceroutes = []
        for start in range(8):
            for probe in range(9):
                # New addresses keep appearing, so the interner grows
                # while old ids stay in use.
                far = f"10.0.{start // 3}.2"
                traceroutes.append(
                    make_traceroute(
                        probe, f"src{probe}", "10.9.9.9",
                        start * BIN_S + probe,
                        [
                            [("10.0.0.1", 10.0 + float(rng.normal(0, 0.1)))],
                            [(far, 16.0 + float(rng.normal(0, 0.1)))],
                        ],
                        from_asn=65001 + probe % 4,
                    )
                )
        expected = Pipeline(PipelineConfig()).run(traceroutes)
        lines = [
            json.dumps(traceroute.to_json()).encode()
            for traceroute in traceroutes
        ]
        stream = ColumnarStream(bin_s=BIN_S, lateness_bins=0, dense=True)
        results, batches, cache_sizes = [], set(), []
        engine = Engine()
        for first in range(0, len(lines), 9):
            for start, view in stream.push(lines[first:first + 9]):
                results.append(engine.process_bin(start, view))
                batches.add(id(view.batch))
                cache_sizes.append(len(engine._pair_links))
        for start, view in stream.drain():
            results.append(engine.process_bin(start, view))
        assert results == expected
        assert len(batches) > 1, "vacuous: the window never changed batch"
        assert cache_sizes == sorted(cache_sizes) and cache_sizes[0] > 0


class TestFeedTailerChunks:
    def _follow(self, path, script):
        """A following tailer whose idle polls run *script*'s steps."""
        polls = {"n": 0}

        def fake_sleep(_seconds):
            step = script.get(polls["n"])
            polls["n"] += 1
            if step is not None:
                step()

        return FeedTailer(
            str(path), follow=True, poll=0.1, idle_timeout=0.3,
            sleep=fake_sleep,
        )

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        body=st.lists(
            st.binary(max_size=12).filter(lambda b: b"\n" not in b),
            max_size=12,
        ),
        terminated=st.booleans(),
        size_hint=st.integers(1, 64),
    )
    def test_chunks_hold_every_byte_once_as_complete_lines(
        self, tmp_path, body, terminated, size_hint
    ):
        content = b"\n".join(body) + (b"\n" if terminated and body else b"")
        path = tmp_path / "feed.jsonl"
        path.write_bytes(content)
        chunks = list(FeedTailer(str(path)).chunks(size_hint))
        assert all(chunks), "an empty chunk was handed over"
        lines = [line for chunk in chunks for line in chunk]
        assert b"".join(lines) == content
        assert all(line.endswith(b"\n") for line in lines[:-1])

    def test_a_line_split_across_reads_arrives_whole(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_bytes(b"a\nb\nhal")

        def finish():
            with open(path, "ab") as handle:
                handle.write(b"f\nc\n")

        chunks = list(self._follow(path, {0: finish}).chunks())
        assert chunks == [[b"a\n", b"b\n"], [b"half\n", b"c\n"]]

    def test_truncation_mid_chunk_drops_the_held_fragment(self, tmp_path):
        # The bytes that would have completed "part" vanished with the
        # old content; gluing it to the new file's first line would
        # fabricate a record.
        path = tmp_path / "feed.jsonl"
        path.write_bytes(b"a\nb\npart")
        tailer = self._follow(path, {0: lambda: path.write_bytes(b"c\n")})
        assert list(tailer.chunks()) == [[b"a\n", b"b\n"], [b"c\n"]]
        assert tailer.reopens == 1

    def test_rotation_mid_chunk_reopens_and_counts(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_bytes(b"a\npart")

        def rotate():
            path.rename(tmp_path / "feed.jsonl.1")
            # Longer than the old file: only the inode reveals it.
            path.write_bytes(b"brand\nnew\nfeed\n")

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            tailer = self._follow(path, {0: rotate})
            chunks = list(tailer.chunks())
        finally:
            set_default_registry(previous)
        assert chunks == [[b"a\n"], [b"brand\n", b"new\n", b"feed\n"]]
        assert tailer.reopens == 1
        [family] = [
            family for family in registry.collect()
            if family.name == "repro_ingest_feed_reopens_total"
        ]
        assert [child.value for child in family.children] == [1.0]
