"""Columnar ingestion: interner, batch round-trips, decoder, bin cache.

The columnar layer's contract is *exact* equivalence with the object
path — same traceroutes back out of the columns, same strict/lenient
error behaviour as ``read_traceroutes``, same bins from ``TimeBinner``
— plus a versioned binary cache that must fail loudly (never serve
wrong data) on foreign, stale or corrupt files.
"""

import gzip
import json
import os
import warnings

import pytest

from repro.atlas import (
    BatchView,
    BinCacheError,
    DecodeWarning,
    IPInterner,
    TimeBinner,
    TracerouteBatch,
    TracerouteDecodeError,
    bin_views,
    decode_traceroutes,
    default_cache_path,
    fingerprint_of,
    load_or_build,
    make_traceroute,
    read_bincache,
    read_traceroutes,
    write_bincache,
    write_traceroutes,
)


def _mixed_traceroutes():
    """A small campaign exercising every optional-field combination."""
    return [
        make_traceroute(
            1,
            "192.0.2.1",
            "10.9.9.9",
            100,
            [
                [("10.0.0.1", 1.5), ("10.0.0.1", 1.6), (None, None)],
                [("10.0.0.2", 4.0), ("10.0.0.3", 4.5)],
                [(None, None)],
            ],
            from_asn=65001,
            msm_id=5001,
        ),
        make_traceroute(2, "192.0.2.2", "10.9.9.9", 3700, [[("10.0.0.1", 2.0)]]),
        make_traceroute(
            3, "192.0.2.3", "10.8.8.8", 7300, [], from_asn=None, msm_id=None
        ),
    ]


class TestIPInterner:
    def test_ids_are_dense_and_stable(self):
        interner = IPInterner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0
        assert interner.lookup(1) == "b"
        assert len(interner) == 2
        assert "a" in interner and "c" not in interner

    def test_seeding_from_strings(self):
        interner = IPInterner(["x", "y"])
        assert interner.intern("x") == 0
        assert interner.intern("z") == 2
        assert interner.strings == ["x", "y", "z"]

    def test_interning_returns_same_string_object(self):
        interner = IPInterner()
        first = "10." + "0.0.1"  # avoid small-literal identity
        interner.intern(first)
        assert interner.lookup(0) is first


class TestTracerouteBatchRoundTrip:
    def test_object_round_trip_is_exact(self):
        originals = _mixed_traceroutes()
        batch = TracerouteBatch.from_traceroutes(originals)
        assert len(batch) == 3
        assert batch.to_traceroutes() == originals

    def test_negative_optional_ints_rejected(self):
        """Regression: -1 would collide with the NO_INT sentinel and
        silently round-trip to None; the batch must refuse instead."""
        for kwargs in ({"from_asn": -1}, {"msm_id": -5}):
            tr = make_traceroute(1, "s", "d", 0, [[("a", 1.0)]], **kwargs)
            with pytest.raises(ValueError):
                TracerouteBatch.from_traceroutes([tr])

    def test_negative_from_asn_is_decode_error(self, tmp_path):
        path = tmp_path / "neg.jsonl"
        path.write_text(json.dumps({
            "prb_id": 1, "src_addr": "s", "dst_addr": "d", "timestamp": 1,
            "from_asn": -1, "result": [],
        }) + "\n")
        with pytest.raises(TracerouteDecodeError):
            decode_traceroutes(path)

    def test_lost_packet_with_rtt_round_trips(self):
        """A hand-built Reply(None, rtt) keeps its RTT through columns."""
        tr = make_traceroute(1, "s", "d", 0, [[(None, 5.0), ("a", 1.0)]])
        batch = TracerouteBatch.from_traceroutes([tr])
        assert batch.to_traceroutes() == [tr]

    def test_view_and_iteration(self):
        originals = _mixed_traceroutes()
        batch = TracerouteBatch.from_traceroutes(originals)
        view = batch.view()
        assert len(view) == 3
        assert list(view) == originals
        sub = batch.view([2, 0])
        assert sub.to_traceroutes() == [originals[2], originals[0]]

    def test_repr_smoke(self):
        batch = TracerouteBatch.from_traceroutes(_mixed_traceroutes())
        assert "n_traceroutes=3" in repr(batch)
        assert "BatchView" in repr(batch.view())


class TestDecodeTraceroutes:
    def test_matches_object_reader(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_traceroutes(path, _mixed_traceroutes())
        batch = decode_traceroutes(path)
        assert batch.to_traceroutes() == list(read_traceroutes(path))

    def test_gzip(self, tmp_path):
        path = tmp_path / "c.jsonl.gz"
        write_traceroutes(path, _mixed_traceroutes())
        assert decode_traceroutes(path).to_traceroutes() == list(
            read_traceroutes(path)
        )

    def test_strict_error_matches_object_reader(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_traceroutes(path, _mixed_traceroutes()[:1])
        with open(path, "a") as handle:
            handle.write("not json\n")
        with pytest.raises(TracerouteDecodeError) as columnar_error:
            decode_traceroutes(path)
        with pytest.raises(TracerouteDecodeError) as object_error:
            list(read_traceroutes(path))
        assert (
            columnar_error.value.line_number
            == object_error.value.line_number
            == 2
        )

    def test_lenient_skips_and_warns_and_rolls_back(self, tmp_path):
        """A line failing mid-parse must leave no partial hops behind."""
        good = _mixed_traceroutes()[0]
        bad = good.to_json()
        del bad["prb_id"]  # fails *after* its hops were parsed
        path = tmp_path / "mixed.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps(good.to_json()) + "\n")
            handle.write(json.dumps(bad) + "\n")
            handle.write("\n")  # blank: skipped silently, not counted
            handle.write(json.dumps(good.to_json()) + "\n")
        with pytest.warns(DecodeWarning) as captured:
            batch = decode_traceroutes(path, strict=False)
        assert captured[0].message.skipped == 1
        assert batch.to_traceroutes() == [good, good]
        assert batch.n_hops == 2 * len(good.hops)  # rollback left no orphans

    def test_ttl_validation_matches_object_path(self, tmp_path):
        path = tmp_path / "ttl.jsonl"
        record = _mixed_traceroutes()[0].to_json()
        record["result"][0]["hop"] = 0
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(TracerouteDecodeError):
            decode_traceroutes(path)
        with pytest.raises(TracerouteDecodeError):
            list(read_traceroutes(path))

    def test_numeric_string_rtt_converts_like_object_path(self, tmp_path):
        """Regression: a JSON string RTT must go through the same
        float() conversion as Reply.from_json, not be rejected."""
        path = tmp_path / "strrtt.jsonl"
        path.write_text(json.dumps({
            "prb_id": 1, "src_addr": "s", "dst_addr": "d", "timestamp": 10,
            "result": [{"hop": 1, "result": [{"from": "a", "rtt": "1.5"}]}],
        }) + "\n")
        batch = decode_traceroutes(path)
        assert batch.to_traceroutes() == list(read_traceroutes(path))
        assert batch.to_traceroutes()[0].hops[0].replies[0].rtt_ms == 1.5

    def test_non_string_addresses_are_decode_errors(self, tmp_path):
        """Regression: a non-string responder/endpoint address must fail
        at decode time with a line number, not crash write_bincache
        later (interned strings round-trip through UTF-8)."""
        for field_line in (
            {"prb_id": 1, "src_addr": "s", "dst_addr": "d", "timestamp": 1,
             "result": [{"hop": 1, "result": [{"from": 123, "rtt": 1.0}]}]},
            {"prb_id": 1, "src_addr": 99, "dst_addr": "d", "timestamp": 1,
             "result": []},
            {"prb_id": 1, "src_addr": "s", "dst_addr": 99, "timestamp": 1,
             "result": []},
        ):
            path = tmp_path / "nonstr.jsonl"
            path.write_text(json.dumps(field_line) + "\n")
            with pytest.raises(TracerouteDecodeError) as excinfo:
                decode_traceroutes(path)
            assert excinfo.value.line_number == 1
            with pytest.warns(DecodeWarning):
                assert len(decode_traceroutes(path, strict=False)) == 0

    def test_interner_rejects_non_strings(self):
        with pytest.raises(TypeError):
            IPInterner().intern(123)

    def test_shared_interner_across_files(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_traceroutes(first, _mixed_traceroutes()[:1])
        write_traceroutes(second, _mixed_traceroutes()[1:])
        interner = IPInterner()
        batch_a = decode_traceroutes(first, interner=interner)
        batch_b = decode_traceroutes(second, interner=interner)
        assert batch_a.interner is batch_b.interner
        combined = batch_a.to_traceroutes() + batch_b.to_traceroutes()
        assert combined == _mixed_traceroutes()


class TestColumnarBinning:
    def test_bins_match_object_binner(self):
        originals = _mixed_traceroutes()
        batch = TracerouteBatch.from_traceroutes(originals)
        for dense in (True, False):
            object_bins = list(TimeBinner(3600, dense=dense).bins(originals))
            column_bins = list(TimeBinner(3600, dense=dense).bins(batch))
            assert [s for s, _ in object_bins] == [s for s, _ in column_bins]
            for (_, members), (_, view) in zip(object_bins, column_bins):
                assert isinstance(view, BatchView)
                assert view.to_traceroutes() == members

    def test_bin_views_validates_bin_size(self):
        batch = TracerouteBatch.from_traceroutes(_mixed_traceroutes())
        with pytest.raises(ValueError):
            list(bin_views(batch, 0))

    def test_bin_views_accepts_views(self):
        batch = TracerouteBatch.from_traceroutes(_mixed_traceroutes())
        rebinned = list(bin_views(batch.view([0, 1]), 3600))
        assert [start for start, _ in rebinned] == [0, 3600]

    def test_empty_batch(self):
        assert list(bin_views(TracerouteBatch(), 3600)) == []


class TestBinCache:
    def test_round_trip(self, tmp_path):
        batch = TracerouteBatch.from_traceroutes(_mixed_traceroutes())
        cache = tmp_path / "campaign.binc"
        written = write_bincache(cache, batch)
        assert written == cache.stat().st_size
        restored = read_bincache(cache)
        assert restored.to_traceroutes() == batch.to_traceroutes()

    def test_bad_magic_rejected(self, tmp_path):
        cache = tmp_path / "x.binc"
        write_bincache(cache, TracerouteBatch())
        corrupted = bytearray(cache.read_bytes())
        corrupted[0] ^= 0xFF
        cache.write_bytes(bytes(corrupted))
        with pytest.raises(BinCacheError):
            read_bincache(cache)

    def test_truncation_rejected(self, tmp_path):
        batch = TracerouteBatch.from_traceroutes(_mixed_traceroutes())
        cache = tmp_path / "x.binc"
        write_bincache(cache, batch)
        cache.write_bytes(cache.read_bytes()[:-8])
        with pytest.raises(BinCacheError):
            read_bincache(cache)

    def test_length_preserving_corruption_rejected(self, tmp_path):
        """Regression: a flipped value inside a column payload (same
        lengths, out-of-range ids) must fail validation — analysis must
        never see a batch whose ids don't index the string table."""
        batch = TracerouteBatch.from_traceroutes(_mixed_traceroutes())
        cache = tmp_path / "x.binc"
        write_bincache(cache, batch)
        clean = cache.read_bytes()
        # The last 8 bytes of the reply_rtt column are the file tail;
        # reply_ip sits just before it.  Rather than compute offsets,
        # corrupt every int64 window that currently equals a valid id
        # and assert at least one such corruption is caught.
        import struct as structlib

        target = structlib.pack("<q", batch.reply_ip[0])
        position = clean.rindex(target)
        corrupt = (
            clean[:position]
            + structlib.pack("<q", 10_000_000)
            + clean[position + 8:]
        )
        cache.write_bytes(corrupt)
        with pytest.raises(BinCacheError):
            read_bincache(cache)
        # load_or_build recovers by rebuilding from the source.
        source = tmp_path / "c.jsonl"
        write_traceroutes(source, _mixed_traceroutes())
        write_bincache(
            default_cache_path(source), batch, fingerprint=fingerprint_of(source)
        )
        bad = default_cache_path(source).read_bytes()
        position = bad.rindex(target)
        default_cache_path(source).write_bytes(
            bad[:position] + structlib.pack("<q", 10_000_000) + bad[position + 8:]
        )
        rebuilt, hit = load_or_build(source)
        assert not hit
        assert rebuilt.to_traceroutes() == _mixed_traceroutes()

    def test_stale_fingerprint_rejected(self, tmp_path):
        cache = tmp_path / "x.binc"
        write_bincache(cache, TracerouteBatch(), fingerprint=(10, 20))
        assert len(read_bincache(cache, fingerprint=(10, 20))) == 0
        with pytest.raises(BinCacheError):
            read_bincache(cache, fingerprint=(10, 21))

    def test_unbound_cache_accepts_any_fingerprint(self, tmp_path):
        cache = tmp_path / "x.binc"
        write_bincache(cache, TracerouteBatch())  # fingerprint (0, 0)
        assert len(read_bincache(cache, fingerprint=(123, 456))) == 0

    def test_load_or_build_miss_then_hit(self, tmp_path):
        source = tmp_path / "c.jsonl"
        write_traceroutes(source, _mixed_traceroutes())
        batch, hit = load_or_build(source)
        assert not hit
        assert default_cache_path(source).exists()
        again, hit = load_or_build(source)
        assert hit
        assert again.to_traceroutes() == batch.to_traceroutes()

    def test_load_or_build_rebuilds_when_source_changes(self, tmp_path):
        source = tmp_path / "c.jsonl"
        write_traceroutes(source, _mixed_traceroutes()[:1])
        load_or_build(source)
        write_traceroutes(source, _mixed_traceroutes())
        os.utime(source, ns=(1, 1))  # force a new mtime even on fast FS
        rebuilt, hit = load_or_build(source)
        assert not hit
        assert rebuilt.to_traceroutes() == _mixed_traceroutes()

    def test_load_or_build_rebuilds_corrupt_cache(self, tmp_path):
        source = tmp_path / "c.jsonl"
        write_traceroutes(source, _mixed_traceroutes())
        load_or_build(source)
        default_cache_path(source).write_bytes(b"garbage")
        batch, hit = load_or_build(source)
        assert not hit
        assert batch.to_traceroutes() == _mixed_traceroutes()

    def test_load_or_build_survives_an_unwritable_cache(self, tmp_path):
        """A cache path whose parent is a regular file cannot be written
        by anyone (root included): the decoded batch still comes back,
        with one warning and no temp file left behind."""
        source = tmp_path / "c.jsonl"
        write_traceroutes(source, _mixed_traceroutes())
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory")
        with pytest.warns(RuntimeWarning, match="bin cache not written"):
            batch, hit = load_or_build(source, cache_path=blocker / "x.binc")
        assert not hit
        assert batch.to_traceroutes() == _mixed_traceroutes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "afile", "c.jsonl"
        ]

    def test_load_or_build_failed_publish_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        """The write gets as far as a complete temp file and fails at the
        rename (e.g. a full disk): same outcome, and the temp is gone."""
        from repro.atlas import bincache

        source = tmp_path / "c.jsonl"
        write_traceroutes(source, _mixed_traceroutes())

        def refuse(src, dst):
            assert os.path.exists(src)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(bincache.os, "replace", refuse)
        with pytest.warns(RuntimeWarning, match="No space left"):
            batch, hit = load_or_build(source)
        assert not hit
        assert batch.to_traceroutes() == _mixed_traceroutes()
        assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]

    def test_explicit_cache_path(self, tmp_path):
        source = tmp_path / "c.jsonl"
        cache = tmp_path / "elsewhere.bin"
        write_traceroutes(source, _mixed_traceroutes())
        _, hit = load_or_build(source, cache_path=cache)
        assert not hit and cache.exists()
        _, hit = load_or_build(source, cache_path=cache)
        assert hit

    def test_gzip_source(self, tmp_path):
        source = tmp_path / "c.jsonl.gz"
        write_traceroutes(source, _mixed_traceroutes())
        batch, hit = load_or_build(source)
        assert not hit
        assert batch.to_traceroutes() == _mixed_traceroutes()
