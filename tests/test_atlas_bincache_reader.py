"""The bin cache read a chunk of rows at a time (what a warm ``analyze``
streams).

:class:`BinCacheReader` must hand out, chunk by chunk, exactly the
batch :func:`read_bincache` loads whole: for any chunk size, for an
empty campaign and for a cache written on a host of the other byte
order.  A digest-valid cache that :func:`read_bincache` refuses must be
refused too, at the chunk that holds the fault.
"""

import sys
import tempfile
from contextlib import closing
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import binfmt
from repro.atlas import (
    BinCacheError,
    BinCacheReader,
    TracerouteBatch,
    make_traceroute,
    read_bincache,
    write_bincache,
)
from repro.atlas import bincache
from repro.obs.metrics import MetricsRegistry, set_default_registry

ip_strategy = st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.1.1", "2001:db8::1"])


@st.composite
def traceroute(draw):
    """One traceroute: up to four hops of up to three replies each."""
    return make_traceroute(
        prb_id=draw(st.integers(0, 20)),
        src_addr=draw(ip_strategy),
        dst_addr=draw(ip_strategy),
        timestamp=draw(st.integers(0, 10 * 3600)),
        hop_replies=[
            [
                (draw(ip_strategy), draw(st.floats(0.1, 200.0)))
                if draw(st.booleans())
                else (None, None)
                for _ in range(draw(st.integers(0, 3)))
            ]
            for _ in range(draw(st.integers(0, 4)))
        ],
        from_asn=draw(st.sampled_from([65001, 65002, None])),
        msm_id=draw(st.sampled_from([5001, None])),
    )


def _write_foreign(path, batch, fingerprint=None):
    """*batch* as a cache written on a host of the other byte order:
    the payload's big-endian flag flipped and every column swapped."""
    columns = []
    for name, typecode in bincache._COLUMNS:
        column = array(typecode, getattr(batch, name))
        column.byteswap()
        columns.append((len(column), (column,)))
    size, mtime_ns = fingerprint or (0, 0)
    chunks = list(bincache._payload(fingerprint, batch.interner.strings, columns))
    chunks[0] = bincache._PREFIX.pack(sys.byteorder != "big", size, mtime_ns)
    binfmt.atomic_write(path, bincache.BINCACHE, chunks)


def _reader(cache, rows=None, fingerprint=None):
    """A reader of *cache* whose chunks hold *rows* rows each (about
    ``_CHUNK_BYTES`` of columns when None)."""
    reader = BinCacheReader(cache, fingerprint=fingerprint)
    if rows is not None:
        reader._step = rows
    return reader


def _joined(reader):
    """The reader's chunks appended to one batch on its interner,
    each checked to be a self-contained batch on the way; the reader
    is closed after."""
    joined = TracerouteBatch(reader.interner)
    sizes = []
    with closing(reader):
        for chunk in reader.chunks():
            assert chunk.interner is reader.interner
            assert chunk.hop_offsets[0] == chunk.reply_offsets[0] == 0
            bincache._validate_shape(chunk, reader.path)
            sizes.append(len(chunk))
            joined.extend(chunk)
    return joined, sizes


def _assert_same_columns(batch, expected):
    assert batch.interner.strings == expected.interner.strings
    for name, _ in bincache._COLUMNS:
        got = np.asarray(getattr(batch, name))
        want = np.asarray(getattr(expected, name))
        np.testing.assert_array_equal(got, want, err_msg=name)


class TestChunksAreTheWholeBatch:
    @settings(max_examples=80, deadline=None)
    @given(
        traceroutes=st.lists(traceroute(), max_size=25),
        size=st.sampled_from(["1", "7", "n", "more", "default"]),
        foreign=st.booleans(),
    )
    def test_concatenated_chunks_equal_read_bincache(
        self, traceroutes, size, foreign
    ):
        """Chunks of 1, 7, n and more than n rows (and the byte-sized
        default), joined, are ``read_bincache``'s batch column for
        column, from a cache of either byte order."""
        batch = TracerouteBatch.from_traceroutes(traceroutes)
        n = len(batch)
        rows = {"1": 1, "7": 7, "n": max(n, 1), "more": n + 3,
                "default": None}[size]
        with tempfile.TemporaryDirectory() as directory:
            cache = Path(directory) / "c.binc"
            if foreign:
                _write_foreign(cache, batch, (5, 6))
            else:
                write_bincache(cache, batch, (5, 6))
            expected = read_bincache(cache, fingerprint=(5, 6))
            reader = _reader(cache, rows, fingerprint=(5, 6))
            joined, sizes = _joined(reader)
            with closing(_reader(cache, rows)) as again:
                whole = again.batch()
        _assert_same_columns(joined, expected)
        _assert_same_columns(whole, expected)
        assert joined.to_traceroutes() == traceroutes
        step = rows or max(n, 1)
        assert sizes == [min(step, n - lo) for lo in range(0, n, step)]

    def test_empty_campaign_has_no_chunks(self, tmp_path):
        cache = tmp_path / "empty.binc"
        write_bincache(cache, TracerouteBatch())
        with closing(BinCacheReader(cache)) as reader:
            assert len(reader.interner) == 0
            assert list(reader.chunks()) == []
            assert len(reader.batch()) == 0

    def test_foreign_byte_order_is_swapped(self, tmp_path):
        """The payload of a foreign cache really is swapped (so the
        values only come out right if the reader swaps them back)."""
        traceroutes = [
            make_traceroute(7, "192.0.2.1", "10.9.9.9", 3600 * k,
                            [[("10.0.0.1", 1.5)], [(None, None)]],
                            from_asn=65001)
            for k in range(5)
        ]
        batch = TracerouteBatch.from_traceroutes(traceroutes)
        native, foreign = tmp_path / "native.binc", tmp_path / "foreign.binc"
        write_bincache(native, batch)
        _write_foreign(foreign, batch)
        assert native.read_bytes() != foreign.read_bytes()
        joined, sizes = _joined(_reader(foreign, 2))
        assert sizes == [2, 2, 1]
        assert joined.to_traceroutes() == traceroutes

    def test_default_chunks_hold_about_the_chunk_bytes(
        self, tmp_path, monkeypatch
    ):
        """A chunk holds about ``_CHUNK_BYTES`` of columns: the
        cache's column bytes split evenly by row."""
        traceroutes = [
            make_traceroute(k, "192.0.2.1", "10.9.9.9", k,
                            [[("10.0.0.1", 1.0)]] * 3)
            for k in range(400)
        ]
        cache = tmp_path / "c.binc"
        write_bincache(cache, TracerouteBatch.from_traceroutes(traceroutes))
        monkeypatch.setattr(bincache, "_CHUNK_BYTES", 4096)
        _, sizes = _joined(BinCacheReader(cache))
        assert 1 < len(sizes) < len(traceroutes)
        # 8 row columns, 1 hop offset, 3 hops (ttl, reply offset) and
        # 3 replies (ip, rtt): 8 * (8 + 1 + 3 * 2 + 3 * 2) = 168 bytes
        assert sizes[0] == 4096 // 168


def _campaign(n=40):
    """*n* traceroutes, one per ten minutes, of three hops each."""
    return TracerouteBatch.from_traceroutes(
        make_traceroute(
            k % 5, "192.0.2.1", "10.9.9.9", 600 * k,
            [[("10.0.0.1", 1.0), ("10.0.0.2", 2.0)], [(None, None)],
             [("10.0.0.3", 3.0)]],
            from_asn=65001,
        )
        for k in range(n)
    )


class TestFaultsSurfaceAtTheirChunk:
    """Digest-valid caches with a structural fault in the last chunk:
    the earlier chunks come out, the last one raises."""

    @pytest.mark.parametrize("fault", [
        "reply_offsets_step_back", "hop_offsets_step_back",
        "reply_ip_out_of_range", "src_id_out_of_range",
    ])
    def test_fault_in_the_last_chunk(self, tmp_path, fault):
        batch = _campaign()
        if fault == "reply_offsets_step_back":
            k = len(batch.hop_ttl) - 1
            batch.reply_offsets[k] = batch.reply_offsets[k - 1] - 1
        elif fault == "hop_offsets_step_back":
            k = len(batch) - 1
            batch.hop_offsets[k] = batch.hop_offsets[k - 1] - 1
        elif fault == "reply_ip_out_of_range":
            batch.reply_ip[-1] = len(batch.interner) + 5
        else:
            batch.src_id[-1] = len(batch.interner)
        cache = tmp_path / "bad.binc"
        write_bincache(cache, batch)
        with pytest.raises(BinCacheError):
            read_bincache(cache)
        with closing(_reader(cache, 10)) as reader:
            chunks = reader.chunks()
            for _ in range(3):
                next(chunks)
            with pytest.raises(BinCacheError):
                next(chunks)

    def test_offset_past_the_column_stops_its_chunk(self, tmp_path):
        """An offset that points past its column's end, at a chunk's
        last row, is refused in that chunk: the chunk would otherwise
        read the next column's bytes as its hops."""
        batch = _campaign()
        batch.hop_offsets[30] = len(batch.hop_ttl) + 9
        cache = tmp_path / "bad.binc"
        write_bincache(cache, batch)
        with closing(_reader(cache, 10)) as reader:
            chunks = reader.chunks()
            next(chunks), next(chunks)
            with pytest.raises(BinCacheError, match="hop_offsets"):
                next(chunks)

    @pytest.mark.parametrize("fault", ["anchor", "lengths", "stale", "flip"])
    def test_faults_refused_on_open(self, tmp_path, fault):
        """What the frame, the column directory or the offset anchors
        show is refused before any chunk is read."""
        batch = _campaign()
        cache = tmp_path / "bad.binc"
        if fault == "anchor":
            batch.reply_offsets[-1] += 1
        elif fault == "lengths":
            batch.prb_id.append(1)
        write_bincache(cache, batch, (1, 2))
        if fault == "flip":
            data = bytearray(cache.read_bytes())
            data[len(data) // 2] ^= 0x01
            cache.write_bytes(bytes(data))
        with pytest.raises(BinCacheError):
            BinCacheReader(cache, fingerprint=(1, 3 if fault == "stale" else 2))

    def test_missing_or_truncated_file_is_an_error(self, tmp_path):
        with pytest.raises(BinCacheError):
            BinCacheReader(tmp_path / "absent.binc")
        cache = tmp_path / "short.binc"
        write_bincache(cache, _campaign())
        cache.write_bytes(cache.read_bytes()[:-1])
        with pytest.raises(BinCacheError):
            BinCacheReader(cache)


def test_hit_counted_once_every_chunk_is_read(tmp_path):
    """A reader counts one ``hit`` load, and only once its last chunk
    passed its checks: a pass stopped early counts nothing, the chunks
    start from the first row again on the next pass, and a second whole
    pass counts nothing more."""
    cache = tmp_path / "c.binc"
    write_bincache(cache, _campaign())
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        with closing(_reader(cache, 10)) as reader:
            chunks = reader.chunks()
            next(chunks)
            chunks.close()
            assert sum(map(len, reader.chunks())) == 40
            assert len(reader.batch()) == 40
    finally:
        set_default_registry(previous)
    [loads] = [
        family for family in registry.collect()
        if family.name == "repro_bincache_loads_total"
    ]
    assert {
        child.labelvalues: child.value for child in loads.children
    } == {("hit",): 1}


def test_the_cache_is_never_mapped(tmp_path, monkeypatch):
    """The digest pass and the chunks read the file; nothing maps it."""
    import mmap

    def refuse(*args, **kwargs):
        raise AssertionError("the bin cache was mapped")

    cache = tmp_path / "c.binc"
    write_bincache(cache, _campaign())
    monkeypatch.setattr(mmap, "mmap", refuse)
    joined, _ = _joined(_reader(cache, 7))
    assert len(joined) == 40
    with closing(_reader(cache, 7)) as reader:
        assert len(reader.batch()) == 40
