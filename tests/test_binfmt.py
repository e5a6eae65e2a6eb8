"""The shared durable container (:mod:`repro.binfmt`) and its users.

Six framed files persist state: bin cache, checkpoint, fetch cursor,
store manifest, store segment and probe cache.  One corruption matrix
runs over all of them (truncation and a bit flip at every byte, every
other format's magic, the next version, trailing bytes, an empty file,
a full disk mid-write), one test pins the durability order of every
writer, and the files written before the shared frame existed
(``tests/fixtures/pre_frame``) pin what happens to them now: store and
cursor bytes load unchanged, the checkpoint, bin cache and probe cache
are refused and each caller takes its fallback.  A framed checkpoint of
an older layout (``tests/fixtures/checkpoint.v2``) is refused the same
way.
"""

import errno
import mmap
import os
import shutil
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro import binfmt
from repro.atlas import TracerouteBatch, make_traceroute, write_traceroutes
from repro.atlas.bincache import (
    BINCACHE,
    BinCacheError,
    read_bincache,
    write_bincache,
)
from repro.atlas.connectors import probes
from repro.atlas.connectors.cursors import (
    CURSOR,
    FetchCursor,
    load_cursor,
    save_cursor,
)
from repro.core import PipelineConfig, load_snapshot, run_checkpointed
from repro.core.alarms import DelayAlarm, ForwardingAlarm
from repro.core.checkpoint import CHECKPOINT, SNAPSHOT_VERSION, SnapshotError
from repro.core.pipeline import BinResult
from repro.net import AsMapper
from repro.reference import Pipeline
from repro.service import (
    AlarmStoreWriter,
    CompactionPolicy,
    StoreQuery,
    compact_store,
)
from repro.service.store import (
    MANIFEST,
    SEGMENT,
    AlarmSegment,
    Manifest,
    _SegmentBuilder,
    read_manifest,
    write_manifest,
)
from repro.stats import WilsonInterval

FIXTURES = Path(__file__).parent / "fixtures" / "pre_frame"

#: A checkpoint of each earlier version, written by that version's
#: ``run_checkpointed(Pipeline(PipelineConfig()), campaign(), path)``.
OLD_CHECKPOINTS = {
    1: FIXTURES / "checkpoint.v1",
    2: FIXTURES.parent / "checkpoint.v2",
}

MAPPER_ENTRIES = [("10.0.0.0", 24, 65001), ("10.0.1.0", 24, 65002)]

#: The cursor written into the pre-frame fixture.
FIXTURE_CURSOR = FetchCursor(
    key=(
        "https://atlas.example/api/v2/measurements/5001/results/"
        "?start=0&stop=7200"
    ),
    next_url="https://atlas.example/api/v2/measurements/5001/results/?page=2",
    pages_fetched=1,
    records_written=250,
    output_bytes=65536,
    completed=False,
)


def campaign():
    """Three probes every half hour over three hourly bins."""
    out = []
    for index in range(6):
        for probe in (1, 2, 3):
            out.append(
                make_traceroute(
                    probe, f"192.0.2.{probe}", "203.0.113.9",
                    index * 1800 + probe,
                    [
                        [("10.0.0.1", 1.0 + probe)],
                        [("10.0.1.1", 2.0 + probe + index * 0.5)],
                        [(None, None)],
                    ],
                    from_asn=65000 + probe, msm_id=5001,
                )
            )
    return out


#: The link the checkpoint case tracks.
TRACKED_LINK = ("10.0.0.1", "10.0.1.1")


def alarm_campaign():
    """Three probes over five hourly bins; the last bin shifts the delay
    of every link and moves the last hop, so it raises delay and
    forwarding alarms."""
    out = []
    for index in range(5):
        shift = 40.0 if index == 4 else 0.0
        last = "10.0.2.9" if index == 4 else "10.0.2.1"
        for probe in (1, 2, 3):
            out.append(
                make_traceroute(
                    probe, f"192.0.2.{probe}", "203.0.113.9",
                    index * 3600 + probe,
                    [
                        [("10.0.0.1", 1.0 + probe + d) for d in (0, 0.1, 0.2)],
                        [("10.0.1.1", 3.0 + probe + shift + d)
                         for d in (0, 0.1, 0.2)],
                        [(last, 4.0 + probe + shift)] * 3,
                    ],
                    from_asn=65000 + probe,
                )
            )
    return out


def _write_checkpoint(path: Path, variant: int) -> None:
    """A checkpoint whose every table is non-empty: links, a tracked
    link, and results holding both alarm kinds."""
    config = PipelineConfig(
        alpha=0.01 * 5**variant, track_links={TRACKED_LINK}
    )
    campaign = alarm_campaign()
    run_checkpointed(  # one write, after the last bin
        Pipeline(config), campaign, path, every_bins=len(campaign),
        resume=False,
    )


def store_bins():
    """Four hourly bins with both alarm kinds (bin 1 is quiet)."""

    def interval(median, n):
        return WilsonInterval(
            median=median, lower=median - 1.5, upper=median + 2.25, n=n
        )

    bins = []
    for index in range(4):
        ts = index * 3600
        delay = [
            DelayAlarm(
                timestamp=ts + 60, link=("10.0.0.1", "10.0.1.1"),
                observed=interval(20.0 + index, 12),
                reference=interval(5.0, 30), deviation=3.5 + index,
                direction=1, n_probes=12, n_asns=3,
            )
        ] if index % 2 == 0 else []
        forwarding = [
            ForwardingAlarm(
                timestamp=ts + 120, router_ip="10.0.0.2",
                destination="anchor-1", correlation=-0.25,
                responsibilities={"10.0.1.2": 0.75, "*": -0.5},
                pattern={"10.0.1.2": 9.0, "*": 1.0},
                reference={"10.0.0.9": 10.0},
            )
        ] if index != 1 else []
        bins.append(
            BinResult(
                timestamp=ts, n_traceroutes=10 + index, n_links_observed=3,
                n_links_analyzed=2, delay_alarms=delay,
                forwarding_alarms=forwarding,
            )
        )
    return bins


# -- one adapter per framed file ----------------------------------------------


@dataclass
class Case:
    """How to write a small valid file of one format, and load it back.

    ``write(path, variant)`` writes distinct valid content per variant;
    ``load(path)`` raises the format's error for a bad file.
    """

    fmt: binfmt.Format
    filename: str
    write: Callable[[Path, int], None]
    load: Callable[[Path], object]


def _write_segment(path: Path, variant: int) -> None:
    builder = _SegmentBuilder(AsMapper(MAPPER_ENTRIES))
    builder.add_bin(store_bins()[2 * variant])
    _SEGMENT_METAS[path] = builder.write(path.parent, path.name)


#: The manifest entry of each segment a case wrote (a segment only
#: loads against the digest its manifest pins).
_SEGMENT_METAS = {}


def _write_manifest(path: Path, variant: int) -> None:
    manifest = Manifest(
        store_id=bytes(range(16)), generation=variant, next_index=0,
        bin_s=3600, start=0, end=0, segments=[],
    )
    write_manifest(path.parent, manifest)


def _load_probe_cache(path: Path):
    """The probe cache's contract: an unusable file reads as absent."""
    cached = probes._read_cache(path)
    if cached is None:
        binfmt.read_frame(path, probes.PROBE_CACHE)  # raises the reason
        raise AssertionError(f"a valid frame was treated as absent: {path}")
    return cached


CASES = {
    "bincache": Case(
        BINCACHE, "c.binc",
        lambda path, variant: write_bincache(
            path, TracerouteBatch.from_traceroutes(campaign()[: 1 + variant])
        ),
        read_bincache,
    ),
    "checkpoint": Case(
        CHECKPOINT, "state.ckpt", _write_checkpoint, load_snapshot
    ),
    "cursor": Case(
        CURSOR, "fetch.cursor",
        lambda path, variant: save_cursor(
            path, FetchCursor(key=f"w{variant}")
        ),
        load_cursor,
    ),
    "manifest": Case(
        MANIFEST, "MANIFEST", _write_manifest,
        lambda path: read_manifest(path.parent),
    ),
    "segment": Case(
        SEGMENT, "seg-00000000.seg", _write_segment,
        lambda path: AlarmSegment(path, _SEGMENT_METAS[path]),
    ),
    "probes": Case(
        probes.PROBE_CACHE, "probes.cache",
        lambda path, variant: probes._write_cache(
            path,
            [probes.ProbeInfo(id=7 + variant, asn=65001, af=4)],
            total=3,
        ),
        _load_probe_cache,
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


@pytest.fixture()
def valid(case, tmp_path):
    """A valid file of the case's format, and its bytes."""
    path = tmp_path / case.filename
    case.write(path, 0)
    case.load(path)
    return path, path.read_bytes()


class TestCorruptionMatrix:
    def test_every_error_is_a_format_error(self, case):
        assert issubclass(case.fmt.error, binfmt.FormatError)
        assert issubclass(case.fmt.error, RuntimeError)

    def test_truncation_at_every_byte(self, case, valid):
        path, raw = valid
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(case.fmt.error):
                case.load(path)

    def test_single_bit_flip_at_every_byte(self, case, valid):
        path, raw = valid
        for offset in range(len(raw)):
            for bit in {0x01, 1 << (offset % 8)}:
                flipped = bytearray(raw)
                flipped[offset] ^= bit
                path.write_bytes(bytes(flipped))
                with pytest.raises(case.fmt.error):
                    case.load(path)

    def test_each_other_formats_magic(self, case, valid):
        path, raw = valid
        others = {c.fmt.magic for c in CASES.values()} - {case.fmt.magic}
        assert len(others) == len(CASES) - 1
        for magic in sorted(others):
            path.write_bytes(magic + raw[binfmt.MAGIC_SIZE:])
            with pytest.raises(case.fmt.error, match="bad magic"):
                case.load(path)

    def test_next_version(self, case, valid):
        path, raw = valid
        _, length, digest = binfmt.HEADER.unpack_from(raw, binfmt.MAGIC_SIZE)
        path.write_bytes(
            case.fmt.magic
            + binfmt.HEADER.pack(case.fmt.version + 1, length, digest)
            + raw[binfmt.FRAME_SIZE:]
        )
        with pytest.raises(case.fmt.error, match="version"):
            case.load(path)

    def test_trailing_bytes(self, case, valid):
        path, raw = valid
        path.write_bytes(raw + b"\x00")
        with pytest.raises(case.fmt.error, match="trailing bytes"):
            case.load(path)

    def test_empty_file(self, case, valid):
        path, _ = valid
        path.write_bytes(b"")
        with pytest.raises(case.fmt.error):
            case.load(path)

    def test_disk_full_mid_write_keeps_the_old_file(
        self, case, valid, monkeypatch
    ):
        path, raw = valid
        monkeypatch.setattr(binfmt, "open", _filling_disk(len(raw) // 2),
                            raising=False)
        with pytest.raises(OSError) as excinfo:
            case.write(path, 1)
        assert excinfo.value.errno == errno.ENOSPC
        monkeypatch.undo()
        assert path.read_bytes() == raw
        assert sorted(p.name for p in path.parent.iterdir()) == [case.filename]
        case.load(path)


def _filling_disk(capacity: int):
    """An ``open`` whose files raise ENOSPC once *capacity* bytes went in."""

    class Full:
        def __init__(self, handle):
            self.handle = handle
            self.written = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            self.written += memoryview(data).nbytes
            if self.written > capacity:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.handle.write(data)

        def __getattr__(self, name):
            return getattr(self.handle, name)

    return lambda *args, **kwargs: Full(open(*args, **kwargs))


# -- durability order ---------------------------------------------------------


@pytest.fixture()
def syscalls(monkeypatch):
    """fsync/replace/unlink calls in order, files named by inode."""
    events = []
    real_fsync, real_replace, real_unlink = os.fsync, os.replace, os.unlink

    def fsync(fd):
        info = os.fstat(fd)
        kind = "fsync-dir" if stat.S_ISDIR(info.st_mode) else "fsync-file"
        events.append((kind, info.st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, Path(dst).name))
        real_replace(src, dst)

    def unlink(path, *args, **kwargs):
        events.append(("unlink", Path(path).name))
        real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "unlink", unlink)
    return events


def _durable_at(events, name: str, directory: Path) -> int:
    """Assert *name* was published as fsync(temp) → replace → fsync(dir);
    return the index of its directory fsync."""
    renames = [i for i, event in enumerate(events)
               if event[0] == "replace" and event[2] == name]
    assert len(renames) == 1, events
    at = renames[0]
    assert events[at - 1] == ("fsync-file", events[at][1]), events
    assert events[at + 1] == ("fsync-dir", os.stat(directory).st_ino), events
    return at + 1


class TestDurabilityOrder:
    def test_every_writer(self, case, tmp_path, syscalls):
        path = tmp_path / case.filename
        case.write(path, 0)
        assert _durable_at(syscalls, case.filename, tmp_path) == 2
        assert len(syscalls) == 3

    def test_store_append_makes_the_segment_durable_before_the_swap(
        self, tmp_path, syscalls
    ):
        writer = AlarmStoreWriter.create(
            tmp_path, AsMapper(MAPPER_ENTRIES), bin_s=3600, start=0
        )
        del syscalls[:]
        writer.append_bins(store_bins()[:1])
        segment = _durable_at(syscalls, "seg-00000000.seg", tmp_path)
        manifest = _durable_at(syscalls, "MANIFEST", tmp_path)
        assert segment < manifest - 2  # before the manifest's temp fsync

    def test_compaction_swap_is_durable_before_any_unlink(
        self, tmp_path, syscalls
    ):
        writer = AlarmStoreWriter.create(
            tmp_path, AsMapper(MAPPER_ENTRIES), bin_s=3600, start=0
        )
        for result in store_bins():
            writer.append_bins([result])
        del syscalls[:]
        report = compact_store(tmp_path, CompactionPolicy(max_segments=1))
        assert report.changed and report.segments_after == 1
        manifest = _durable_at(syscalls, "MANIFEST", tmp_path)
        unlinks = [i for i, event in enumerate(syscalls)
                   if event[0] == "unlink"]
        assert len(unlinks) == report.segments_before
        assert min(unlinks) > manifest


# -- the shared pieces --------------------------------------------------------


class TestFrame:
    def test_layout(self):
        assert binfmt.HEADER.format == "<IQ16s"
        assert binfmt.FRAME_SIZE == 8 + 4 + 8 + 16
        for case in CASES.values():
            assert len(case.fmt.magic) == binfmt.MAGIC_SIZE

    def test_atomic_write_streams_any_buffer(self, tmp_path):
        fmt = binfmt.Format(b"TESTTEST", 3, "test file")
        chunks = [b"ab", bytearray(b"cd"), np.arange(3, dtype="<i8"),
                  memoryview(b"efgh").cast("I")]
        written = binfmt.atomic_write(tmp_path / "t", fmt, chunks)
        payload = b"abcd" + np.arange(3, dtype="<i8").tobytes() + b"efgh"
        assert written.size == binfmt.FRAME_SIZE + len(payload)
        assert written.digest == binfmt.digest(payload)
        assert bytes(binfmt.read_frame(tmp_path / "t", fmt)) == payload

    def test_reader_refuses_overruns_and_leftovers(self, tmp_path):
        fmt = binfmt.Format(b"TESTTEST", 1, "test file")
        payload = binfmt.string_table(["a", "bc"]) + b"\x01\x02"
        reader = binfmt.Reader(memoryview(payload), fmt, "p")
        assert reader.strings() == ["a", "bc"]
        with pytest.raises(binfmt.FormatError, match="trailing bytes"):
            reader.done()
        with pytest.raises(binfmt.FormatError, match="truncated"):
            reader.take(3)

    def test_map_frame_closes_the_mapping_unless_kept(
        self, tmp_path, monkeypatch
    ):
        """Copying parses and failed parses leave no mapping open, even
        when the parser held views into it."""
        closed = []

        class Tracked(mmap.mmap):
            def close(self):
                super().close()
                closed.append(True)

        monkeypatch.setattr(mmap, "mmap", Tracked)
        fmt = binfmt.Format(b"TESTTEST", 1, "test file")
        binfmt.atomic_write(tmp_path / "t", fmt, [b"\x00" * 64])

        def reject(reader):
            reader.column("<i8", 4)
            raise fmt.fail("rejected", reader.path)

        with pytest.raises(binfmt.FormatError, match="rejected"):
            binfmt.map_frame(tmp_path / "t", fmt, reject)
        assert closed == [True]

        def copy(reader):
            return reader.column("<i8", 8).copy()

        assert binfmt.map_frame(tmp_path / "t", fmt, copy).sum() == 0
        assert closed == [True, True]
        kept = binfmt.map_frame(
            tmp_path / "t", fmt, lambda r: r.column("<i8", 8), keep=True
        )
        assert kept.sum() == 0 and closed == [True, True]

    @pytest.mark.parametrize("offsets, ok", [
        ([0, 2, 3], True),
        ([1, 2, 3], False),  # unanchored head
        ([0, 2, 4], False),  # unanchored tail
        ([0, 3, 2, 3], False),  # steps back
    ])
    def test_check_offsets(self, offsets, ok):
        offsets = np.asarray(offsets, dtype=np.int64)
        rows = offsets.size - 1
        if ok:
            binfmt.check_offsets(offsets, rows, 3, "t", ValueError)
        else:
            with pytest.raises(ValueError, match="offset table"):
                binfmt.check_offsets(offsets, rows, 3, "t", ValueError)
        with pytest.raises(ValueError):
            binfmt.check_offsets(offsets, rows + 1, 3, "t", ValueError)

    def test_check_ids(self):
        ids = np.asarray([-1, 0, 2], dtype=np.int64)
        binfmt.check_ids(ids, 3, "t", ValueError, low=-1)
        for count, low in ((2, -1), (3, 0)):
            with pytest.raises(ValueError, match="out of range"):
                binfmt.check_ids(ids, count, "t", ValueError, low=low)


def test_checkpoint_case_fills_every_table(tmp_path):
    """The matrix's checkpoint reaches the columns: every table has rows
    and the file stays small enough for the every-byte loops."""
    path = tmp_path / "state.ckpt"
    _write_checkpoint(path, 0)
    snapshot = load_snapshot(path)
    assert path.stat().st_size < 3072
    assert snapshot.delay.links and snapshot.forwarding.keys
    assert snapshot.rounds and list(snapshot.tracked) == [TRACKED_LINK]
    assert any(r.delay_alarms for r in snapshot.results)
    assert any(r.forwarding_alarms for r in snapshot.results)


def test_bincache_bit_flip_in_a_column_is_caught_and_rebuilt(tmp_path):
    """``reply_rtt`` is the file's last column: flipping one byte of it
    used to load a wrong RTT with no error."""
    from repro.cli import main

    source = tmp_path / "c.jsonl"
    cache = tmp_path / "c.cache"
    write_traceroutes(source, campaign())
    analyze = ["analyze", str(source), "--json", "--bin-cache", str(cache)]
    assert main(analyze) == 0  # cold: the cache is spooled
    batch = read_bincache(cache)
    raw = bytearray(cache.read_bytes())
    raw[-2] ^= 0x01
    cache.write_bytes(bytes(raw))
    with pytest.raises(BinCacheError, match="digest"):
        read_bincache(cache)
    assert main(analyze) == 0  # a miss: spooled again
    rebuilt = read_bincache(cache)
    assert rebuilt.to_traceroutes() == batch.to_traceroutes() == campaign()
    assert rebuilt.reply_rtt.tobytes() == batch.reply_rtt.tobytes()


# -- files written before the shared frame ------------------------------------


def _fixture(tmp_path, name):
    """A private copy of one pre-frame fixture."""
    source = FIXTURES / name
    target = tmp_path / name
    if source.is_dir():
        shutil.copytree(source, target)
    else:
        shutil.copyfile(source, target)
    return target


class TestPreFrameFiles:
    def test_store_loads_and_is_written_byte_identically(
        self, tmp_path, monkeypatch
    ):
        old = _fixture(tmp_path, "store")
        query = StoreQuery(old)
        assert query.monitored_asns() == [65001, 65002]
        delay, forwarding = query.alarms_at(0)
        assert delay and forwarding
        manifest = read_manifest(old)
        monkeypatch.setattr(os, "urandom", lambda n: manifest.store_id)
        fresh = tmp_path / "fresh"
        writer = AlarmStoreWriter.create(
            fresh, AsMapper(MAPPER_ENTRIES), bin_s=3600, start=0
        )
        writer.append_bins(store_bins()[:2])
        writer.append_bins(store_bins()[2:])
        for name in ("MANIFEST", "seg-00000000.seg", "seg-00000001.seg"):
            assert (fresh / name).read_bytes() == (old / name).read_bytes()
        # And the old store takes appends.
        AlarmStoreWriter(old, AsMapper(MAPPER_ENTRIES)).append_bins(
            [BinResult(4 * 3600, 0, 0, 0, [], [])]
        )
        assert read_manifest(old).generation == manifest.generation + 1

    def test_cursor_loads_and_is_written_byte_identically(self, tmp_path):
        old = _fixture(tmp_path, "fetch.cursor")
        assert load_cursor(old, expected_key=FIXTURE_CURSOR.key) == (
            FIXTURE_CURSOR
        )
        save_cursor(tmp_path / "new.cursor", FIXTURE_CURSOR)
        assert (tmp_path / "new.cursor").read_bytes() == old.read_bytes()

    @pytest.mark.parametrize(
        "version", sorted(OLD_CHECKPOINTS), ids="v{}".format
    )
    def test_checkpoint_is_refused_and_the_driver_rebuilds(
        self, tmp_path, version
    ):
        old = tmp_path / "old.ckpt"
        shutil.copyfile(OLD_CHECKPOINTS[version], old)
        with pytest.raises(
            SnapshotError, match=f"version {version} != {SNAPSHOT_VERSION}"
        ):
            load_snapshot(old)
        results, resumed = run_checkpointed(
            Pipeline(PipelineConfig()), campaign(), old
        )
        assert not resumed
        assert results == Pipeline(PipelineConfig()).run(campaign())
        assert load_snapshot(old).bins_processed == len(results)

    @pytest.mark.parametrize(
        "version", sorted(OLD_CHECKPOINTS), ids="v{}".format
    )
    def test_checkpoint_is_refused_and_monitor_starts_fresh(
        self, tmp_path, version
    ):
        """``monitor`` reports the old checkpoint, runs from the first
        bin, and its store append skips the bins the store holds."""
        from repro.cli import main

        feed = tmp_path / "feed.jsonl"
        write_traceroutes(feed, campaign())
        store, ckpt = tmp_path / "store", tmp_path / "ckpt"
        argv = ["monitor", str(feed), "--json", "--store", str(store),
                "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        ckpt_bytes = ckpt.read_bytes()
        store_files = {p.name: p.read_bytes() for p in store.iterdir()}
        shutil.copyfile(OLD_CHECKPOINTS[version], ckpt)
        import contextlib
        import io

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 0
        assert (
            f"checkpoint ignored (snapshot version {version} != "
            f"{SNAPSHOT_VERSION}" in err.getvalue()
        )
        assert "starting fresh" in err.getvalue()
        assert len(out.getvalue().splitlines()) == 3
        assert ckpt.read_bytes() == ckpt_bytes
        assert {p.name: p.read_bytes() for p in store.iterdir()} == store_files

    def test_bincache_is_refused_and_rebuilt(self, tmp_path):
        old = _fixture(tmp_path, "bincache.v1")
        with pytest.raises(BinCacheError, match="version 1 != 2"):
            read_bincache(old)
        from repro.cli import main

        source = tmp_path / "c.jsonl"
        write_traceroutes(source, campaign())
        argv = ["analyze", str(source), "--json", "--bin-cache", str(old)]
        assert main(argv) == 0
        assert read_bincache(old).to_traceroutes() == campaign()

    def test_probe_cache_reads_as_absent(self, tmp_path):
        old = _fixture(tmp_path, "probes.cache")
        assert probes._read_cache(old) is None
