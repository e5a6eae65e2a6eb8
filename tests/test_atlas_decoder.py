"""The decoder process: a forked child decodes, the parent runs the bins.

:class:`~repro.atlas.decoder.ChunkDecoder` must hand the stream exactly
what :meth:`ColumnarStream.push` of the same chunks gives (bins, ids,
counts), raise the child's exception in the parent unchanged, count the
ingest telemetry in the parent, and leave no process behind on any exit
path of ``analyze`` or ``monitor`` — also when the parent is killed
while a followed feed is idle.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.atlas.columnar import read_chunks
from repro.atlas.decoder import ChunkDecoder
from repro.atlas.io import TracerouteDecodeError
from repro.atlas.stream import ColumnarStream, FeedTailer
from repro.cli import main
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.obs.tracing import StageAccumulator
from tests.test_cli import _cli_env

ARGS = ("--seed", "3", "--probes", "12")


@pytest.fixture(scope="module")
def feed(tmp_path_factory):
    path = tmp_path_factory.mktemp("decoder") / "feed.jsonl"
    assert main(
        ["generate", "--hours", "4", "--seed", "3", "--probes", "12",
         "--no-anchoring", "--out", str(path)]
    ) == 0
    return path


def _chunks(path, size):
    """The feed's lines in chunks of *size* lines."""
    lines = path.read_bytes().splitlines(keepends=True)
    return [lines[at:at + size] for at in range(0, len(lines), size)]


def _materialised(closed):
    """Closed bins as plain data (views die at the next step)."""
    return [(start, view.to_traceroutes()) for start, view in closed]


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def forks(monkeypatch):
    """Pids of the decoder processes forked while the test runs."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _stream(strict=False):
    return ColumnarStream(3600, 1, dense=True, strict=strict)


class TestSameRowsAsPush:
    @pytest.mark.parametrize("size", [7, 100, 1000])
    def test_bins_ids_and_counts_equal_push(self, feed, size):
        junk = [b"not json\n", b"\n", b'{"half": true}\n']
        chunks = [chunk + junk for chunk in _chunks(feed, size)]
        pushed = _stream()
        expected = [_materialised(pushed.push(chunk)) for chunk in chunks]
        expected.append(_materialised(pushed.drain()))
        piped = _stream()
        with ChunkDecoder(iter(chunks), piped) as decoder:
            got = [_materialised(closed) for closed in decoder]
        got.append(_materialised(piped.drain()))
        assert got == expected
        assert piped.batch.interner.strings == pushed.batch.interner.strings
        for name in ("lines", "skipped", "decoded", "unmapped",
                     "newest_timestamp", "dropped_late"):
            assert getattr(piped, name) == getattr(pushed, name), name

    def test_the_child_starts_from_the_streams_interner(self, feed):
        """Ids already assigned in the parent keep their meaning."""
        [first, *rest] = _chunks(feed, 100)
        pushed, piped = _stream(), _stream()
        pushed.push(first)
        piped.push(first)
        expected = [_materialised(pushed.push(chunk)) for chunk in rest]
        with ChunkDecoder(iter(rest), piped) as decoder:
            assert [_materialised(closed) for closed in decoder] == expected
        assert piped.batch.interner.strings == pushed.batch.interner.strings

    def test_one_decode_call_per_chunk(self, feed):
        timer = StageAccumulator()
        chunks = _chunks(feed, 100)
        with ChunkDecoder(iter(chunks), _stream(), timer=timer) as decoder:
            assert len(list(decoder)) == len(chunks) > 1
        assert timer.timings()["decode"]["calls"] == len(chunks)


class TestChildErrorsReachTheParent:
    def test_strict_decode_error_keeps_type_and_line(self, feed):
        lines = feed.read_bytes().splitlines(keepends=True)[:30]
        chunks = [lines[:10], lines[10:20] + [b"{torn\n"]]
        with pytest.raises(TracerouteDecodeError) as caught:
            with ChunkDecoder(iter(chunks), _stream(strict=True)) as decoder:
                list(decoder)
        assert str(caught.value).startswith("line 21: ")
        assert caught.value.line_number == 21

    def test_missing_file_is_the_same_os_error(self, tmp_path):
        path = tmp_path / "nope.jsonl"
        with pytest.raises(FileNotFoundError) as caught:
            with ChunkDecoder(read_chunks(path), _stream()) as decoder:
                list(decoder)
        assert caught.value.strerror == "No such file or directory"
        assert caught.value.filename == str(path)

    def test_an_exception_pickle_cannot_carry_is_named(self):
        class Local(Exception):
            pass  # a class pickle cannot find by name

        def chunks():
            raise Local("lost in transit")
            yield

        with pytest.raises(RuntimeError, match="Local: lost in transit"):
            with ChunkDecoder(chunks(), _stream()) as decoder:
                list(decoder)

    def test_a_child_gone_without_a_frame_is_an_error(self):
        def chunks():
            os._exit(3)
            yield

        with pytest.raises(RuntimeError, match="ended early"):
            with ChunkDecoder(chunks(), _stream()) as decoder:
                list(decoder)


class TestTelemetryIsCountedInTheParent:
    def test_ingest_counters_and_reopens(self, feed):
        tailer = FeedTailer(str(feed))
        lines = feed.read_bytes().splitlines(keepends=True)

        def chunks():
            yield lines[:100] + [b"not json\n"]
            tailer.reopens += 1  # in the child's copy of the tailer
            yield lines[100:]

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            with ChunkDecoder(chunks(), _stream(), tailer) as decoder:
                list(decoder)
        finally:
            set_default_registry(previous)
        values = {
            family.name: family.children[0].value
            for family in registry.collect()
            if family.name.startswith("repro_ingest_")
        }
        assert values == {
            "repro_ingest_traceroutes_total": len(lines),
            "repro_ingest_decode_warnings_total": 1,
            "repro_ingest_feed_reopens_total": 1,
            "repro_ingest_unmapped_probes_total": 0,
        }
        assert tailer.reopens == 1


class TestNothingOutlivesTheCommand:
    """After every exit path, this process has no child at all."""

    def test_closing_early_kills_and_reaps(self, feed, forks):
        with ChunkDecoder(iter(_chunks(feed, 50)), _stream()) as decoder:
            next(iter(decoder))
        assert forks and _no_child_left()

    def test_analyze(self, feed, forks, capsys):
        assert main(["analyze", str(feed), *ARGS, "--json"]) == 0
        assert forks and _no_child_left()

    def test_monitor(self, feed, forks, capsys):
        assert main(["monitor", str(feed), *ARGS, "--json"]) == 0
        assert forks and _no_child_left()

    def test_monitor_max_bins(self, feed, forks, capsys):
        assert main(["monitor", str(feed), *ARGS, "--max-bins", "2"]) == 0
        assert "monitor done: 2 bins" in capsys.readouterr().out
        assert forks and _no_child_left()

    def test_strict_decode_error(self, feed, tmp_path, forks, capsys):
        torn = tmp_path / "torn.jsonl"
        lines = feed.read_bytes().splitlines(keepends=True)
        torn.write_bytes(b"".join(lines[:50]) + b"{torn\n" + lines[50])
        assert main(["analyze", str(torn), *ARGS, "--bin-cache"]) == 1
        assert "line 51: " in capsys.readouterr().err
        assert forks and _no_child_left()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["torn.jsonl"]

    @pytest.mark.parametrize("command", ["analyze", "monitor"])
    def test_process_bin_raising_mid_run(
        self, feed, forks, monkeypatch, capsys, command
    ):
        from repro.core.engine import Engine

        process_bin = Engine.process_bin
        calls = []

        def failing(engine, start, view):
            calls.append(start)
            if len(calls) == 2:
                raise RuntimeError("engine failed")
            return process_bin(engine, start, view)

        monkeypatch.setattr(Engine, "process_bin", failing)
        with pytest.raises(RuntimeError, match="engine failed"):
            main([command, str(feed), *ARGS])
        assert forks and _no_child_left()


def _running(pid):
    """True while *pid* exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_bytes()
    except FileNotFoundError:
        return False
    return stat.rsplit(b")", 1)[1].split()[0] not in (b"Z", b"X")


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc/PID/task/PID/children",
)
def test_the_decoder_dies_with_an_idle_following_monitor(feed):
    """SIGKILL the parent while ``--follow`` idles: the decoder, asleep
    on the feed, notices the closed pipe and exits within 5 s."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "monitor", str(feed), *ARGS,
         "--json", "--follow", "--idle-timeout", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=_cli_env(),
    )
    decoder = None
    try:
        json.loads(proc.stdout.readline())  # a bin closed: it is running
        children = Path(
            f"/proc/{proc.pid}/task/{proc.pid}/children"
        ).read_text().split()
        assert len(children) == 1, children
        decoder = int(children[0])
        time.sleep(0.5)  # the feed is all read: the decoder idles
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 5.0
        while _running(decoder) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(decoder)
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
        if decoder is not None and _running(decoder):
            os.kill(decoder, signal.SIGKILL)
