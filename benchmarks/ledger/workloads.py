"""The five workloads: set-up, untraced measurement, output checks.

The system under test is always one CLI subprocess (``python -m repro
monitor|analyze|serve``); the driver is this single-threaded process.
Every workload is a closed loop.  Wall time runs from spawn to exit
(pipeline workloads) or from first byte sent to last byte read (serve
workloads); CPU and peak RSS come from ``os.wait4`` on the child.

Each workload is three functions over one :class:`Prepared` record:
``prepare_*`` builds the inputs (timed by the caller as ``setup_s``),
``measure_*`` runs untraced repetitions for a time budget and checks
every output against the serial-pipeline oracle, and ``Prepared.close``
stops whatever is still running.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import feeds
import loadgen
import synthstore
from repro.reporting import bin_event_record, record_json
from repro.service import (
    AlarmStoreWriter,
    ResponseCache,
    ServiceState,
    StoreQuery,
)
from repro.service.aio import DEFAULT_TOKEN_TTL_S

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
BIN_S = feeds.BIN_S

#: Pipelined requests per batch and connections of ``serve_hot``.
HOT_DEPTH = 32
HOT_CONNECTIONS = 2

#: One body in this many is compared with an in-process answer.
VERIFY_EVERY = 50

#: Generation bumps one ``serve_churn`` store can take (the bins are
#: fabricated up front); the schedule holds a window for each.
MAX_CHURN_WINDOWS = 32


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is what every reported number uses."""

    base_bins: int = 6
    live_tiles: int = 6
    replay_tiles: int = 10
    hot_schedule: int = 4096
    churn_as: int = 300
    churn_bins: int = 24
    churn_window: int = 480
    setup_passes: int = 3
    #: The least work one measurement does whatever its time budget —
    #: and exactly what the traced run's untraced pass does, so that
    #: its request and cache counts repeat.
    min_reps: int = 2
    hot_min_requests: int = 16384
    churn_min_windows: int = 4


FULL = Scale()

#: Correctness-only sizes for the smoke test (``--quick``).
QUICK = Scale(
    base_bins=5, live_tiles=1, replay_tiles=2, hot_schedule=256,
    churn_as=60, churn_bins=12, churn_window=60, setup_passes=1,
    min_reps=1, hot_min_requests=512, churn_min_windows=2,
)


# -- subprocess plumbing ------------------------------------------------------

LAUNCHER = Path(__file__).resolve().with_name("launch.py")


def child_env() -> Dict[str, str]:
    """This process's environment with ``src/`` first on PYTHONPATH."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + inherited if inherited else ""
    )
    return env


class Child:
    """One ``python -m repro ARGS`` process, run under ``launch.py``.

    The launcher (see its docstring) is what makes ``wait4``'s peak RSS
    the command's own.  Launcher and command share a fresh process
    group, so one ``killpg`` reaches both.  *log_dir* receives the
    command's ``stderr`` and the launcher's ``rusage.json``.
    """

    #: Children not yet reaped; ``kill_children`` ends them on any exit.
    live: List["Child"] = []

    def __init__(self, args: Sequence[str], log_dir: Path) -> None:
        self.report = log_dir / "rusage.json"
        self.report.unlink(missing_ok=True)
        with open(log_dir / "stderr", "wb") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, "-S", "-E", str(LAUNCHER), str(self.report),
                 sys.executable, "-m", "repro", *args],
                stdout=subprocess.PIPE, stderr=stderr, env=child_env(),
                start_new_session=True,
            )
        Child.live.append(self)

    def command_pid(self) -> int:
        """Pid of the command itself (not the launcher), for ``/proc``."""
        return int(Path(f"{self.report}.pid").read_text())

    def signal(self, signum: int) -> None:
        os.killpg(self.proc.pid, signum)

    def reap(self) -> Tuple[int, float, float]:
        """Wait for exit; returns (exit code, cpu seconds, peak RSS MB).

        CPU is user + system including the command's own reaped
        children (the process executor's workers), as ``wait4`` reports.
        """
        self.proc.stdout.close()
        exit_code = self.proc.wait()
        Child.live.remove(self)
        usage = json.loads(self.report.read_text())
        return exit_code, usage["cpu_s"], usage["rss_mb"]


def kill_children() -> None:
    """Kill and reap everything still running (idempotent)."""
    while Child.live:
        child = Child.live.pop()
        try:
            child.signal(signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.proc.wait()


PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the new parent of every orphaned descendant.

    ``analyze --shards 2`` starts a ``multiprocessing`` resource tracker
    that exits only once the command itself has: it would be handed to
    init and still be there (running, then a zombie) after the
    benchmark has returned.  As a subreaper this process inherits such
    orphans, and :func:`reap_descendants` waits for them.
    """
    if ctypes.CDLL(None, use_errno=True).prctl(
        PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
    ) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _own_children() -> List[int]:
    """Pids whose parent is this process, from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                ppid = int(handle.read().rsplit(b")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # gone between listdir and open
        if ppid == me:
            pids.append(int(entry))
    return pids


def reap_descendants(grace_s: float = 5.0) -> None:
    """Return only when this process has no child left, however it exits.

    Call after :func:`adopt_orphans`.  Stops this process's own resource
    tracker (the traced replays run the engine in-process), gives the
    orphans *grace_s* to finish by themselves, kills what is left, and
    reaps every one of them.
    """
    kill_children()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(
        getattr(tracker, "_resource_tracker", None), "_stop", None
    )
    if stop is not None:  # otherwise it is killed after the grace period
        stop()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for straggler in _own_children():
                try:
                    os.kill(straggler, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


@dataclass
class CliRun:
    """One finished CLI subprocess."""

    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    lines: List[bytes]
    #: perf_counter stamp of each stdout line's arrival.
    stamps: List[float]


def run_cli(args: Sequence[str], log_dir: Path) -> CliRun:
    """Run ``python -m repro ARGS`` to completion, stamping stdout lines."""
    start = perf_counter()
    child = Child(args, log_dir)
    lines, stamps = [], []
    for line in child.proc.stdout:
        stamps.append(perf_counter())
        lines.append(line)
    exit_code, cpu_s, rss_mb = child.reap()
    return CliRun(
        exit_code, perf_counter() - start, cpu_s, rss_mb, lines, stamps
    )


#: The CPUs this process may use, before any pinning.
CPUS = sorted(os.sched_getaffinity(0))


class Server:
    """``python -m repro serve STORE --port 0 --async`` as a child.

    While it runs, the server is pinned to one CPU and this process (the
    load generator) to another.  Left to the scheduler, the two end up
    sometimes on one CPU and sometimes on two — request and response
    are a strict hand-over, so sharing a CPU is ~1.4x *faster* than
    waking the peer on the other one — and throughput flips between
    the two levels for minutes at a time (README, "Steadiness").
    """

    def __init__(
        self, store: Path, log_dir: Path, access_log: Optional[Path] = None
    ) -> None:
        args = ["serve", str(store), "--port", "0", "--async"]
        if access_log is not None:
            args += ["--access-log", str(access_log)]
        self.stopped = False
        if len(CPUS) >= 2:
            # The child inherits the affinity set at the time of its fork.
            os.sched_setaffinity(0, {CPUS[1]})
        try:
            self.child = Child(args, log_dir)
        finally:
            os.sched_setaffinity(0, CPUS)
        stdout = self.child.proc.stdout
        ready, _, _ = select.select([stdout], [], [], 60.0)
        banner = stdout.readline() if ready else b""
        match = re.search(rb"http://[^:]+:(\d+)", banner)
        if match is None:
            kill_children()
            raise RuntimeError(f"serve did not come up: {banner!r}")
        self.port = int(match.group(1))
        self.pid = self.child.command_pid()
        os.sched_setaffinity(0, CPUS[:1])

    def cpu_s(self) -> float:
        """CPU consumed so far (user + system), from ``/proc``."""
        with open(f"/proc/{self.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> float:
        """SIGINT (the CLI's clean exit) and reap; returns peak RSS MB."""
        if self.stopped:
            return 0.0
        self.stopped = True
        os.sched_setaffinity(0, CPUS)
        self.child.signal(signal.SIGINT)
        return self.child.reap()[2]


# -- shared records -----------------------------------------------------------


@dataclass
class Prepared:
    """Everything one workload's set-up produced."""

    directory: Path
    seed: int
    scale: Scale
    #: pipeline workloads
    feed: Optional[Path] = None
    n_records: int = 0
    n_bins: int = 0
    feed_digest: str = ""
    oracle: List = field(default_factory=list)
    reference_store: Optional[Tuple[str, int]] = None
    #: serve workloads
    store: Optional[Path] = None
    server: Optional[Server] = None
    schedule: List[str] = field(default_factory=list)
    state: Optional[ServiceState] = None
    writer: Optional[AlarmStoreWriter] = None
    bump_bins: List = field(default_factory=list)
    asns: List[int] = field(default_factory=list)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.directory, ignore_errors=True)


@dataclass
class Outcome:
    """One measurement of one workload."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: values that must repeat exactly for one seed (digests, byte counts)
    counts: Dict[str, object] = field(default_factory=dict)
    #: how many samples stand behind each percentile
    samples: Dict[str, int] = field(default_factory=dict)
    #: items/s of every repetition (pipeline) or window (serve), in order
    rates: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def fail(self, ops: int, reason: str) -> None:
        self.failed += ops
        if len(self.errors) < 20:
            self.errors.append(reason)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _oracle_lines(oracle: Sequence) -> List[bytes]:
    return [
        record_json(bin_event_record(result)).encode("utf-8") + b"\n"
        for result in oracle
    ]


def _store_matches_oracle(store: Path, oracle: Sequence) -> List[bool]:
    """Per oracle bin: does the store hold exactly its alarms?"""
    query = StoreQuery(store)
    return [
        query.alarms_at(result.timestamp)
        == (result.delay_alarms, result.forwarding_alarms)
        for result in oracle
    ]


# -- pipeline workloads -------------------------------------------------------


def _prepare_feed(directory: Path, seed: int, scale: Scale, tiles: int) -> Prepared:
    directory.mkdir(parents=True)
    _mapper, base = feeds.build_base(seed, scale.base_bins)
    feed = directory / "feed.jsonl"
    n_records, digest = feeds.write_tiled_feed(
        feed, base, scale.base_bins, tiles
    )
    feeds.validate_feed_sample(
        feed, base, scale.base_bins, tiles, directory / "sample.jsonl"
    )
    return Prepared(
        directory, seed, scale,
        feed=feed, n_records=n_records, n_bins=scale.base_bins * tiles,
        feed_digest=digest, oracle=feeds.oracle_bins(base),
    )


def prepare_live_monitor(directory: Path, seed: int, scale: Scale) -> Prepared:
    return _prepare_feed(directory, seed, scale, scale.live_tiles)


def monitor_args(prepared: Prepared, out: Path) -> List[str]:
    return [
        "monitor", str(prepared.feed), "--seed", str(feeds.TOPOLOGY_SEED),
        "--json", "--store", str(out / "store"),
        "--checkpoint", str(out / "monitor.ckpt"), "--compact-every", "24",
    ]


def check_monitor(
    prepared: Prepared, run: CliRun, out: Path, outcome: Outcome
) -> None:
    """Count each expected bin once; a wrong or missing one fails."""
    n_bins = prepared.n_bins
    outcome.attempted += n_bins
    if run.exit_code != 0 or len(run.lines) != n_bins:
        outcome.fail(
            n_bins,
            f"monitor exit {run.exit_code}, {len(run.lines)}/{n_bins} records",
        )
        return
    expected = _oracle_lines(prepared.oracle)
    stored = _store_matches_oracle(out / "store", prepared.oracle)
    total = 0
    for index, line in enumerate(run.lines):
        record = json.loads(line)
        total += record["n_traceroutes"]
        ok = record["bin"] == index * BIN_S
        if index < len(expected):
            ok = ok and line == expected[index] and stored[index]
        if not ok:
            outcome.fail(1, f"monitor bin {index} differs from the oracle")
    if total != prepared.n_records:
        outcome.fail(
            n_bins, f"monitor saw {total}/{prepared.n_records} traceroutes"
        )


def bin_gaps_ms(run: CliRun) -> List[float]:
    """Milliseconds between consecutive bin records on stdout."""
    return [(b - a) * 1e3 for a, b in zip(run.stamps, run.stamps[1:])]


def measure_live_monitor(prepared: Prepared, seconds: float) -> Outcome:
    outcome = Outcome()
    runs, gaps, digests, stores = [], [], [], []
    started = perf_counter()
    while (len(runs) < prepared.scale.min_reps
           or perf_counter() - started < seconds):
        out = prepared.directory / f"rep-{len(runs)}"
        out.mkdir()
        run = run_cli(monitor_args(prepared, out), out)
        check_monitor(prepared, run, out, outcome)
        runs.append(run)
        gaps += bin_gaps_ms(run)
        digests.append(hashlib.blake2b(b"".join(run.lines)).hexdigest()[:32])
        if run.exit_code == 0:
            stores.append(synthstore.store_fingerprint(out / "store"))
        shutil.rmtree(out)
    if len(set(digests)) != 1 or len(set(stores)) != 1:
        outcome.fail(prepared.n_bins, "monitor output differs between reps")
    worst = [max(bin_gaps_ms(run), default=0.0) for run in runs]
    _pipeline_metrics(outcome, prepared, runs, gaps, worst)
    store_digest, store_bytes = stores[0] if stores else ("", 0)
    outcome.counts.update(
        stdout_digest=digests[0], store_digest=store_digest,
        store_bytes=store_bytes,
    )
    return outcome


def _pipeline_metrics(
    outcome: Outcome,
    prepared: Prepared,
    runs: Sequence[CliRun],
    waits_ms: Sequence[float],
    worst_ms: Sequence[float],
) -> None:
    """Medians over reps; *waits_ms* are pooled across reps.

    The bounded ``items_per_s`` is the *fastest* rep's.  Every rep does
    the same work, and what the shared host adds is never negative: it
    slows this memory-heavy work by up to 30 % for half a minute at a
    time, so the median of the handful of reps one run has room for
    lands in or out of such a phase by chance, while the fastest rep
    needs only a few quiet seconds anywhere in the run (README,
    "Steadiness").  ``wall_s`` stays the median.
    """
    wall = statistics.median(run.wall_s for run in runs)
    cpu = statistics.median(run.cpu_s for run in runs)
    outcome.rates = [prepared.n_records / run.wall_s for run in runs]
    outcome.metrics.update(
        wall_s=wall,
        items_per_s=max(outcome.rates),
        latency_p50_ms=percentile(waits_ms, 50),
        latency_p90_ms=percentile(waits_ms, 90),
        worst_wait_ms=statistics.median(worst_ms),
        cpu_us_per_item=cpu / prepared.n_records * 1e6,
        peak_rss_mb=statistics.median(run.rss_mb for run in runs),
    )
    outcome.samples.update(reps=len(runs), latency=len(waits_ms))
    outcome.counts.update(
        feed_digest=prepared.feed_digest,
        traceroutes=prepared.n_records,
        bins=prepared.n_bins,
    )


def prepare_replay_cold(directory: Path, seed: int, scale: Scale) -> Prepared:
    return _prepare_feed(directory, seed, scale, scale.replay_tiles)


def analyze_args(prepared: Prepared) -> List[str]:
    directory = prepared.directory
    return [
        "analyze", str(prepared.feed), "--seed", str(feeds.TOPOLOGY_SEED),
        "--bin-cache", str(directory / "feed.binc"), "--shards", "2",
        "--store", str(directory / "store"),
    ]


def check_analyze(
    prepared: Prepared, run: CliRun, cache_state: bytes, outcome: Outcome
) -> Optional[Tuple[str, int]]:
    """Check one ``analyze`` run; returns its store fingerprint."""
    n_bins = prepared.n_bins
    outcome.attempted += n_bins
    stdout = b"".join(run.lines)
    if run.exit_code != 0:
        outcome.fail(n_bins, f"analyze exit {run.exit_code}")
        return None
    printed = {
        key: int(value)
        for key, value in re.findall(
            rb"^(traceroutes|bins)\s+(\d+)\s*$", stdout, re.MULTILINE
        )
    }
    if printed != {b"traceroutes": prepared.n_records, b"bins": n_bins}:
        outcome.fail(n_bins, f"analyze printed counts {printed}")
    if b"bin cache " + cache_state not in stdout:
        outcome.fail(n_bins, f"bin cache was not {cache_state.decode()}")
    store = prepared.directory / "store"
    for index, ok in enumerate(_store_matches_oracle(store, prepared.oracle)):
        if not ok:
            outcome.fail(1, f"store bin {index} differs from the oracle")
    fingerprint = synthstore.store_fingerprint(store)
    if prepared.reference_store is None:
        prepared.reference_store = fingerprint
    elif fingerprint != prepared.reference_store:
        outcome.fail(n_bins, "store bytes differ from the reference run")
    return fingerprint


def measure_replay(
    prepared: Prepared, seconds: float, cold: bool
) -> Outcome:
    """Repeat ``analyze``; *cold* deletes the bin cache before each run."""
    outcome = Outcome()
    runs = []
    directory = prepared.directory
    started = perf_counter()
    while (len(runs) < prepared.scale.min_reps
           or perf_counter() - started < seconds):
        if cold:
            (directory / "feed.binc").unlink(missing_ok=True)
        run = run_cli(analyze_args(prepared), directory)
        check_analyze(
            prepared, run, b"rebuilt" if cold else b"hit", outcome
        )
        runs.append(run)
    # A batch job has one result per run, so its wait is the run; a
    # handful of runs supports a median and nothing beyond it, and the
    # tail percentile reports that median rather than the maximum.
    wall_ms = statistics.median(run.wall_s for run in runs) * 1e3
    _pipeline_metrics(outcome, prepared, runs, [wall_ms], [wall_ms])
    digest, size = prepared.reference_store or ("", 0)
    outcome.counts.update(store_digest=digest, store_bytes=size)
    return outcome


def prepare_replay_warm(directory: Path, seed: int, scale: Scale) -> Prepared:
    """The cold feed plus one cold CLI run that leaves the cache behind."""
    prepared = _prepare_feed(directory, seed, scale, scale.replay_tiles)
    outcome = Outcome()
    run = run_cli(analyze_args(prepared), directory)
    check_analyze(prepared, run, b"rebuilt", outcome)
    if outcome.failed:
        raise RuntimeError(f"cold run in set-up failed: {outcome.errors}")
    return prepared


# -- serve workloads ----------------------------------------------------------


def _expected(prepared: Prepared, target: str) -> Tuple[int, str, bytes]:
    """The in-process answer for *target* at the store's generation."""
    entry = prepared.state.respond(*loadgen.split_target(target))
    return entry.status, entry.etag, entry.body


def start_serving(prepared: Prepared, access_log: bool = False) -> None:
    log = prepared.directory / "access.log" if access_log else None
    prepared.server = Server(prepared.store, prepared.directory, log)
    prepared.state = ServiceState(
        StoreQuery(prepared.store), ResponseCache(256)
    )


def prepare_serve_hot(directory: Path, seed: int, scale: Scale) -> Prepared:
    """The case-study store (what ``analyze --store`` publishes), served."""
    directory.mkdir(parents=True)
    mapper, base = feeds.build_base(seed, scale.base_bins)
    oracle = feeds.oracle_bins(base)
    store = directory / "store"
    AlarmStoreWriter.create(store, mapper, bin_s=BIN_S, start=0).append_bins(
        oracle
    )
    asns = StoreQuery(store).monitored_asns()
    prepared = Prepared(
        directory, seed, scale, store=store, oracle=oracle, asns=asns,
        schedule=loadgen.hot_schedule(seed, asns, scale.hot_schedule),
    )
    start_serving(prepared)
    return prepared


def _windowed_rates(stamps: Sequence[Tuple[float, int]], width: float) -> List[float]:
    """Requests/s over consecutive windows of about *width* seconds.

    *stamps* are (time, cumulative requests) points; the first point is
    the start of the run.
    """
    rates = []
    start_time, start_count = stamps[0]
    for stamp, count in stamps[1:]:
        if stamp - start_time >= width:
            rates.append((count - start_count) / (stamp - start_time))
            start_time, start_count = stamp, count
    if not rates:
        stamp, count = stamps[-1]
        rates.append((count - start_count) / (stamp - start_time))
    return rates


def drive_hot(
    prepared: Prepared, budget: Callable[[int], bool], outcome: Outcome
) -> Tuple[List[float], List[Tuple[float, int]]]:
    """Pipelined closed loop; returns (batch waits ms, progress stamps).

    *budget(requests_so_far)* says whether to send another round.  Each
    round puts one ``HOT_DEPTH`` batch on every connection, then reads
    them back in order; a batch's wait runs from its write to its last
    response.
    """
    schedule = prepared.schedule
    batches = [
        schedule[start:start + HOT_DEPTH]
        for start in range(0, len(schedule) - HOT_DEPTH + 1, HOT_DEPTH)
    ]
    wire = [b"".join(map(loadgen.render_request, batch)) for batch in batches]
    checks = [
        [(position, _expected(prepared, target))
         for position, target in enumerate(batch)
         if (index * HOT_DEPTH + position) % VERIFY_EVERY == 0]
        for index, batch in enumerate(batches)
    ]
    connections = [
        loadgen.Connection(prepared.server.port)
        for _ in range(HOT_CONNECTIONS)
    ]
    try:
        # Fill the response cache: the timed loop must be all hits.
        for target in sorted(set(schedule)):
            connections[0].get(target)
        waits: List[float] = []
        done = 0
        cursor = 0
        stamps = [(perf_counter(), 0)]
        while budget(done):
            sent = []
            for connection in connections:
                index = cursor % len(batches)
                cursor += 1
                sent.append((connection, index, perf_counter()))
                connection.send(wire[index])
            for connection, index, sent_at in sent:
                responses = connection.read(HOT_DEPTH)
                waits.append((perf_counter() - sent_at) * 1e3)
                for status, _etag, _body in responses:
                    if status != 200:
                        outcome.fail(1, f"status {status} in batch {index}")
                for position, expected in checks[index]:
                    if responses[position] != expected:
                        outcome.fail(
                            1, f"body of {batches[index][position]} differs"
                        )
                done += HOT_DEPTH
            stamps.append((perf_counter(), done))
    finally:
        for connection in connections:
            connection.close()
    outcome.attempted += done
    return waits, stamps


def measure_serve_hot(prepared: Prepared, seconds: float) -> Outcome:
    outcome = Outcome()
    server = prepared.server
    floor = prepared.scale.hot_min_requests
    deadline = perf_counter() + seconds
    cpu_before = server.cpu_s()
    waits, stamps = drive_hot(
        prepared,
        lambda done: done < floor or perf_counter() < deadline,
        outcome,
    )
    cpu_load = server.cpu_s() - cpu_before
    rates = outcome.rates = _windowed_rates(stamps, 1.0)
    outcome.metrics.update(
        wall_s=stamps[-1][0] - stamps[0][0],
        # Every one-second window is the same work: the fastest one,
        # for the reason given in _pipeline_metrics.
        items_per_s=max(rates),
        latency_p50_ms=percentile(waits, 50),
        latency_p90_ms=percentile(waits, 90),
        worst_wait_ms=max(waits),
        cpu_us_per_item=cpu_load / outcome.attempted * 1e6,
        peak_rss_mb=server.stop(),
    )
    outcome.samples.update(reps=len(rates), latency=len(waits))
    outcome.counts.update(
        schedule_digest=loadgen.schedule_digest(prepared.schedule),
        distinct_targets=len(set(prepared.schedule)),
        store_bytes=synthstore.store_bytes(prepared.store),
    )
    return outcome


def prepare_serve_churn(directory: Path, seed: int, scale: Scale) -> Prepared:
    """A wide synthetic store, served, with bump bins ready to append."""
    directory.mkdir(parents=True)
    bins = synthstore.synth_bins(
        seed, scale.churn_as, scale.churn_bins + MAX_CHURN_WINDOWS, 150, 30
    )
    store = directory / "store"
    writer = synthstore.build_store(
        store, synthstore.synth_mapper(scale.churn_as),
        bins[:scale.churn_bins], bins_per_segment=24,
    )
    asns = synthstore.asn_list(scale.churn_as)
    prepared = Prepared(
        directory, seed, scale, store=store, writer=writer, asns=asns,
        bump_bins=bins[scale.churn_bins:],
        schedule=loadgen.churn_schedule(
            seed, asns, scale.churn_window * MAX_CHURN_WINDOWS
        ),
    )
    start_serving(prepared)
    return prepared


def bump_generation(prepared: Prepared) -> None:
    """Append the next fabricated bin: exactly one new store generation."""
    prepared.writer.append_bins([prepared.bump_bins.pop(0)])


def drive_churn(
    prepared: Prepared,
    budget: Callable[[List[float]], bool],
    outcome: Outcome,
) -> Tuple[List[List[float]], List[float]]:
    """Depth-1 closed loop with a generation bump after every window.

    *budget(window walls so far)* says whether to run another window.

    Returns (per-window request waits in ms, per-window wall seconds).
    After each window — outside its timing — a 1-in-``VERIFY_EVERY``
    sample of bodies is compared with an in-process ``ServiceState`` at
    the same generation, the driver appends one bin through its own
    ``AlarmStoreWriter`` (one generation bump, reads beside writes) and
    idles two token TTLs so the server has noticed before the next
    window starts and cache outcomes repeat exactly.
    """
    window = prepared.scale.churn_window
    connection = loadgen.Connection(prepared.server.port)
    waits: List[List[float]] = []
    walls: List[float] = []
    try:
        while prepared.bump_bins and budget(walls):
            first = len(waits) * window
            targets = prepared.schedule[first:first + window]
            requests = [loadgen.render_request(target) for target in targets]
            window_waits, answers = [], []
            window_start = perf_counter()
            for request in requests:
                sent_at = perf_counter()
                connection.send(request)
                answers.append(connection.read(1)[0])
                window_waits.append((perf_counter() - sent_at) * 1e3)
            walls.append(perf_counter() - window_start)
            waits.append(window_waits)
            for offset, (target, answer) in enumerate(zip(targets, answers)):
                if answer[0] != 200:
                    outcome.fail(1, f"status {answer[0]} for {target}")
                elif (first + offset) % VERIFY_EVERY == 0 and (
                    answer != _expected(prepared, target)
                ):
                    outcome.fail(1, f"body of {target} differs")
            bump_generation(prepared)
            time.sleep(2 * DEFAULT_TOKEN_TTL_S)
    finally:
        connection.close()
    outcome.attempted += len(waits) * window
    return waits, walls


def measure_serve_churn(prepared: Prepared, seconds: float) -> Outcome:
    outcome = Outcome()
    server = prepared.server
    floor = prepared.scale.churn_min_windows
    store_bytes = synthstore.store_bytes(prepared.store)
    cpu_before = server.cpu_s()
    # The budget counts window time only: the driver's own body checks
    # between windows cost about as much as the windows themselves and
    # would halve the number of generations measured.
    waits, walls = drive_churn(
        prepared,
        lambda walls: len(walls) < floor or sum(walls) < seconds,
        outcome,
    )
    cpu_load = server.cpu_s() - cpu_before
    pooled = [wait for window in waits for wait in window]
    outcome.rates = [len(window) / wall for window, wall in zip(waits, walls)]
    outcome.metrics.update(
        wall_s=sum(walls),
        items_per_s=statistics.median(outcome.rates),
        latency_p50_ms=percentile(pooled, 50),
        latency_p90_ms=percentile(pooled, 90),
        # The stale-to-fresh stall: the slowest request of each
        # generation window, then the median over windows.
        worst_wait_ms=statistics.median(max(window) for window in waits),
        cpu_us_per_item=cpu_load / outcome.attempted * 1e6,
        peak_rss_mb=server.stop(),
    )
    outcome.samples.update(reps=len(waits), latency=len(pooled))
    outcome.counts.update(
        schedule_digest=loadgen.schedule_digest(prepared.schedule),
        n_as=prepared.scale.churn_as,
        store_bytes=store_bytes,
    )
    return outcome


#: name -> (prepare, measure); order is the run order everywhere.
WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "live_monitor": (prepare_live_monitor, measure_live_monitor),
    "replay_cold": (prepare_replay_cold, partial(measure_replay, cold=True)),
    "replay_warm": (prepare_replay_warm, partial(measure_replay, cold=False)),
    "serve_hot": (prepare_serve_hot, measure_serve_hot),
    "serve_churn": (prepare_serve_churn, measure_serve_churn),
}
