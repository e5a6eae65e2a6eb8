"""The traced run: where each workload's time goes, layer by layer.

End-to-end numbers are measured with tracing off (``workloads.py``).
This module gives the per-layer numbers: for the pipeline workloads it
replays the call sequence of ``repro.cli._cmd_monitor`` /
``_cmd_analyze`` in-process through each layer's public functions with
a span around every call, and for the serve workloads it drives a
server started with ``--access-log`` and scrapes ``/metrics`` and ``/``
around a fixed load.  Spans are recorded from here — nothing in
``src/repro`` is instrumented for it — kept in memory, and written as
Chrome trace-event JSON when asked.  A traced replay's output digest
must equal the untraced CLI run's, or the run counts as failed.

Per-record calls (tail/decode/push, ~20k a run) are too cheap to carry
a span each without distorting what they measure; their busy time is
accumulated with bare ``perf_counter`` pairs and laid down as one
aggregated span per closed bin.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

import feeds
import loadgen
import spec
import synthstore
import workloads
from workloads import Outcome, Prepared, percentile
from repro.atlas import (
    FeedTailer,
    Traceroute,
    TracerouteStream,
    decode_traceroutes,
    fingerprint_of,
    read_bincache,
    write_bincache,
)
from repro.core import (
    PipelineConfig,
    StageTimer,
    analyze_campaign,
    create_pipeline,
    save_snapshot,
    source_digest_of,
)
from repro.obs import Tracer
from repro.reporting import (
    InternetHealthReport,
    bin_event_record,
    format_table,
    record_json,
)
from repro.service import (
    AlarmStoreWriter,
    StoreQuery,
    append_analysis,
    compact_store,
    read_manifest,
)

#: Iterations of the host-speed loop run before and after a traced
#: measurement (reported, never used to normalise anything).
CALIBRATION_ITERATIONS = 5_000_000


class Spans:
    """In-memory span list: name, start, end, parent, one run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: [name, start, end, parent index or -1]
        self.rows: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.rows)
        self.rows.append(
            [name, perf_counter(), None, self._stack[-1] if self._stack else -1]
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.rows[index][2] = perf_counter()

    def add(self, name: str, start: float, seconds: float) -> None:
        """A finished child of the open span (aggregated busy time)."""
        self.rows.append(
            [name, start, start + seconds,
             self._stack[-1] if self._stack else -1]
        )

    def self_seconds(self) -> Dict[str, float]:
        """Per name: total span time minus the time child spans cover."""
        own = [row[2] - row[1] for row in self.rows]
        for _name, start, end, parent in self.rows:
            if parent >= 0:
                own[parent] -= end - start
        totals: Dict[str, float] = {}
        for row, seconds in zip(self.rows, own):
            totals[row[0]] = totals.get(row[0], 0.0) + seconds
        return totals

    def durations(self, name: str) -> List[float]:
        return [row[2] - row[1] for row in self.rows if row[0] == name]

    def write_chrome(self, path: Path) -> None:
        """Export through ``repro.obs.Tracer`` (Chrome trace-event JSON)."""
        tracer = Tracer()
        for index, (name, start, end, parent) in enumerate(self.rows):
            tracer.add_span(
                name, start, end - start,
                args={"id": index, "parent": parent, "run": self.run_id},
            )
        tracer.write(str(path))


def calibrate() -> float:
    """Seconds this host needs for a fixed pure-Python loop."""
    start = perf_counter()
    for _ in range(CALIBRATION_ITERATIONS):
        pass
    return perf_counter() - start


def cli_startup_s(runs: int) -> float:
    """Wall time of ``import repro.cli`` in a fresh interpreter."""
    walls = []
    for _ in range(runs):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=workloads.child_env(), check=True,
        )
        walls.append(perf_counter() - start)
    return statistics.median(walls)


def _finish(
    outcome: Outcome,
    metrics: Dict[str, float],
    spans: Spans,
    in_process: bool,
    startup_runs: int,
) -> Outcome:
    """Add the layer numbers and the trace.* summary to *outcome*.

    *outcome* is the untraced pass (its metrics stay: they are the
    baseline the traced pass is compared with).  An *in_process* replay
    skips the interpreter start-up the untraced CLI run paid, so it is
    measured and added back before the two walls are compared; a server
    starts once and then serves, so start-up is not part of its load.
    A span named ``x`` feeds the per-layer metric ``x_s`` (self time).
    """
    own = spans.self_seconds()
    for name, seconds in own.items():
        if f"{name}_s" in spec.PER_LAYER:
            metrics[f"{name}_s"] = seconds
    metrics["service.store.append_calls"] = len(
        spans.durations("service.store.append")
    )
    run_s = spans.durations("run")[0]
    attributed = sum(
        seconds for name, seconds in own.items() if name != "run"
    )
    # Like the untraced wall_s it is compared with, the traced wall
    # leaves out what the driver does between serve windows.
    traced_wall = run_s - sum(spans.durations("ledger.between_windows"))
    startup = cli_startup_s(startup_runs) if in_process else 0.0
    metrics.update({
        "cli.startup_s": startup,
        "store_bytes": outcome.counts["store_bytes"],
        "trace.wall_s": traced_wall,
        "trace.attributed_ratio": attributed / run_s,
        "trace.overhead_ratio": (
            (startup + traced_wall) / outcome.metrics["wall_s"]
        ),
    })
    outcome.metrics = {**metrics, **outcome.metrics}
    return outcome


# -- live_monitor -------------------------------------------------------------


def _replay_monitor(
    prepared: Prepared, out: Path, spans: Spans, metrics: Dict[str, float]
) -> bytes:
    """``_cmd_monitor`` call for call; returns what it prints to stdout."""
    feed = str(prepared.feed)
    store = out / "store"
    checkpoint_path = out / "monitor.ckpt"
    with spans.span("cli.prepare"):
        config = PipelineConfig(bin_s=3600)
        pipeline = create_pipeline(config)
        feed_digest = source_digest_of(feed)
        stream = TracerouteStream(
            bin_s=config.bin_s, lateness_bins=1, dense=True
        )
        writer = AlarmStoreWriter.open_or_create(
            store, feeds.cli_mapper(), bin_s=config.bin_s
        )
    emitted: List[bytes] = []
    bins_since_compact = 0
    busy = {"tail": 0.0, "decode": 0.0, "push": 0.0}
    period_start = perf_counter()
    lines = decoded_bytes = written = 0

    def handle(closed) -> None:
        """Closed bins: detect, emit, store, compact, checkpoint."""
        nonlocal bins_since_compact, written, period_start
        # The per-record layers' busy time since the previous bin, as
        # one aggregated span each, laid end to end from period_start.
        cursor = period_start
        for key, name in (("tail", "atlas.stream.tail"),
                          ("decode", "atlas.model.decode"),
                          ("push", "atlas.stream.push")):
            spans.add(name, cursor, busy[key])
            cursor += busy[key]
            busy[key] = 0.0
        for start, traceroutes in closed:
            with spans.span("core.pipeline.process_bin"):
                result = pipeline.process_bin(start, traceroutes)
            with spans.span("reporting.export.emit"):
                emitted.append(
                    record_json(bin_event_record(result)).encode("utf-8")
                    + b"\n"
                )
            with spans.span("service.store.append"):
                segments = len(writer.manifest.segments)
                writer.append_bins([result])
            if len(writer.manifest.segments) > segments:
                written += (store / writer.manifest.segments[-1].name).stat().st_size
            written += (store / "MANIFEST").stat().st_size
            bins_since_compact += 1
            if bins_since_compact >= 24:
                with spans.span("service.compact.compact"):
                    report = compact_store(store)
                    writer.reload()
                bins_since_compact = 0
                metrics["service.compact.segments_before"] += report.segments_before
                metrics["service.compact.segments_after"] += report.segments_after
                metrics["service.compact.bytes_rewritten"] += report.bytes_after or 0
            with spans.span("core.checkpoint.snapshot"):
                state = pipeline.snapshot()
                state.source_digest = feed_digest
            with spans.span("core.checkpoint.save"):
                save_snapshot(checkpoint_path, state)
        period_start = perf_counter()

    tail = FeedTailer(feed).lines()
    while True:
        t0 = perf_counter()
        line = next(tail, None)
        t1 = perf_counter()
        busy["tail"] += t1 - t0
        if line is None:
            break
        line = line.strip()
        if not line:
            continue
        lines += 1
        decoded_bytes += len(line)
        traceroute = Traceroute.from_json(json.loads(line))
        t2 = perf_counter()
        busy["decode"] += t2 - t1
        closed = stream.push(traceroute)
        busy["push"] += perf_counter() - t2
        if closed:
            handle(closed)
    t0 = perf_counter()
    closed = stream.drain()
    busy["push"] += perf_counter() - t0
    handle(closed)
    metrics.update({
        "atlas.stream.lines": lines,
        "atlas.stream.bins_closed": len(emitted),
        "atlas.stream.dropped_late": stream.dropped_late,
        "atlas.model.decode_bytes": decoded_bytes,
        "core.checkpoint.bytes": checkpoint_path.stat().st_size,
        "service.store.bytes_written": written,
        "service.store.segments": len(read_manifest(store).segments),
    })
    return b"".join(emitted)


def trace_live_monitor(prepared: Prepared, spans: Spans) -> Outcome:
    outcome = workloads.measure_live_monitor(prepared, 0.0)
    metrics = _zeroed()
    out = prepared.directory / "traced"
    out.mkdir()
    with spans.span("run"):
        stdout = _replay_monitor(prepared, out, spans, metrics)
    digest = hashlib.blake2b(stdout).hexdigest()[:32]
    if digest != outcome.counts["stdout_digest"]:
        outcome.fail(prepared.n_bins, "traced monitor output differs from the CLI's")
    store = synthstore.store_fingerprint(out / "store")
    if store != (outcome.counts["store_digest"], outcome.counts["store_bytes"]):
        outcome.fail(prepared.n_bins, "traced monitor store differs from the CLI's")
    per_bin = spans.durations("core.pipeline.process_bin")
    metrics["core.pipeline.process_bin_p50_ms"] = percentile(per_bin, 50) * 1e3
    metrics["core.pipeline.process_bin_max_ms"] = max(per_bin) * 1e3
    return _finish(outcome, metrics, spans, True, prepared.scale.min_reps)


# -- replay_cold / replay_warm ------------------------------------------------


def _replay_analyze(
    prepared: Prepared, spans: Spans, metrics: Dict[str, float]
) -> Tuple[int, int]:
    """``_cmd_analyze --bin-cache --shards 2 --store``, call for call.

    ``load_or_build`` is unfolded into the three public calls it makes
    so decode, cache write and cache read are timed apart.  Returns the
    (traceroutes, bins) the CLI would print.
    """
    feed = prepared.feed
    cache = prepared.directory / "feed.binc"
    with spans.span("cli.prepare"):
        mapper = feeds.cli_mapper()
        config = PipelineConfig(n_shards=2)
        timer = StageTimer()
        current = fingerprint_of(feed)
    if cache.exists():
        with spans.span("atlas.bincache.read"):
            batch = read_bincache(cache, fingerprint=current, mapped=True)
        metrics["atlas.bincache.hit"] = 1
    else:
        with spans.span("atlas.columnar.decode"):
            batch = decode_traceroutes(feed)
        with spans.span("atlas.bincache.write"):
            write_bincache(cache, batch, fingerprint=current)
        metrics["atlas.columnar.bytes_in"] = feed.stat().st_size
        metrics["atlas.columnar.traceroutes"] = len(batch)
    metrics["atlas.bincache.bytes"] = cache.stat().st_size
    with spans.span("core.engine.run"):
        analysis = analyze_campaign(
            batch, mapper, config=config, profiler=timer
        )
    with spans.span("reporting.ihr.report"):
        report = InternetHealthReport(analysis)
    with spans.span("service.store.append"):
        append_analysis(prepared.directory / "store", analysis)
    with spans.span("reporting.ihr.report"):
        stats = analysis.stats()
        format_table(
            ["statistic", "value"],
            [["traceroutes", stats.traceroutes_processed],
             ["bins", stats.bins_processed],
             ["links analyzed", stats.links_analyzed],
             ["delay alarms", len(analysis.delay_alarms)],
             ["forwarding alarms", len(analysis.forwarding_alarms)]],
        )
        events = report.top_events("delay", threshold=2.0, limit=10)
        events += report.top_events("forwarding", threshold=2.0, limit=10)
        format_table(
            ["AS", "hour", "kind", "magnitude"],
            [[f"AS{e.asn}", e.timestamp // 3600, e.kind, f"{e.magnitude:+.1f}"]
             for e in events[:10]],
        )
    stages = timer.timings()
    for stage, name in (("bin", "core.engine.bin_s"),
                        ("extract", "core.fused.extract_s"),
                        ("detect", "core.arena.detect_s")):
        metrics[name] = stages.get(stage, {}).get("seconds", 0.0)
    metrics["core.engine.bins"] = stats.bins_processed
    metrics["core.engine.links_analyzed"] = stats.links_analyzed
    return stats.traceroutes_processed, stats.bins_processed


def _trace_replay(prepared: Prepared, spans: Spans, cold: bool) -> Outcome:
    outcome = workloads.measure_replay(prepared, 0.0, cold)
    metrics = _zeroed()
    if cold:
        (prepared.directory / "feed.binc").unlink(missing_ok=True)
    with spans.span("run"):
        printed = _replay_analyze(prepared, spans, metrics)
    if printed != (prepared.n_records, prepared.n_bins):
        outcome.fail(prepared.n_bins, f"traced analyze counted {printed}")
    store = synthstore.store_fingerprint(prepared.directory / "store")
    if store != prepared.reference_store:
        outcome.fail(prepared.n_bins, "traced analyze store differs from the CLI's")
    # What analyze_campaign spends outside the engine's own stages:
    # AS aggregation and result assembly.  Stage seconds are summed
    # over workers, so with two busy workers this clamps at zero.
    run_s = spans.durations("core.engine.run")[0]
    metrics["core.events.aggregate_s"] = max(
        0.0,
        run_s - metrics["core.engine.bin_s"]
        - metrics["core.fused.extract_s"] - metrics["core.arena.detect_s"],
    )
    return _finish(outcome, metrics, spans, True, prepared.scale.min_reps)


# -- serve_hot / serve_churn --------------------------------------------------


def _scrape(port: int) -> Dict[str, float]:
    """Cache stats from ``/`` and request counters from ``/metrics``."""
    connection = loadgen.Connection(port)
    try:
        _status, _etag, index = connection.get("/")
        _status, _etag, text = connection.get("/metrics")
    finally:
        connection.close()
    cache = json.loads(index)["cache"]
    scraped = {
        "service.cache.hits": cache["hits"],
        "service.cache.misses": cache["misses"],
        "service.cache.evictions": cache["evictions"],
        "service.aio.requests": 0.0,
        "service.aio.not_modified": 0.0,
        "service.aio.coalesced": 0.0,
    }
    for line in text.decode("utf-8").splitlines():
        if line.startswith("repro_http_requests_total{"):
            value = float(line.rsplit(" ", 1)[1])
            scraped["service.aio.requests"] += value
            if 'status="304"' in line:
                scraped["service.aio.not_modified"] += value
        elif line.startswith("repro_http_coalesced_total "):
            scraped["service.aio.coalesced"] = float(line.rsplit(" ", 1)[1])
    return scraped


def _access_log_latencies(path: Path, metrics: Dict[str, float]) -> None:
    """Server-side p50 by cache outcome, from ``serve --access-log``."""
    by_outcome: Dict[str, List[int]] = {"hit": [], "miss": []}
    with open(path, "rb") as handle:
        for line in handle:
            record = json.loads(line)
            if record["cache"] in by_outcome:
                by_outcome[record["cache"]].append(record["latency_us"])
    for outcome, name in (("hit", "service.aio.hit_p50_us"),
                          ("miss", "service.aio.miss_p50_us")):
        if by_outcome[outcome]:
            metrics[name] = percentile(by_outcome[outcome], 50)


def _trace_serve(
    prepared: Prepared, spans: Spans, measure, drive, query_layer: bool
) -> Outcome:
    """The same fixed load twice: access log off (untraced), then on.

    *prepared* arrives serving without an access log and *measure* runs
    the workload's minimum work on it; the traced pass starts a second
    server on the same store with the log on and sends that same work
    again through *drive*.
    """
    outcome = measure(prepared, 0.0)
    metrics = _zeroed()
    if query_layer:
        _query_layer(prepared, spans, metrics)
    workloads.start_serving(prepared, access_log=True)
    before = _scrape(prepared.server.port)
    with spans.span("run"):
        start = perf_counter()
        busy = drive(outcome)
        spans.add("service.aio.load", start, busy)
        # What is left of the pass is the driver's own: body checks,
        # bump appends and TTL idles between windows.
        spans.add("ledger.between_windows", start + busy,
                  perf_counter() - start - busy)
    after = _scrape(prepared.server.port)
    prepared.server.stop()
    for name, value in after.items():
        metrics[name] = value - before[name]
    probes = metrics["service.cache.hits"] + metrics["service.cache.misses"]
    metrics["service.cache.hit_ratio"] = (
        metrics["service.cache.hits"] / probes if probes else 0.0
    )
    # The second scrape's own GET / and GET /metrics are in the delta.
    metrics["service.aio.requests"] -= 2
    _access_log_latencies(prepared.directory / "access.log", metrics)
    return _finish(outcome, metrics, spans, False, prepared.scale.min_reps)


def trace_serve_hot(prepared: Prepared, spans: Spans) -> Outcome:
    limit = prepared.scale.hot_min_requests

    def drive(outcome: Outcome) -> float:
        _waits, stamps = workloads.drive_hot(
            prepared, lambda done: done < limit, outcome
        )
        return stamps[-1][0] - stamps[0][0]

    return _trace_serve(
        prepared, spans, workloads.measure_serve_hot, drive, query_layer=False
    )


def trace_serve_churn(prepared: Prepared, spans: Spans) -> Outcome:
    windows = prepared.scale.churn_min_windows

    def drive(outcome: Outcome) -> float:
        _waits, walls = workloads.drive_churn(
            prepared, lambda walls: len(walls) < windows, outcome
        )
        return sum(walls)

    return _trace_serve(
        prepared, spans, workloads.measure_serve_churn, drive, query_layer=True
    )


def _query_layer(
    prepared: Prepared, spans: Spans, metrics: Dict[str, float]
) -> None:
    """``StoreQuery`` cold and warm paths, in-process, on the same store.

    Every cold number comes from a fresh engine (nothing derived is
    cached yet); the warm number repeats the call on that engine.
    """
    busiest = prepared.asns[0]

    def timed_ms(call) -> float:
        start = perf_counter()
        call()
        return (perf_counter() - start) * 1e3

    for route, call in (
        ("health", lambda q: q.as_condition(busiest)),
        ("links", lambda q: q.links_of(busiest)),
        ("events", lambda q: q.top_events("delay", 5.0, 10)),
        ("top", lambda q: q.top_asns("delay", 10)),
    ):
        query = StoreQuery(prepared.store)
        metrics[f"service.query.cold_ms.{route}"] = timed_ms(lambda: call(query))
        if route in ("health", "links"):
            metrics[f"service.query.warm_ms.{route}"] = timed_ms(
                lambda: call(query)
            )
    query = StoreQuery(prepared.store)
    query.as_condition(busiest)
    with spans.span("service.store.append"):
        workloads.bump_generation(prepared)
    start = perf_counter()
    query.refresh()
    metrics["service.query.refresh_s"] = perf_counter() - start


TRACERS = {
    "live_monitor": trace_live_monitor,
    "replay_cold": partial(_trace_replay, cold=True),
    "replay_warm": partial(_trace_replay, cold=False),
    "serve_hot": trace_serve_hot,
    "serve_churn": trace_serve_churn,
}


def _zeroed() -> Dict[str, float]:
    """Every per-layer name at zero: a layer a workload never enters
    reports no work, which is the prediction for it."""
    return {name: 0.0 for name in spec.PER_LAYER}
