"""Command-line interface.

Seven subcommands cover the common workflows:

* ``generate`` — run a measurement campaign on the synthetic Internet
  and store the traceroutes as JSONL (Atlas download format),
* ``fetch``    — pull live RIPE Atlas data through the fault-tolerant
  connector layer (:mod:`repro.atlas.connectors`): measurement results
  normalized into the canonical traceroute JSONL, or the
  ``meta-latest`` probe dump reduced to an ASN→probe map and prefix
  table.  ``--cursor PATH`` makes a results fetch durable and
  resumable (exactly-once across crashes); ``--fixture PATH`` serves
  recorded pages offline, optionally through an injected fault
  schedule (``--fault-seed/--fault-rate``),
* ``analyze`` — run the detection pipeline over a stored campaign and
  print alarms plus the per-AS health summary (optionally JSON),
* ``monitor`` — tail a JSONL feed like the authors' near-real-time
  deployment tails the Atlas streaming API: close hourly bins as the
  stream moves past them, emit alarms per closed bin, and durably
  checkpoint detector state as it goes.  The feed is read in chunks
  and decoded straight into columns, and every closed bin runs
  through the sharded engine's columnar path at any ``--shards``
  (output bit-identical to the serial reference pipeline).
  ``--atlas --atlas-msm ID``
  first fetches the measurement's results into the feed file through
  the connector layer (resumably, with ``--atlas-cursor``), then
  monitors it — the live-data entry point,
* ``serve``   — expose a persistent alarm store over the IHR-style
  HTTP JSON API (:mod:`repro.service`: keep-alive, single-flight
  coalescing); ``--workers N`` pre-forks N processes sharing the port
  via ``SO_REUSEPORT``,
* ``compact`` — merge an alarm store's small segments and apply tiered
  retention (:mod:`repro.service.compact`): queries stay bit-identical
  under merging, while ``--coarsen-after``/``--drop-after`` trade old
  raw alarms for bounded disk.  ``monitor --compact-every N`` runs the
  same pass inline on a live store,
* ``replay``  — regenerate one of the paper's case studies end to end.

``analyze``, ``replay`` and ``monitor`` all run the sharded engine
(:class:`repro.core.engine.ShardedPipeline`) over columns; ``--shards N``
(and optionally ``--jobs J``) only says how many shards the links are
spread over (default 1: one shard, in-process) and never changes
output, which is bit-identical to the serial reference pipeline's.
The engine has one extraction path, the fused columnar spine
(:mod:`repro.core.fused`): ``analyze`` decodes the campaign file
straight into columns, ``replay``'s simulated traceroutes are encoded
into columns at the engine's door.  ``analyze --bin-cache [PATH]``
additionally persists the decoded columns
(:mod:`repro.atlas.bincache`): the first replay writes them next to
the campaign, repeat replays map the cache zero-copy and skip JSON
parsing entirely — output is bit-identical either way.  ``analyze
--timings`` prints per-stage wall-clock totals
(decode/bin/extract/detect/store), and ``monitor --json`` appends one
``timings/v1`` record after the last bin (``decode`` charged per tailed
chunk, the rest per closed bin).

``analyze --checkpoint PATH [--checkpoint-every N]`` snapshots detector
state and accumulated results to PATH every N bins
(:mod:`repro.core.checkpoint`); an interrupted analysis rerun with the
same arguments resumes from the newest valid checkpoint and produces
bit-identical output.  ``monitor`` shares the same snapshot format, so
a crashed monitor restarted on the same feed continues where it left
off, dropping the already-processed prefix as replay.

``analyze --store DIR`` exports the campaign's alarms and AS events
into a persistent alarm store; ``monitor --store DIR`` appends every
closed bin to the store *while detection runs* (idempotently across
checkpoint restarts).  ``serve DIR`` then answers IHR queries over
HTTP from that store — no pipeline, no recomputation.

Examples::

    python -m repro generate --hours 24 --seed 42 --out campaign.jsonl
    python -m repro fetch results --msm 5051 --out feed.jsonl \\
        --cursor feed.cursor
    python -m repro fetch probes --out probes.json
    python -m repro monitor feed.jsonl --atlas --atlas-msm 5051 \\
        --atlas-cursor feed.cursor
    python -m repro analyze campaign.jsonl --json
    python -m repro analyze campaign.jsonl --shards 8 --jobs 4
    python -m repro analyze campaign.jsonl --bin-cache
    python -m repro analyze campaign.jsonl --checkpoint state.ckpt
    python -m repro analyze campaign.jsonl --store alarms.store
    python -m repro monitor feed.jsonl --follow --checkpoint mon.ckpt \\
        --store alarms.store
    python -m repro serve alarms.store --port 8080
    python -m repro serve alarms.store --workers 4
    python -m repro compact alarms.store --max-segments 8 --drop-after 720
    python -m repro replay ddos
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

#: event scenarios ``generate --scenario`` can inject (window mid-campaign).
SCENARIO_CHOICES = (
    "ddos",
    "leak",
    "outage",
    "catchment",
    "hijack-subprefix",
    "hijack-exact",
    "diurnal",
    "churn",
    "fuzz",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Pinpointing Delay and Forwarding Anomalies "
            "Using Large-Scale Traceroute Measurements' (IMC 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate a traceroute campaign (JSONL output)"
    )
    generate.add_argument("--hours", type=int, default=24)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--probes", type=int, default=None,
                          help="override the number of probes")
    generate.add_argument("--no-anchoring", action="store_true")
    generate.add_argument("--out", required=True, help="output .jsonl[.gz]")
    generate.add_argument(
        "--scenario", choices=SCENARIO_CHOICES, default=None,
        help="inject a labeled event scenario mid-campaign",
    )
    generate.add_argument(
        "--labels", metavar="PATH", default=None,
        help="write the scenario's ground-truth labels as JSON "
             "(requires --scenario)",
    )

    fetch = sub.add_parser(
        "fetch",
        help="fetch live Atlas data through the fault-tolerant "
             "connector layer",
    )
    fetch.add_argument(
        "what", choices=["results", "probes"],
        help="measurement results (traceroute JSONL) or the "
             "meta-latest probe dump")
    fetch.add_argument("--out", required=True,
                       help="output path (results: .jsonl feed; "
                            "probes: .json summary)")
    fetch.add_argument("--msm", type=int, default=None,
                       help="measurement id (required for results)")
    fetch.add_argument("--start", type=int, default=None,
                       help="window start (UNIX seconds, results only)")
    fetch.add_argument("--stop", type=int, default=None,
                       help="window stop (UNIX seconds, results only)")
    fetch.add_argument("--page-size", type=_positive_int, default=500,
                       metavar="N", help="results per API page (default 500)")
    fetch.add_argument(
        "--cursor", metavar="PATH", default=None,
        help="durable pagination cursor: a killed fetch re-run with "
             "the same arguments resumes its window exactly once")
    fetch.add_argument("--max-pages", type=_positive_int, default=None,
                       metavar="N", help="stop after N pages (resumable "
                                         "with --cursor)")
    fetch.add_argument("--base-url", default=None,
                       help="API root (results) or dump URL (probes); "
                            "defaults to the public Atlas endpoints")
    fetch.add_argument("--af", type=int, choices=[4, 6], default=4,
                       help="address family for the probe filter "
                            "(default 4)")
    fetch.add_argument(
        "--probe-cache", metavar="PATH", default=None,
        help="cache the filtered probe set here; served stale when "
             "the API is down (circuit open / budget exhausted)")
    fetch.add_argument(
        "--secrets", metavar="PATH", default=None,
        help="file holding the Atlas API key (the ATLAS_API_KEY "
             "environment variable wins; the key is never logged)")
    _add_connector_flags(fetch)

    analyze = sub.add_parser(
        "analyze", help="run the detection pipeline over stored traceroutes"
    )
    analyze.add_argument("path", help="campaign .jsonl[.gz] file")
    analyze.add_argument("--seed", type=int, default=0,
                         help="topology seed used at generation time "
                              "(needed for the IP-to-AS table)")
    analyze.add_argument("--probes", type=int, default=None)
    analyze.add_argument("--alpha", type=float, default=None)
    analyze.add_argument("--json", action="store_true",
                         help="emit the IHR summary as JSON")
    analyze.add_argument("--top", type=int, default=10,
                         help="number of top events to list")
    analyze.add_argument(
        "--bin-cache", nargs="?", const="", default=None, metavar="PATH",
        help="persist the decoded columns: map PATH (default: "
             "<campaign>.binc) instead of parsing JSON when it matches "
             "the campaign file, else decode and write it for the next "
             "replay")
    analyze.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="snapshot detector state and accumulated results to PATH "
             "as the analysis progresses; a rerun with the same "
             "arguments resumes from the newest valid checkpoint")
    analyze.add_argument(
        "--checkpoint-every", type=_positive_int, default=None, metavar="N",
        help="bins between checkpoints (default 1; requires --checkpoint)")
    analyze.add_argument(
        "--store", metavar="DIR", default=None,
        help="export the campaign's alarms and per-AS events into the "
             "persistent alarm store at DIR (recreated each run), ready "
             "for 'repro serve'")
    analyze.add_argument(
        "--timings", action="store_true",
        help="report per-stage wall-clock totals "
             "(decode/bin/extract/detect/store) after the summary")
    analyze.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON file of the analysis "
             "(campaign/bin/shard/stage spans; open in Perfetto or "
             "chrome://tracing)")
    _add_engine_flags(analyze)

    monitor = sub.add_parser(
        "monitor",
        help="tail a JSONL feed, emit alarms per closed time bin, "
             "checkpoint as you go",
    )
    monitor.add_argument("path", help="append-only JSONL feed file")
    monitor.add_argument(
        "--follow", action="store_true",
        help="keep tailing the feed for new results (like tail -f)")
    monitor.add_argument(
        "--poll", type=float, default=0.5, metavar="S",
        help="seconds between feed polls with --follow (default 0.5)")
    monitor.add_argument(
        "--idle-timeout", type=float, default=None, metavar="S",
        help="with --follow, drain and exit after S seconds without "
             "new data (default: follow forever)")
    monitor.add_argument(
        "--bin-s", type=_positive_int, default=3600, metavar="S",
        help="time bin length in seconds (default 3600, the paper's)")
    monitor.add_argument(
        "--lateness", type=_nonnegative_int, default=1, metavar="B",
        help="bins of out-of-order slack before a bin closes (default 1)")
    monitor.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="snapshot detector state to PATH so a restarted monitor "
             "resumes where it left off")
    monitor.add_argument(
        "--checkpoint-every", type=_positive_int, default=None, metavar="N",
        help="closed bins between checkpoints (default 1; requires "
             "--checkpoint)")
    monitor.add_argument(
        "--max-bins", type=_positive_int, default=None, metavar="N",
        help="stop after N closed bins (smoke tests / bounded runs)")
    monitor.add_argument(
        "--json", action="store_true",
        help="emit one JSON object per closed bin instead of text")
    monitor.add_argument(
        "--store", metavar="DIR", default=None,
        help="append closed bins' alarms and per-AS events to the "
             "persistent alarm store at DIR (created on first use; "
             "batched per --checkpoint-every bins; already-stored bins "
             "are skipped on restart)")
    monitor.add_argument(
        "--seed", type=int, default=0,
        help="topology seed used at generation time (builds the "
             "IP-to-AS table for --store; default 0)")
    monitor.add_argument("--probes", type=int, default=None,
                         help="override the number of probes (for the "
                              "--store IP-to-AS table)")
    monitor.add_argument(
        "--compact-every", type=_positive_int, default=None, metavar="N",
        help="run a store compaction pass (default retention policy) "
             "after every N bins appended to --store")
    monitor.add_argument(
        "--atlas", action="store_true",
        help="fetch the feed from the Atlas measurement API through "
             "the connector layer before monitoring it (requires "
             "--atlas-msm)")
    monitor.add_argument("--atlas-msm", type=int, default=None,
                         metavar="ID", help="measurement id for --atlas")
    monitor.add_argument(
        "--atlas-cursor", metavar="PATH", default=None,
        help="durable cursor for the --atlas fetch (resume "
             "exactly-once after a crash)")
    monitor.add_argument("--atlas-start", type=int, default=None,
                         metavar="T", help="--atlas window start "
                                           "(UNIX seconds)")
    monitor.add_argument("--atlas-stop", type=int, default=None,
                         metavar="T", help="--atlas window stop "
                                           "(UNIX seconds)")
    monitor.add_argument("--base-url", default=None,
                         help="--atlas API root (default: the public "
                              "Atlas API)")
    monitor.add_argument(
        "--secrets", metavar="PATH", default=None,
        help="file holding the Atlas API key for --atlas (the "
             "ATLAS_API_KEY environment variable wins)")
    _add_connector_flags(monitor)
    _add_engine_flags(monitor)

    serve = sub.add_parser(
        "serve",
        help="serve a persistent alarm store over the IHR-style HTTP "
             "JSON API",
    )
    serve.add_argument("store", help="alarm store directory "
                                     "(from analyze/monitor --store)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (default 8080; 0 = ephemeral)")
    serve.add_argument(
        "--cache-size", type=_positive_int, default=256, metavar="N",
        help="response cache entries (default 256)")
    serve.add_argument(
        "--window-bins", type=_positive_int, default=None, metavar="N",
        help="magnitude window in bins (default: one week)")
    # Accepted and ignored: scripts written when the asyncio server was
    # opt-in still pass it.
    serve.add_argument("--async", action="store_true",
                       help=argparse.SUPPRESS)
    serve.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="pre-fork N worker processes sharing the port via "
             "SO_REUSEPORT (default 1)")
    serve.add_argument(
        "--access-log", metavar="PATH", default=None,
        help="append one canonical-JSON line per answered request "
             "(route, status, latency µs, cache outcome)")

    compact = sub.add_parser(
        "compact",
        help="compact an alarm store: merge small segments and apply "
             "tiered retention",
    )
    compact.add_argument("store", help="alarm store directory "
                                       "(from analyze/monitor --store)")
    compact.add_argument(
        "--max-segments", type=_positive_int, default=8, metavar="N",
        help="merge the oldest segments until at most N remain "
             "(default 8)")
    compact.add_argument(
        "--coarsen-after", type=_positive_int, default=None, metavar="BINS",
        help="keep only the severity-event journal of segments older "
             "than BINS bins (series/events/rankings unchanged; raw "
             "alarm retrieval over that range is given up)")
    compact.add_argument(
        "--drop-after", type=_positive_int, default=None, metavar="BINS",
        help="remove segments older than BINS bins outright (their "
             "history reads as zeros)")
    compact.add_argument(
        "--dry-run", action="store_true",
        help="report what the pass would do without writing anything")

    replay = sub.add_parser(
        "replay", help="replay one of the paper's case studies"
    )
    replay.add_argument("case", choices=["ddos", "leak", "outage"])
    replay.add_argument("--hours", type=int, default=48)
    replay.add_argument("--seed", type=int, default=1)
    _add_engine_flags(replay)
    return parser


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, rejected with a clean message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0, rejected with a clean message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {value}")
    return value


def _checkpoint_every(args) -> int:
    """Resolve --checkpoint-every, rejecting it without --checkpoint."""
    if args.checkpoint_every is not None and not args.checkpoint:
        print(
            "repro: error: --checkpoint-every requires --checkpoint",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return args.checkpoint_every if args.checkpoint_every is not None else 1


def _add_connector_flags(parser: argparse.ArgumentParser) -> None:
    """Offline-transport knobs shared by ``fetch`` and ``monitor --atlas``."""
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="emit the connector layer's structured JSON log (retries, "
             "breaker transitions, rate-limit waits) to stderr; the API "
             "key never appears in it")
    parser.add_argument(
        "--fixture", metavar="PATH", default=None,
        help="serve recorded fixture pages instead of the network "
             "(fully offline)")
    parser.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed for the injected fault schedule with --fixture "
             "(default 0)")
    parser.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="R",
        help="injected fault probability per request with --fixture "
             "(default 0.0 = no faults)")


def _enable_connector_logging() -> None:
    """Wire the connector layer's structured log to stderr (``-v``).

    One handler per process: re-running the command function inside a
    single interpreter (tests) must not stack duplicate handlers.
    """
    import logging

    logger = logging.getLogger("repro.atlas.connectors")
    if not any(
        isinstance(h, logging.StreamHandler) for h in logger.handlers
    ):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(name)s %(levelname)s %(message)s")
        )
        logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)


def _make_client(
    fixture: Optional[str],
    fault_seed: int,
    fault_rate: float,
    secrets: Optional[str],
):
    """Build the connector client: fixture-backed offline, urllib live.

    Offline clients skip real sleeping (the backoff schedule still
    runs, the process just does not wait for it) and carry no API key;
    live clients get the stdlib transport, a polite token bucket, a
    circuit breaker, and the key from ``ATLAS_API_KEY``/*secrets* —
    sent only as a header, never logged.
    """
    from repro.atlas.connectors.transport import (
        CircuitBreaker,
        FaultTolerantClient,
        RetryPolicy,
        TokenBucket,
        load_api_key,
    )

    if fixture is not None:
        from repro.atlas.connectors.testing import (
            FaultSchedule,
            ScriptedTransport,
            load_fixture,
        )

        schedule = (
            FaultSchedule.seeded(fault_seed, fault_rate)
            if fault_rate > 0.0
            else None
        )
        return FaultTolerantClient(
            transport=ScriptedTransport(load_fixture(fixture), faults=schedule),
            policy=RetryPolicy(seed=fault_seed),
            breaker=CircuitBreaker(),
            sleep=lambda _s: None,
        )
    return FaultTolerantClient(
        policy=RetryPolicy(),
        rate_limiter=TokenBucket(rate_per_s=4.0, capacity=8.0),
        breaker=CircuitBreaker(),
        api_key=load_api_key(secrets_path=secrets),
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Sharded-engine knobs shared by the analysis subcommands."""
    parser.add_argument(
        "--shards", type=_positive_int, default=1, metavar="N",
        help="shard links over N independent detector states in the "
             "vectorized engine (default 1: a single shard, "
             "in-process; output is identical at every N)")
    parser.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="J",
        help="worker count for the sharded engine (default: one per "
             "shard, capped at the CPU count; requires --shards > 1)")


def _engine_config(args, **overrides):
    """Build the engine's PipelineConfig from the CLI flags."""
    from repro.core.pipeline import PipelineConfig

    if args.jobs is not None and args.shards <= 1:
        print(
            "repro: error: --jobs requires --shards > 1 "
            "(a single shard runs in-process, without workers)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    return PipelineConfig(n_shards=args.shards, n_jobs=args.jobs, **kwargs)


def _topology(seed: int, probes: Optional[int]):
    from repro.simulation.topology import TopologyParams, build_topology

    params = TopologyParams.case_study()
    if probes is not None:
        params.n_probes = probes
    return build_topology(params, seed=seed)


def _as_mapper(args):
    """IP→AS table of the topology the feed was generated on.

    Only the prefix table is read: no routing graph, tracer or platform.
    """
    return _topology(args.seed, args.probes).as_mapper()


def _scenario_for(name: str, topology, duration_s: int, seed: int):
    """Build the named labeled scenario with its window mid-campaign."""
    from repro.simulation.scenarios import (
        BgpHijackScenario,
        CatchmentShiftScenario,
        DdosScenario,
        DiurnalCongestionScenario,
        IxpOutageScenario,
        ProbeChurnScenario,
        RouteLeakScenario,
        ScenarioFuzzer,
    )

    start = (duration_s * 5 // 12) // 3600 * 3600
    window = (start, start + 2 * 3600)
    if name == "ddos":
        kroot = topology.services["K-root"]
        attacked = [kroot.instances[0].node, kroot.instances[-1].node]
        return DdosScenario(
            topology, "K-root", attacked, windows=[window], seed=seed
        )
    if name == "leak":
        return RouteLeakScenario(
            topology,
            leak_waypoint=topology.routers_of_as(4788)[0],
            leak_entry=topology.routers_of_as(3549)[0],
            leaked_targets={a.name for a in topology.anchors[:3]},
            window=window,
            seed=seed,
        )
    if name == "outage":
        return IxpOutageScenario(topology, ixp_asn=1200, window=window)
    if name == "catchment":
        return CatchmentShiftScenario.largest_shift(
            topology, "K-root", window
        )
    if name in ("hijack-subprefix", "hijack-exact"):
        return BgpHijackScenario(
            topology,
            hijacker=topology.routers_of_as(174)[0],
            target_names=[a.name for a in topology.anchors[:2]],
            window=window,
            mode=name.split("-", 1)[1],
        )
    if name == "diurnal":
        return DiurnalCongestionScenario(
            topology, windows=[window], asn=174, seed=seed
        )
    if name == "churn":
        return ProbeChurnScenario(topology, windows=[window], seed=seed)
    # fuzz: compose three random labeled events inside the campaign
    horizon = (duration_s // 4, max(duration_s * 3 // 4, duration_s // 4 + 3700))
    return ScenarioFuzzer(topology, horizon_s=horizon, seed=seed).sample(3)


def _cmd_generate(args) -> int:
    from repro.atlas.io import write_traceroutes
    from repro.simulation.platform import AtlasPlatform, CampaignConfig

    if args.labels and not args.scenario:
        print("repro: --labels requires --scenario", file=sys.stderr)
        return 2
    topology = _topology(args.seed, args.probes)
    scenario = None
    if args.scenario:
        scenario = _scenario_for(
            args.scenario, topology, args.hours * 3600, args.seed
        )
        print(f"injecting scenario {scenario.name}")
    platform = AtlasPlatform(topology, scenario=scenario, seed=args.seed)
    config = CampaignConfig(
        duration_s=args.hours * 3600,
        include_anchoring=not args.no_anchoring,
    )
    total = platform.campaign_size(config)
    print(f"generating {total} traceroutes over {args.hours}h ...")
    written = write_traceroutes(args.out, platform.run_campaign(config))
    print(f"wrote {written} traceroutes to {args.out}")
    if args.labels:
        truth = scenario.ground_truth()
        Path(args.labels).write_text(truth.to_json())
        print(
            f"wrote {truth.n_labels} ground-truth labels "
            f"({len(truth.delay)} delay, {len(truth.forwarding)} "
            f"forwarding) to {args.labels}"
        )
    return 0


def _cmd_fetch(args) -> int:
    """Body of the ``fetch`` subcommand (connector-layer ingestion)."""
    from repro.atlas.connectors.probes import (
        META_LATEST_URL,
        asn_probe_map,
        fetch_probes,
        prefix_entries,
    )
    from repro.atlas.connectors.results import (
        DEFAULT_BASE_URL,
        fetch_results,
    )
    from repro.atlas.connectors.transport import TransportError
    from repro.reporting.jsonio import dumps_canonical

    if args.verbose:
        _enable_connector_logging()
    client = _make_client(
        args.fixture, args.fault_seed, args.fault_rate, args.secrets
    )
    if args.what == "results":
        if args.msm is None:
            print("repro: error: fetch results requires --msm",
                  file=sys.stderr)
            return 2
        try:
            report = fetch_results(
                client,
                args.msm,
                args.out,
                cursor_path=args.cursor,
                start=args.start,
                stop=args.stop,
                page_size=args.page_size,
                base_url=args.base_url or DEFAULT_BASE_URL,
                max_pages=args.max_pages,
            )
        except TransportError as exc:
            print(f"repro: fetch failed: {exc}", file=sys.stderr)
            return 1
        if report.restarted:
            print(
                "cursor was corrupt or foreign; window restarted from "
                "page zero",
                file=sys.stderr,
            )
        state = (
            "already complete"
            if report.already_complete
            else ("complete" if report.completed else "paused (resumable)")
        )
        print(
            f"fetched msm {args.msm}: {report.pages} pages, "
            f"{report.records} traceroutes, {report.skipped} skipped "
            f"-> {args.out} [{state}]"
            + (" (resumed)" if report.resumed else "")
        )
        print(
            f"transport: {client.stats.attempts} attempts for "
            f"{client.stats.requests} requests, "
            f"{client.stats.retries} retries, "
            f"{client.stats.slept_s:.1f}s backoff"
        )
        return 0
    # probes: meta-latest dump -> ASN->probe map + prefix table
    try:
        probe_set = fetch_probes(
            client,
            url=args.base_url or META_LATEST_URL,
            af=args.af,
            cache_path=args.probe_cache,
        )
    except (TransportError, ValueError) as exc:
        print(f"repro: fetch failed: {exc}", file=sys.stderr)
        return 1
    probes = list(probe_set.probes)
    mapping = asn_probe_map(probes)
    payload = {
        "af": args.af,
        "stale": probe_set.stale,
        "total_in_dump": probe_set.total_in_dump,
        "usable_probes": len(probes),
        "asn_probe_map": {str(asn): ids for asn, ids in mapping.items()},
        "prefix_entries": [list(entry) for entry in prefix_entries(probes)],
    }
    Path(args.out).write_bytes(dumps_canonical(payload))
    stale = " (STALE cache — live fetch failed)" if probe_set.stale else ""
    print(
        f"probe map: {len(probes)} usable probes across "
        f"{len(mapping)} ASNs, {len(payload['prefix_entries'])} "
        f"prefix entries -> {args.out}{stale}"
    )
    return 0


def _warn_if_unattributed_store(writer, store_path) -> None:
    """Flag a store whose alarms all failed IP→AS attribution.

    The usual cause is a mapper built from the wrong topology: the
    ``--seed``/``--probes`` passed to analyze/monitor must match the
    ones the feed was generated with, or every alarm IP resolves to no
    AS and the serving layer answers "healthy" for everything.
    """
    if writer.total_alarms and not writer.total_events:
        print(
            f"repro: warning: {store_path} holds {writer.total_alarms} "
            "alarms but none mapped to any AS — do --seed/--probes "
            "match the campaign that produced this feed?",
            file=sys.stderr,
        )


def _print_timings(timer) -> None:
    """Render accumulated stage timings as a text table."""
    from repro.reporting.render import format_table

    rows = [
        [name, entry["calls"], f"{entry['seconds'] * 1000.0:.1f}"]
        for name, entry in timer.timings().items()
    ]
    print("\nstage timings:")
    print(
        format_table(["stage", "calls", "ms"], rows)
        if rows
        else "  (no stages recorded)"
    )


def _cmd_analyze(args) -> int:
    from repro.atlas.bincache import default_cache_path, load_or_build
    from repro.atlas.columnar import decode_traceroutes
    from repro.atlas.io import TracerouteDecodeError
    from repro.core.engine import ShardedPipeline
    from repro.core.pipeline import analyze_campaign
    from repro.obs.tracing import StageAccumulator, Tracer
    from repro.reporting.export import record_json
    from repro.reporting.ihr import InternetHealthReport
    from repro.reporting.render import format_table

    every = _checkpoint_every(args)
    config = _engine_config(args, alpha=args.alpha)
    timer = StageAccumulator(enabled=args.timings)
    tracer = Tracer(enabled=args.trace is not None)
    # The one ingest door: the campaign file becomes columns here,
    # strictly; --bin-cache only decides whether they are persisted.
    try:
        with timer.stage("decode"):
            if args.bin_cache is None:
                batch = decode_traceroutes(args.path)
            else:
                batch, hit = load_or_build(
                    args.path, cache_path=args.bin_cache or None, mapped=True
                )
    except (OSError, EOFError, TracerouteDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"repro: error: {args.path}: {reason}", file=sys.stderr)
        return 1
    if args.bin_cache is not None and not args.json:
        cache = args.bin_cache or default_cache_path(args.path)
        state = "hit" if hit else "rebuilt"
        print(f"bin cache {state}: {cache} ({len(batch)} traceroutes)")
    # The engine at any --shards, exactly as in monitor.
    with ShardedPipeline(config) as pipeline:
        pipeline.profiler = timer
        pipeline.tracer = tracer
        campaign_start = tracer.now()
        analysis = analyze_campaign(
            batch,
            _as_mapper(args),
            checkpoint_path=args.checkpoint,
            checkpoint_every=every,
            checkpoint_source=args.path if args.checkpoint else None,
            pipeline=pipeline,
        )
        tracer.add_span(
            "campaign",
            campaign_start,
            tracer.now() - campaign_start,
            args={"bins": len(analysis.bin_results)},
        )
    if args.trace is not None:
        tracer.write(args.trace)
        if not args.json:
            print(f"trace written: {args.trace} "
                  f"({len(tracer.events())} spans)")
    report = InternetHealthReport(analysis)
    if args.store:
        from repro.service.store import append_analysis

        with timer.stage("store"):
            writer = append_analysis(args.store, analysis)
        _warn_if_unattributed_store(writer, args.store)
        if not args.json:
            print(
                f"alarm store updated: {args.store} "
                f"(generation {writer.generation}, "
                f"{len(analysis.bin_results)} bins)"
            )
    if args.json:
        print(report.to_json())
        if timer.enabled:
            print(
                record_json(
                    {"schema": "timings/v1", "timings": timer.timings()}
                ),
                file=sys.stderr,
            )
        return 0
    stats = analysis.stats()
    print(
        format_table(
            ["statistic", "value"],
            [
                ["traceroutes", stats.traceroutes_processed],
                ["bins", stats.bins_processed],
                ["links analyzed", stats.links_analyzed],
                ["delay alarms", len(analysis.delay_alarms)],
                ["forwarding alarms", len(analysis.forwarding_alarms)],
            ],
        )
    )
    events = report.top_events("delay", threshold=2.0, limit=args.top)
    events += report.top_events("forwarding", threshold=2.0, limit=args.top)
    if events:
        print("\ntop events:")
        print(
            format_table(
                ["AS", "hour", "kind", "magnitude"],
                [
                    [f"AS{e.asn}", e.timestamp // 3600, e.kind,
                     f"{e.magnitude:+.1f}"]
                    for e in events[: args.top]
                ],
            )
        )
    else:
        print("\nno significant events")
    if timer.enabled:
        _print_timings(timer)
    return 0


def _emit_bin(result, as_json: bool) -> None:
    """Print one closed bin's outcome (text or one-line JSON)."""
    if as_json:
        from repro.reporting.export import bin_event_record, record_json

        print(record_json(bin_event_record(result)), flush=True)
        return
    print(
        f"bin {result.timestamp}: {result.n_traceroutes} traceroutes, "
        f"{result.n_links_analyzed} links analyzed, "
        f"{len(result.delay_alarms)} delay / "
        f"{len(result.forwarding_alarms)} forwarding alarms",
        flush=True,
    )
    for alarm in result.delay_alarms:
        shift = alarm.observed.median - alarm.reference.median
        print(
            f"  DELAY {alarm.link[0]} -> {alarm.link[1]} "
            f"shift {shift:+.1f} ms, deviation {alarm.deviation:.1f} "
            f"({alarm.n_probes} probes, {alarm.n_asns} ASes)"
        )
    for alarm in result.forwarding_alarms:
        top = max(
            alarm.responsibilities,
            key=lambda hop: (abs(alarm.responsibilities[hop]), hop),
            default="-",
        )
        print(
            f"  FWD   {alarm.router_ip} -> {alarm.destination} "
            f"rho {alarm.correlation:+.2f}, most responsible hop {top}"
        )


def _monitor_prefetch(args) -> int:
    """Run the ``--atlas`` fetch into the feed file before monitoring.

    Returns the number of traceroutes fetched; raises ``SystemExit``
    on misuse.  The fetch is resumable through ``--atlas-cursor`` and
    exactly-once, so a crashed monitor re-run refetches nothing it
    already has.
    """
    from repro.atlas.connectors.results import (
        DEFAULT_BASE_URL,
        fetch_results,
    )

    if args.atlas_msm is None:
        print("repro: error: --atlas requires --atlas-msm", file=sys.stderr)
        raise SystemExit(2)
    if args.verbose:
        _enable_connector_logging()
    client = _make_client(
        args.fixture, args.fault_seed, args.fault_rate, args.secrets
    )
    report = fetch_results(
        client,
        args.atlas_msm,
        args.path,
        cursor_path=args.atlas_cursor,
        start=args.atlas_start,
        stop=args.atlas_stop,
        base_url=args.base_url or DEFAULT_BASE_URL,
    )
    if not args.json:
        print(
            f"atlas fetch: msm {args.atlas_msm}, {report.pages} pages, "
            f"{report.records} traceroutes -> {args.path}"
            + (" (resumed)" if report.resumed else "")
        )
    return report.records


def _cmd_monitor(args) -> int:
    """Body of the ``monitor`` subcommand (live path + checkpointing)."""
    from repro.atlas.stream import ColumnarStream, FeedTailer
    from repro.core.checkpoint import (
        SnapshotError,
        load_snapshot,
        save_snapshot,
        source_digest_of,
    )
    from repro.core.engine import ShardedPipeline
    from repro.obs.status import default_board
    from repro.obs.tracing import StageAccumulator
    from repro.reporting.export import record_json

    board = default_board()
    every = _checkpoint_every(args)
    if args.atlas:
        _monitor_prefetch(args)
    config = _engine_config(args, bin_s=args.bin_s)
    # Every closed bin takes the engine's columnar path at any --shards
    # (1 = one shard on the in-process backend); the serial Pipeline is
    # the reference this output is held identical to, not a code path
    # here.
    pipeline = ShardedPipeline(config)
    # JSON mode appends one timings/v1 record to stderr on exit: the
    # engine meters extract/bin/detect through its profiler hook, the
    # loop below adds decode (per chunk), store and compact.
    timer = StageAccumulator(enabled=args.json)
    pipeline.profiler = timer
    snapshot = None
    feed_digest = b""
    if args.checkpoint:
        try:
            feed_digest = source_digest_of(args.path)
        except SnapshotError:
            feed_digest = b""  # unreadable feed fails below, on open()
    if args.checkpoint and Path(args.checkpoint).exists():
        try:
            snapshot = load_snapshot(args.checkpoint, config=pipeline.config)
        except SnapshotError as exc:
            print(
                f"checkpoint ignored ({exc}); starting fresh",
                file=sys.stderr,
            )
        if (
            snapshot is not None
            and feed_digest
            and snapshot.source_digest
            and snapshot.source_digest != feed_digest
        ):
            print(
                "checkpoint ignored (it belongs to a different feed); "
                "starting fresh",
                file=sys.stderr,
            )
            snapshot = None
    if snapshot is not None:
        pipeline.restore(snapshot)
        if not args.json:
            print(
                f"resumed from checkpoint: {snapshot.bins_processed} bins "
                f"already processed (last bin {snapshot.last_timestamp})"
            )
    stream = ColumnarStream(
        bin_s=config.bin_s,
        lateness_bins=args.lateness,
        dense=True,
        start_after=(
            snapshot.last_timestamp if snapshot is not None else None
        ),
    )
    store_writer = None
    if args.store:
        from repro.service.store import AlarmStoreWriter

        store_writer = AlarmStoreWriter.open_or_create(
            args.store, _as_mapper(args), bin_s=config.bin_s
        )
    if args.compact_every is not None and not args.store:
        print(
            "repro: error: --compact-every requires --store",
            file=sys.stderr,
        )
        raise SystemExit(2)
    closed_bins = 0
    pending = 0
    store_buffer: List = []
    bins_since_compact = 0

    def checkpoint() -> None:
        """Write a state-only snapshot bound to this feed."""
        state = pipeline.snapshot()
        state.source_digest = feed_digest
        save_snapshot(args.checkpoint, state)

    def flush_store() -> None:
        """Publish buffered bins as one store segment (one generation)."""
        nonlocal bins_since_compact
        if store_writer is not None and store_buffer:
            with timer.stage("store"):
                store_writer.append_bins(store_buffer)
            bins_since_compact += len(store_buffer)
            store_buffer.clear()
        if store_writer is not None:
            board.update("monitor", store_generation=store_writer.generation)
        if (
            store_writer is not None
            and args.compact_every is not None
            and bins_since_compact >= args.compact_every
        ):
            from repro.service.compact import compact_store

            with timer.stage("compact"):
                report = compact_store(args.store)
            # The compactor published a new generation; the writer
            # must adopt it or its next append would be refused (and,
            # without the guard, would resurrect replaced segments).
            store_writer.reload()
            bins_since_compact = 0
            if report.changed and not args.json:
                print(
                    f"store compacted: {report.segments_before} -> "
                    f"{report.segments_after} segments "
                    f"(generation {report.generation})",
                    flush=True,
                )

    def handle(closed) -> bool:
        """Process closed bins; True once --max-bins is reached."""
        nonlocal closed_bins, pending
        for start, view in closed:
            result = pipeline.process_bin(start, view)
            _emit_bin(result, args.json)
            if store_writer is not None:
                # Batched on the checkpoint cadence: one segment (and
                # one cache-invalidating generation) per N bins, not
                # one per bin.  Unflushed bins are re-derived from the
                # feed replay after a crash, so nothing is lost.
                store_buffer.append(result)
                if len(store_buffer) >= every:
                    flush_store()
            closed_bins += 1
            pending += 1
            if args.checkpoint and pending >= every:
                checkpoint()
                pending = 0
            # Progress for /statusz, in *data time* only (newest result
            # timestamp vs. the closed bin's end) — deterministic for a
            # given feed, and nothing here feeds back into detection.
            board.update(
                "monitor",
                bins_closed=closed_bins,
                last_bin_timestamp=start,
                feed_lag_s=max(
                    0, stream.newest_timestamp - (start + config.bin_s)
                ),
                checkpoint_pending_bins=pending,
            )
            if args.max_bins is not None and closed_bins >= args.max_bins:
                return True
        return False

    tailer = FeedTailer(
        args.path,
        follow=args.follow,
        poll=args.poll,
        idle_timeout=args.idle_timeout,
    )
    try:
        stopped = False
        for chunk in tailer.chunks():
            # Straight into columns; a live feed's bad line is skipped
            # and counted, never fatal.
            with timer.stage("decode"):
                closed = stream.push(chunk)
            if handle(closed):
                stopped = True
                break
        if not stopped:
            handle(stream.drain())
        flush_store()
        if args.checkpoint and pending:
            checkpoint()
    finally:
        pipeline.close()
    if store_writer is not None:
        _warn_if_unattributed_store(store_writer, args.store)
    if args.json:
        # On stderr so the stdout feed stays a pure bin-record stream.
        print(
            record_json(
                {"schema": "timings/v1", "timings": timer.timings()}
            ),
            file=sys.stderr,
            flush=True,
        )
    if not args.json:
        if store_writer is not None:
            print(
                f"alarm store: {args.store} "
                f"(generation {store_writer.generation})"
            )
        reopens = (
            f", {tailer.reopens} feed truncation/rotation reopens"
            if tailer.reopens
            else ""
        )
        print(
            f"monitor done: {closed_bins} bins, "
            f"{stream.dropped_late} late results dropped, "
            f"{stream.dropped_replayed} replayed results skipped, "
            f"{stream.skipped} undecodable lines skipped"
            f"{reopens}"
        )
    return 0


def _cmd_serve(args) -> int:
    """Body of the ``serve`` subcommand (HTTP API over an alarm store)."""
    from repro.service.aio import run_async_server, start_worker_pool
    from repro.service.store import StoreError, read_manifest

    try:
        read_manifest(args.store)  # fail fast, before any fork
    except StoreError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    options = {
        "cache_size": args.cache_size,
        "window_bins": args.window_bins,
        "access_log": args.access_log,
    }
    if args.workers > 1:
        pool = start_worker_pool(
            args.store,
            host=args.host,
            port=args.port,
            workers=args.workers,
            **options,
        )
        # SIGTERM must unwind through the ``finally`` below, or the
        # pre-forked workers outlive the parent and hold the port.
        import signal

        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        print(
            f"serving {args.store} on http://{pool.host}:{pool.port} "
            f"(async, {args.workers} workers, SO_REUSEPORT)",
            flush=True,
        )
        try:
            pool.join()
        finally:
            pool.stop()
        return 0

    def _banner(address) -> None:
        host, port = address
        print(
            f"serving {args.store} on http://{host}:{port} (async)",
            flush=True,
        )

    run_async_server(
        args.store, args.host, args.port, ready=_banner, **options
    )
    return 0


def _cmd_compact(args) -> int:
    """Body of the ``compact`` subcommand (store maintenance pass)."""
    from repro.service.compact import CompactionPolicy, compact_store
    from repro.service.store import StoreError

    policy = CompactionPolicy(
        max_segments=args.max_segments,
        coarsen_after_bins=args.coarsen_after,
        drop_after_bins=args.drop_after,
    )
    try:
        report = compact_store(args.store, policy, dry_run=args.dry_run)
    except StoreError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    prefix = "would compact" if args.dry_run else (
        "compacted" if report.changed else "nothing to do"
    )
    print(
        f"{prefix}: {args.store} "
        f"{report.segments_before} -> {report.segments_after} segments "
        f"({report.merged} merged, {report.coarsened} coarsened, "
        f"{report.dropped} dropped)"
        + ("" if args.dry_run else f", generation {report.generation}")
    )
    if report.bytes_after is not None:
        print(
            f"segment bytes: {report.bytes_before} -> {report.bytes_after}"
        )
    return 0


def _cmd_replay(args) -> int:
    from repro.core.engine import ShardedPipeline
    from repro.core.pipeline import analyze_campaign
    from repro.reporting.ihr import InternetHealthReport
    from repro.reporting.render import format_table
    from repro.simulation.platform import AtlasPlatform, CampaignConfig
    from repro.simulation.scenarios import (
        DdosScenario,
        IxpOutageScenario,
        RouteLeakScenario,
    )

    topology = _topology(args.seed, None)
    window = (args.hours * 3600 // 2, args.hours * 3600 // 2 + 2 * 3600)
    if args.case == "ddos":
        kroot = topology.services["K-root"]
        scenario = DdosScenario(
            topology,
            "K-root",
            [kroot.instances[0].node, kroot.instances[1].node],
            windows=[window],
            seed=3,
        )
    elif args.case == "leak":
        scenario = RouteLeakScenario(
            topology,
            leak_waypoint=topology.routers_of_as(4788)[0],
            leak_entry=topology.routers_of_as(3549)[0],
            leaked_targets={a.name for a in topology.anchors},
            window=window,
            seed=3,
        )
    else:
        scenario = IxpOutageScenario(topology, ixp_asn=1200, window=window)
    platform = AtlasPlatform(topology, scenario=scenario, seed=2)
    config = CampaignConfig(duration_s=args.hours * 3600)
    print(
        f"replaying '{args.case}' (event at hours "
        f"{window[0]//3600}-{window[1]//3600}) over {args.hours}h ..."
    )
    # Simulated traceroutes are encoded into columns at the engine's door.
    with ShardedPipeline(_engine_config(args)) as pipeline:
        analysis = analyze_campaign(
            platform.run_campaign(config),
            topology.as_mapper(),
            pipeline=pipeline,
        )
    report = InternetHealthReport(analysis, window_bins=args.hours // 2)
    rows = []
    for kind in ("delay", "forwarding"):
        for event in report.top_events(kind, threshold=2.0, limit=5):
            rows.append(
                [f"AS{event.asn}", event.timestamp // 3600, kind,
                 f"{event.magnitude:+.1f}"]
            )
    print(
        format_table(["AS", "hour", "kind", "magnitude"], rows)
        if rows
        else "no events detected"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse *argv* (default ``sys.argv``) and run the subcommand."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "fetch": _cmd_fetch,
        "analyze": _cmd_analyze,
        "monitor": _cmd_monitor,
        "serve": _cmd_serve,
        "compact": _cmd_compact,
        "replay": _cmd_replay,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
