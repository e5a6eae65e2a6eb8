"""Streaming checkpoint overhead: snapshots must be nearly free.

The checkpointable streaming engine (``repro.core.checkpoint``) turns
the replayer into a long-running monitor: after every N closed bins the
full detector state — delay arenas, forwarding references, diversity
rounds, tracked series — is serialised to disk so a crash loses at most
N bins of work.  That only earns its keep if snapshotting is cheap
relative to the detection work it protects, so this benchmark holds two
hard claims:

1. **overhead** — taking and atomically persisting a snapshot after
   every bin costs **< 5 %** of the per-bin detection time
   (``process_bin``) averaged over the campaign;
2. **equivalence** — a run interrupted mid-campaign and resumed from
   the on-disk checkpoint produces bit-identical alarms, campaign
   aggregates and per-bin results in the engine.

Timings land in ``BENCH_stream.json`` at the repository root.  Set
``REPRO_BENCH_SMOKE=1`` (the CI smoke mode) to run a shortened campaign
and skip the overhead floor while keeping every equivalence assertion.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.atlas.stream import TimeBinner
from repro.core import Engine, PipelineConfig, load_snapshot, save_snapshot
from repro.reference import Pipeline
from repro.reporting import format_table
from repro.simulation import (
    AtlasPlatform,
    CampaignConfig,
    CompositeScenario,
    DdosScenario,
    IxpOutageScenario,
    TopologyParams,
    build_topology,
)

#: CI smoke mode: shortened campaign, no overhead floor (equivalence only).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Campaign length in hours; events keep the equivalence non-vacuous.
DURATION_H = 5 if SMOKE else 8

#: Hard ceiling on snapshot+save time as a share of detection time.
MAX_OVERHEAD = 0.05

#: Bin index after which the simulated crash happens.
CRASH_AFTER = 3

#: Machine-readable results land here.
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_stream.json"


def _build_campaign():
    topology = build_topology(TopologyParams.case_study(), seed=1)
    kroot = topology.services["K-root"]
    outage_window = (4 * 3600, 5 * 3600) if SMOKE else (5 * 3600, 6 * 3600)
    ddos_windows = (
        [(4 * 3600, 5 * 3600)] if SMOKE else [(6 * 3600, 8 * 3600)]
    )
    scenario = CompositeScenario(
        [
            IxpOutageScenario(topology, ixp_asn=1200, window=outage_window),
            DdosScenario(
                topology,
                "K-root",
                [kroot.instances[0].node, kroot.instances[1].node],
                windows=ddos_windows,
                seed=3,
            ),
        ]
    )
    platform = AtlasPlatform(topology, scenario=scenario, seed=2)
    return list(
        platform.run_campaign(CampaignConfig(duration_s=DURATION_H * 3600))
    )


def _campaign_bins(traceroutes, config):
    binner = TimeBinner(bin_s=config.bin_s, dense=True)
    return [(start, list(payload)) for start, payload in binner.bins(traceroutes)]


def test_stream_checkpoint_overhead(benchmark, tmp_path):
    """Measure per-bin snapshot cost and assert both hard claims."""
    config = PipelineConfig()
    traceroutes = _build_campaign()
    bins = _campaign_bins(traceroutes, config)
    ckpt = tmp_path / "bench.ckpt"

    # -- timed incremental run: detection vs snapshot per bin ------------
    pipeline = Pipeline(config)
    detect_s = 0.0
    snapshot_s = 0.0
    results = []
    snapshot_bytes = 0
    for start, payload in bins:
        t0 = time.perf_counter()
        results.append(pipeline.process_bin(start, payload))
        t1 = time.perf_counter()
        snapshot_bytes = save_snapshot(ckpt, pipeline.snapshot())
        t2 = time.perf_counter()
        detect_s += t1 - t0
        snapshot_s += t2 - t1
    assert any(r.delay_alarms for r in results) and any(
        r.forwarding_alarms for r in results
    ), "campaign produced no alarms; the equivalence claim would be vacuous"
    overhead = snapshot_s / detect_s

    # -- equivalence: crash after CRASH_AFTER bins, resume from disk -----
    reference = Pipeline(config)
    full = reference.run(traceroutes)
    engine = Engine(config)
    first = [
        engine.process_bin(start, payload)
        for start, payload in bins[:CRASH_AFTER]
    ]
    path = tmp_path / "crash.ckpt"
    save_snapshot(path, engine.snapshot(results=first))
    resumed = Engine(config)
    resumed_results = resumed.run(
        traceroutes, resume_from=load_snapshot(path)
    )
    assert resumed_results == full, "resumed run diverged"
    assert resumed.stats() == reference.stats(), (
        "campaign aggregates diverged"
    )

    # One canonical pytest-benchmark measurement: a single snapshot+save.
    benchmark.pedantic(
        lambda: save_snapshot(ckpt, pipeline.snapshot()),
        rounds=1,
        iterations=1,
    )

    mode = "smoke" if SMOKE else "full"
    n_bins = len(bins)
    print(
        f"\n=== streaming checkpoints ({DURATION_H}h campaign, "
        f"{n_bins} bins, snapshot every bin, {mode}) ==="
    )
    print(
        format_table(
            ["phase", "total s", "per bin ms"],
            [
                ["detection", f"{detect_s:.3f}",
                 f"{1000 * detect_s / n_bins:.2f}"],
                ["snapshot+save", f"{snapshot_s:.3f}",
                 f"{1000 * snapshot_s / n_bins:.2f}"],
            ],
        )
    )
    print(
        f"checkpoint overhead: {100 * overhead:.2f}% of detection "
        f"(ceiling {100 * MAX_OVERHEAD:.0f}%), snapshot size "
        f"{snapshot_bytes} bytes"
    )

    payload = {
        "campaign_hours": DURATION_H,
        "smoke": SMOKE,
        "n_bins": n_bins,
        "detect_s": detect_s,
        "snapshot_s": snapshot_s,
        "detect_per_bin_ms": 1000 * detect_s / n_bins,
        "snapshot_per_bin_ms": 1000 * snapshot_s / n_bins,
        "overhead": overhead,
        "max_overhead": MAX_OVERHEAD,
        "snapshot_bytes": snapshot_bytes,
        "crash_after_bins": CRASH_AFTER,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")

    # Hard claim 1: < 5% overhead (skipped in smoke mode, where the
    # campaign is too short for stable timings).
    if not SMOKE:
        assert overhead < MAX_OVERHEAD, (
            f"checkpoint overhead {100 * overhead:.2f}% exceeded the "
            f"{100 * MAX_OVERHEAD:.0f}% ceiling "
            f"(detect {detect_s:.3f}s, snapshot {snapshot_s:.3f}s)"
        )
