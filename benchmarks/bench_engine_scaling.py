"""Engine scaling: engine-vs-serial equivalence and speedup.

The paper's dataset is 2.8 *billion* traceroutes; the serial reference
pipeline analyses links one at a time in pure-Python loops.  The engine
(``repro.core.engine``) fuses the two per-bin extraction passes and
batches the Wilson/Pearson statistics across each bin, in one process.

This benchmark proves the two hard claims behind that engine:

1. **bit-identical output** — the engine produces exactly the serial
   pipeline's ``BinResult`` list and ``CampaignStats`` (structural
   equality over every alarm, interval and counter);
2. **speedup** — on the case-study synthetic campaign the engine is at
   least 2x faster than the serial reference, from vectorization alone.
"""

from __future__ import annotations

import time

from repro.core import Engine, Pipeline, PipelineConfig
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

#: Campaign length in hours; an IXP outage plus a DDoS window in the
#: final hours produce genuine delay *and* forwarding alarms, so the
#: equality assertions compare real detections, not empty lists.
DURATION_H = 8

#: Timing repetitions (best-of, to damp scheduler noise).
ROUNDS = 3


def _build_campaign():
    topology = build_topology(TopologyParams.case_study(), seed=1)
    kroot = topology.services["K-root"]
    scenario = CompositeScenario(
        [
            IxpOutageScenario(
                topology, ixp_asn=1200, window=(5 * 3600, 6 * 3600)
            ),
            DdosScenario(
                topology,
                "K-root",
                [kroot.instances[0].node, kroot.instances[1].node],
                windows=[(6 * 3600, 8 * 3600)],
                seed=3,
            ),
        ]
    )
    platform = AtlasPlatform(topology, scenario=scenario, seed=2)
    return list(
        platform.run_campaign(CampaignConfig(duration_s=DURATION_H * 3600))
    )


def _best_time(make_pipeline, traceroutes):
    """Best-of-ROUNDS wall time; returns (seconds, results, pipeline)."""
    best = float("inf")
    results = pipeline = None
    for _ in range(ROUNDS):
        candidate = make_pipeline()
        start = time.perf_counter()
        candidate_results = candidate.run(traceroutes)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, results, pipeline = elapsed, candidate_results, candidate
    return best, results, pipeline


def test_engine_scaling(benchmark):
    traceroutes = _build_campaign()

    serial_time, serial_results, serial = _best_time(
        lambda: Pipeline(PipelineConfig()), traceroutes
    )
    serial_stats = serial.stats()

    rows = [
        [
            "serial reference",
            f"{serial_time:.3f}",
            "1.00",
            len(traceroutes),
        ]
    ]
    engine_time, engine_results, engine = _best_time(Engine, traceroutes)
    # Hard claim 1: bit-identical output.
    assert engine_results == serial_results, (
        "engine output diverged from the serial pipeline"
    )
    assert engine.stats() == serial_stats, "CampaignStats diverged"
    speedup = serial_time / engine_time
    rows.append(
        ["engine", f"{engine_time:.3f}", f"{speedup:.2f}", len(traceroutes)]
    )

    # Give pytest-benchmark one canonical measurement: the engine run.
    benchmark.pedantic(
        lambda: Engine().run(traceroutes), rounds=1, iterations=1
    )

    print("\n=== engine scaling "
          f"({DURATION_H}h case-study campaign, best of {ROUNDS}) ===")
    print(
        format_table(
            ["configuration", "seconds", "speedup", "traceroutes"],
            rows,
        )
    )
    alarms = sum(len(r.delay_alarms) for r in serial_results)
    forwarding = sum(len(r.forwarding_alarms) for r in serial_results)
    print(f"delay alarms: {alarms}, forwarding alarms: {forwarding} "
          f"(identical across all configurations)")

    # Guard against a vacuous equality claim.
    assert alarms > 0 and forwarding > 0

    # Hard claim 2: >= 2x on this campaign.
    assert speedup >= 2.0, (
        f"engine speedup {speedup:.2f}x fell below the 2x floor "
        f"(serial {serial_time:.3f}s)"
    )
