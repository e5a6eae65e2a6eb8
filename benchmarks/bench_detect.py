"""Detection-phase speedup: scalar detectors vs the vectorized arenas.

With extraction fused and ingestion columnar, detection itself
dominates a replayed campaign: the scalar path walks
every link and forwarding model with per-key dict lookups, three
``ExponentialSmoother`` object updates, scalar Eq. 6 branches and one
tiny-vector Pearson call per model.  The detector-state arena
(``repro.core.arena``) holds the same state as contiguous NumPy arrays
and judges a whole bin per kernel call.

This benchmark isolates the detection phase — extraction, diversity
filtering and Wilson characterisation are precomputed once and shared by
both paths — and proves the arena's two hard claims:

1. **bit-identical output** — the arenas produce exactly the alarms the
   scalar detectors produce (structural equality over every alarm),
   plus identical per-link references, per-key counters and campaign
   aggregates;
2. **speedup** — the arena detection phase is at least 3x faster than
   the scalar detectors.

Timings and speedups are written to ``BENCH_detect.json`` at the
repository root.  Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke mode) to run
a shortened campaign and skip the speedup floor while keeping every
equivalence assertion.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core import (
    DelayArena,
    DelayChangeDetector,
    ForwardingAnomalyDetector,
    ForwardingArena,
    Engine,
    Pipeline,
    PipelineConfig,
    differential_rtts,
    forwarding_patterns,
)
from repro.core.diversity import DiversityFilter
from repro.atlas.stream import TimeBinner
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
from repro.stats.wilson import (
    WilsonInterval,
    median_confidence_interval_arrays,
)

#: CI smoke mode: shortened campaign, no speedup floor (equivalence only).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Campaign length in hours; the event windows produce genuine delay and
#: forwarding alarms so the equality assertions compare real detections.
#: (Even in smoke mode the campaign must outlast the 3-bin warm-up, or
#: the equivalence claims would compare empty alarm lists.)
DURATION_H = 5 if SMOKE else 8

#: Timing repetitions (best-of, to damp scheduler noise).
ROUNDS = 1 if SMOKE else 3

#: Hard floor for the arena detection-phase speedup.
MIN_SPEEDUP = 3.0

#: Machine-readable results land here.
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_detect.json"


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


def _prepare_bins(traceroutes, config):
    """Shared detection input: per bin, characterised links + patterns.

    Runs extraction, the (stateful) diversity filter and the batched
    Wilson characterisation exactly once, in bin order — both detection
    paths then consume identical precomputed observations, so the timed
    region contains *only* detector work.
    """
    binner = TimeBinner(bin_s=config.bin_s, dense=True)
    diversity = DiversityFilter(
        min_asns=config.min_asns,
        min_entropy=config.min_entropy,
        seed=config.seed,
    )
    prepared = []
    for start, payload in binner.bins(traceroutes):
        payload = list(payload)
        observations = differential_rtts(payload)
        patterns = forwarding_patterns(payload)
        accepted = []
        n_probes = []
        n_asns = []
        sample_arrays = []
        for link in sorted(observations):
            verdict = diversity.evaluate(observations[link])
            if not verdict.accepted:
                continue
            accepted.append(link)
            n_probes.append(len(verdict.kept_probes))
            n_asns.append(verdict.n_asns)
            sample_arrays.append(
                observations[link].samples_array(
                    verdict.kept_probes, ordered=False
                )
            )
        medians, lowers, uppers, counts = median_confidence_interval_arrays(
            sample_arrays, z=config.z
        )
        intervals = [
            WilsonInterval(
                median=float(medians[i]),
                lower=float(lowers[i]),
                upper=float(uppers[i]),
                n=int(counts[i]),
            )
            for i in range(len(accepted))
        ]
        prepared.append(
            {
                "timestamp": start,
                "links": accepted,
                "medians": medians,
                "lowers": lowers,
                "uppers": uppers,
                "counts": counts,
                "intervals": intervals,
                "n_probes": n_probes,
                "n_asns": n_asns,
                "patterns": patterns,
            }
        )
    return prepared


def _run_scalar(prepared, config):
    """Drive the scalar detectors; return (alarms, detectors)."""
    delay = DelayChangeDetector(
        alpha=config.alpha,
        z=config.z,
        min_shift_ms=config.min_shift_ms,
        winsorize=config.winsorize,
    )
    forwarding = ForwardingAnomalyDetector(
        tau=config.tau,
        alpha=config.alpha,
        warmup_bins=config.forwarding_warmup,
    )
    delay_alarms = []
    forwarding_alarms = []
    for bin_data in prepared:
        timestamp = bin_data["timestamp"]
        for link, observed, probes, asns in zip(
            bin_data["links"],
            bin_data["intervals"],
            bin_data["n_probes"],
            bin_data["n_asns"],
        ):
            alarm = delay.observe_interval(
                timestamp, link, observed, n_probes=probes, n_asns=asns
            )
            if alarm is not None:
                delay_alarms.append(alarm)
        forwarding_alarms.extend(
            forwarding.observe_bin(timestamp, bin_data["patterns"])
        )
    return delay_alarms, forwarding_alarms, delay, forwarding


def _run_arena(prepared, config):
    """Drive one arena pair; return (alarms, arenas)."""
    delay_arena = DelayArena(
        alpha=config.alpha,
        min_shift_ms=config.min_shift_ms,
        winsorize=config.winsorize,
    )
    forwarding_arena = ForwardingArena(
        tau=config.tau,
        alpha=config.alpha,
        warmup_bins=config.forwarding_warmup,
    )
    delay_alarms = []
    forwarding_alarms = []
    for bin_data in prepared:
        timestamp = bin_data["timestamp"]
        delay_alarms.extend(
            delay_arena.observe_bin(
                timestamp,
                bin_data["links"],
                bin_data["medians"],
                bin_data["lowers"],
                bin_data["uppers"],
                bin_data["counts"],
                bin_data["n_probes"],
                bin_data["n_asns"],
            )
        )
        forwarding_alarms.extend(
            forwarding_arena.observe_bin(timestamp, bin_data["patterns"])
        )
    return delay_alarms, forwarding_alarms, delay_arena, forwarding_arena


def _best_time(fn):
    """Best-of-ROUNDS wall time; returns (seconds, last_result)."""
    best = float("inf")
    result = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


def _assert_state_identical(scalar, arenas):
    """Every per-key reference and counter must match, bit for bit."""
    delay, forwarding = scalar
    delay_arena, forwarding_arena = arenas
    assert set(delay_arena.links()) == set(delay._states)
    for link, state in delay._states.items():
        assert delay_arena.reference_of(link) == state.reference, link
        assert delay_arena.bins_seen_of(link) == state.bins_seen, link
        assert delay_arena.alarms_raised_of(link) == state.alarms_raised, link
    assert forwarding_arena.n_models == forwarding.n_models
    for key, state in forwarding._states.items():
        assert forwarding_arena.reference_of(key) == state.reference, key
        assert forwarding_arena.bins_seen_of(key) == state.bins_seen, key
        assert (
            forwarding_arena.alarms_raised_of(key) == state.alarms_raised
        ), key


def test_detection_speedup(benchmark):
    """Measure scalar vs arena detection and assert the hard claims."""
    config = PipelineConfig()
    traceroutes = _build_campaign()
    prepared = _prepare_bins(traceroutes, config)
    n_links_bins = sum(len(bin_data["links"]) for bin_data in prepared)
    n_model_bins = sum(len(bin_data["patterns"]) for bin_data in prepared)

    scalar_time, scalar_result = _best_time(
        lambda: _run_scalar(prepared, config)
    )
    scalar_delay, scalar_forwarding, delay, forwarding = scalar_result
    assert scalar_delay and scalar_forwarding, (
        "campaign produced no alarms; the equivalence claim would be vacuous"
    )

    arena_time, arena_result = _best_time(
        lambda: _run_arena(prepared, config)
    )
    arena_delay, arena_forwarding, delay_arena, forwarding_arena = (
        arena_result
    )
    # Hard claim 1: bit-identical alarms and per-key state.
    assert arena_delay == scalar_delay, "delay alarms diverged"
    assert arena_forwarding == scalar_forwarding, "forwarding alarms diverged"
    _assert_state_identical(
        (delay, forwarding), (delay_arena, forwarding_arena)
    )
    speedup = scalar_time / arena_time
    rows = [
        ["scalar detectors", "-", f"{scalar_time:.3f}", "1.00"],
        ["arena", "vectorized", f"{arena_time:.3f}", f"{speedup:.2f}"],
    ]

    # End-to-end cross-check: the arena-backed engine still equals the
    # serial oracle on the same campaign.
    serial = Pipeline(PipelineConfig())
    serial_results = serial.run(traceroutes)
    engine = Engine()
    assert engine.run(traceroutes) == serial_results
    assert engine.stats() == serial.stats()

    # One canonical pytest-benchmark measurement: the arena run.
    benchmark.pedantic(
        lambda: _run_arena(prepared, config), rounds=1, iterations=1
    )

    mode = "smoke" if SMOKE else "full"
    print(
        f"\n=== detection kernels ({DURATION_H}h campaign, "
        f"{len(prepared)} bins, {n_links_bins} link-bins, "
        f"{n_model_bins} model-bins, best of {ROUNDS}, {mode}) ==="
    )
    print(
        format_table(
            ["configuration", "kernels", "seconds", "speedup"], rows
        )
    )
    print(
        f"delay alarms: {len(scalar_delay)}, "
        f"forwarding alarms: {len(scalar_forwarding)} "
        f"(identical across all configurations)"
    )

    payload = {
        "campaign_hours": DURATION_H,
        "smoke": SMOKE,
        "n_bins": len(prepared),
        "n_link_bins": n_links_bins,
        "n_model_bins": n_model_bins,
        "rounds": ROUNDS,
        "scalar_detect_s": scalar_time,
        "arena_detect_s": arena_time,
        "speedup": speedup,
        "min_speedup_required": MIN_SPEEDUP,
        "delay_alarms": len(scalar_delay),
        "forwarding_alarms": len(scalar_forwarding),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")

    # Hard claim 2: >= 3x (skipped in smoke mode, where the campaign is
    # too short for stable timings).
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"arena speedup {speedup:.2f}x fell below the {MIN_SPEEDUP}x "
            f"floor (scalar {scalar_time:.3f}s)"
        )
