"""Observability overhead: metrics on vs metrics off, plus scrape truth.

The observability layer (:mod:`repro.obs`) rides the hottest loop in
the repository — the fused cache -> engine spine — so its contract is
twofold and both halves are asserted here:

1. **near-zero overhead** — the instrumented engine (enabled default
   registry) sustains at least ``MIN_RATIO`` (0.97x) of the
   uninstrumented engine's end-to-end throughput (disabled registry),
   measured best-of-``ROUNDS`` on the same mmap'd bin cache;
2. **truth** — instrumentation never changes detection: per-bin
   results are bit-identical with metrics on and off, and the scrape
   itself is honest — the rendered ``/metrics`` document parses back
   through :func:`repro.obs.expo.parse_text`, passes
   :func:`~repro.obs.expo.validate`, and its engine counters equal the
   campaign's actual traceroute/bin/alarm counts.

Results are written to ``BENCH_obs.json`` at the repository root
(gated against ``benchmarks/baselines/`` by ``tools/benchstat.py``).
Set ``REPRO_BENCH_SMOKE=1`` to run a shortened campaign with every
correctness assertion active and the throughput floor skipped (shared
CI runners are too noisy for a 3 % bound).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.atlas import (
    decode_traceroutes,
    read_bincache,
    write_bincache,
    write_traceroutes,
)
from repro.core import PipelineConfig, ShardedPipeline
from repro.obs.expo import parse_text, render_text, validate
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.reporting import format_table
from repro.simulation import (
    AtlasPlatform,
    CampaignConfig,
    DdosScenario,
    TopologyParams,
    build_topology,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Campaign length in hours; the final two carry a DDoS so the alarm
#: counters have something real to count.
DURATION_H = 4 if SMOKE else 10

#: Timing repetitions (best-of, to damp scheduler noise).
ROUNDS = 1 if SMOKE else 5

#: Hard floor: instrumented throughput over uninstrumented throughput.
MIN_RATIO = 0.97

#: The engine configuration under test (the fused serial spine — the
#: deterministic-timing configuration, so the ratio is not executor
#: scheduling noise).
ENGINE = {"n_shards": 4, "executor": "serial"}

#: Machine-readable results land here.
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def _run_engine(cache_path, registry):
    """One cold fused run under *registry* as the process default.

    Returns (bin results, seconds).  The previous default registry is
    always restored — benchmarks must not leak registry state into the
    rest of the pytest session.
    """
    previous = set_default_registry(registry)
    try:
        batch = read_bincache(cache_path, mapped=True)
        engine = ShardedPipeline(PipelineConfig(**ENGINE))
        try:
            start = time.perf_counter()
            results = engine.run(batch)
            elapsed = time.perf_counter() - start
        finally:
            engine.close()
    finally:
        set_default_registry(previous)
    return results, elapsed


def _best(cache_path, make_registry):
    """Best-of-ROUNDS timing; returns (seconds, last results, registry)."""
    best = float("inf")
    results = None
    registry = None
    for _ in range(ROUNDS):
        registry = make_registry()
        results, elapsed = _run_engine(cache_path, registry)
        if elapsed < best:
            best = elapsed
    return best, results, registry


def _scrape_value(families, name, **labels):
    """Sum the samples of *name* matching the given labels."""
    total = 0.0
    for sample_name, sample_labels, value in families[name]["samples"]:
        if sample_name != name:
            continue
        if all(sample_labels.get(k) == v for k, v in labels.items()):
            total += value
    return total


def test_observability_overhead(benchmark, tmp_path):
    """Measure both registries and assert the overhead + truth claims."""
    topology = build_topology(TopologyParams.case_study(), seed=1)
    kroot = topology.services["K-root"]
    scenario = DdosScenario(
        topology,
        "K-root",
        [kroot.instances[0].node, kroot.instances[1].node],
        windows=[((DURATION_H - 2) * 3600, DURATION_H * 3600)],
        seed=3,
    )
    platform = AtlasPlatform(topology, scenario=scenario, seed=2)
    jsonl_path = tmp_path / "campaign.jsonl"
    n_traceroutes = write_traceroutes(
        jsonl_path,
        platform.run_campaign(CampaignConfig(duration_s=DURATION_H * 3600)),
    )
    cache_path = tmp_path / "campaign.binc"
    write_bincache(cache_path, decode_traceroutes(jsonl_path))

    off_s, off_results, _ = _best(
        cache_path, lambda: MetricsRegistry(enabled=False)
    )
    on_s, on_results, registry = _best(cache_path, MetricsRegistry)

    # Truth claim 1: instrumentation cannot change detection output.
    assert on_results == off_results, (
        "engine results diverged between metrics on and metrics off"
    )
    n_alarms = sum(len(r.delay_alarms) for r in on_results)
    assert n_alarms > 0, "vacuous campaign: no alarms to count"

    # Truth claim 2: the scrape parses, validates, and tells the truth.
    families = parse_text(render_text(registry))
    validate(families)
    assert _scrape_value(
        families, "repro_engine_traceroutes_total"
    ) == n_traceroutes
    assert _scrape_value(
        families, "repro_engine_bins_total", path="fused"
    ) == len(on_results)
    assert _scrape_value(
        families, "repro_engine_alarms_total", kind="delay"
    ) == n_alarms

    # The disabled registry really is disabled: nothing to render.
    assert render_text(MetricsRegistry(enabled=False)) == b""

    ratio = off_s / on_s  # instrumented throughput / uninstrumented
    benchmark.pedantic(
        lambda: _run_engine(cache_path, MetricsRegistry()),
        rounds=1, iterations=1,
    )

    mode = "smoke" if SMOKE else "full"
    print(
        f"\n=== observability overhead ({mode}: {DURATION_H}h campaign, "
        f"{n_traceroutes} traceroutes, best of {ROUNDS}) ==="
    )
    print(
        format_table(
            ["registry", "seconds", "traceroutes/s"],
            [
                ["disabled", f"{off_s:.3f}",
                 f"{n_traceroutes / off_s:,.0f}"],
                ["enabled", f"{on_s:.3f}",
                 f"{n_traceroutes / on_s:,.0f}"],
            ],
        )
    )
    print(f"instrumented/uninstrumented throughput: {ratio:.4f} "
          f"(floor {MIN_RATIO})")

    payload = {
        "mode": mode,
        "smoke": SMOKE,
        "campaign_hours": DURATION_H,
        "n_traceroutes": n_traceroutes,
        "rounds": ROUNDS,
        "engine_config": dict(ENGINE),
        "uninstrumented_s": off_s,
        "instrumented_s": on_s,
        "uninstrumented_traceroutes_per_s": n_traceroutes / off_s,
        "instrumented_traceroutes_per_s": n_traceroutes / on_s,
        "instrumented_vs_off_speedup": ratio,
        "min_ratio_required": MIN_RATIO,
        "n_delay_alarms": n_alarms,
        "n_bins": len(on_results),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")

    if not SMOKE:
        assert ratio >= MIN_RATIO, (
            f"instrumented throughput fell to {ratio:.4f}x of the "
            f"uninstrumented engine (floor {MIN_RATIO}x; "
            f"off {off_s:.3f}s, on {on_s:.3f}s)"
        )
