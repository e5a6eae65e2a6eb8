"""End-to-end throughput: the fused spine vs the serial reference.

The paper's deployment replays archived traceroutes continuously, so
the number that matters operationally is **traceroutes per second from
a cold on-disk campaign to a published alarm store**.  The engine
keeps one columnar spine end to end: the cache is mmap'd
(``mapped=True``), extraction emits interned-id flat arrays
(:mod:`repro.core.fused`), the arenas judge the whole bin in this
process, and alarms materialise str-keyed objects exactly once, at the
store/report boundary.  The baseline is the paper-shaped serial
:class:`~repro.core.Pipeline` over the same cache: columns copied out,
objects materialised per bin, links analysed one at a time.

Hard claims proved here on a simulator-generated campaign:

1. **bit-identity** — per-bin results (alarms and counts), campaign
   stats and the *on-disk store bytes* (manifest minus the random
   ``store_id``, every segment file) are identical between the engine
   and the serial pipeline;
2. **speedup** — the engine is at least ``MIN_SPEEDUP`` (2x) faster
   end to end than the serial pipeline.

Results (headline traceroutes/second included) are written to
``BENCH_e2e.json`` at the repository root.  Set ``REPRO_BENCH_SMOKE=1``
(the CI smoke mode) to run a shortened campaign with every equivalence
assertion active and the timing floors skipped (shared runners are too
noisy).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.atlas import decode_traceroutes, read_bincache, write_bincache, write_traceroutes
from repro.core import Engine, Pipeline, PipelineConfig
from repro.reporting import format_table
from repro.service import AlarmStoreWriter
from repro.service.store import read_manifest
from repro.simulation import (
    AtlasPlatform,
    CampaignConfig,
    CompositeScenario,
    DdosScenario,
    IxpOutageScenario,
    TopologyParams,
    build_topology,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Campaign length in hours (builtin + anchoring traffic).  The final
#: hours carry an IXP outage and a DDoS so both alarm kinds are real.
DURATION_H = 4 if SMOKE else 12

#: Timing repetitions (best-of, to damp scheduler noise).
ROUNDS = 1 if SMOKE else 3

#: Hard floor for the fused end-to-end speedup (full mode only).
MIN_SPEEDUP = 2.0

#: Machine-readable results land here.
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_e2e.json"


def _e2e(cache_path, mapper, store_dir, engine=False):
    """One cold end-to-end run: bin cache -> detection -> alarm store.

    With *engine* the engine reads the cache mapped zero-copy; without,
    the serial reference pipeline reads a copy and materialises objects
    per bin.  Returns (bin results, stats).
    """
    if engine:
        pipeline = Engine()
        batch = read_bincache(cache_path, mapped=True)
    else:
        pipeline = Pipeline(PipelineConfig())
        batch = read_bincache(cache_path)
    results = pipeline.run(batch)
    stats = pipeline.stats()
    writer = AlarmStoreWriter.create(
        store_dir, mapper, bin_s=3600, overwrite=True
    )
    writer.append_bins(results)
    return results, stats


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


def _store_fingerprint(store_dir):
    """Everything deterministic about a store's on-disk bytes.

    ``store_id`` is a random epoch token drawn at ``create()`` — it is
    the *only* thing allowed to differ between two stores built from
    identical results, so it is excluded and every other manifest field
    plus every segment file's exact bytes are included.
    """
    store_dir = Path(store_dir)
    manifest = read_manifest(store_dir)
    segments = {
        path.name: path.read_bytes()
        for path in sorted(store_dir.glob("seg-*.seg"))
    }
    meta = [
        (m.name, m.digest, m.n_delay, m.n_forwarding, m.n_events,
         m.min_ts, m.max_ts, m.min_asn, m.max_asn)
        for m in manifest.segments
    ]
    return (
        manifest.generation, manifest.next_index, manifest.bin_s,
        manifest.start, manifest.end, meta, segments,
    )


def test_fused_e2e_throughput(benchmark, tmp_path):
    """Measure engine and reference end to end; assert the hard claims."""
    topology = build_topology(TopologyParams.case_study(), seed=1)
    kroot = topology.services["K-root"]
    scenario = CompositeScenario(
        [
            IxpOutageScenario(
                topology,
                ixp_asn=1200,
                window=((DURATION_H - 3) * 3600, (DURATION_H - 2) * 3600),
            ),
            DdosScenario(
                topology,
                "K-root",
                [kroot.instances[0].node, kroot.instances[1].node],
                windows=[((DURATION_H - 2) * 3600, DURATION_H * 3600)],
                seed=3,
            ),
        ]
    )
    platform = AtlasPlatform(topology, scenario=scenario, seed=2)
    mapper = platform.as_mapper()
    jsonl_path = tmp_path / "campaign.jsonl"
    n_traceroutes = write_traceroutes(
        jsonl_path,
        platform.run_campaign(CampaignConfig(duration_s=DURATION_H * 3600)),
    )
    cache_path = tmp_path / "campaign.binc"
    write_bincache(cache_path, decode_traceroutes(jsonl_path))
    cache_bytes = cache_path.stat().st_size

    # The oracle: the serial reference pipeline over the same cache.
    reference_results, reference_stats = _e2e(
        cache_path, mapper, tmp_path / "reference.store"
    )
    assert sum(len(r.delay_alarms) for r in reference_results) > 0, (
        "vacuous campaign: no delay alarms to compare"
    )
    reference_store = _store_fingerprint(tmp_path / "reference.store")

    # Hard claim 1: bit-identical results, stats and store bytes.
    results, stats = _e2e(
        cache_path, mapper, tmp_path / "engine.store", engine=True
    )
    assert results == reference_results, "engine results diverged"
    assert stats == reference_stats, "campaign stats diverged"
    assert _store_fingerprint(tmp_path / "engine.store") == reference_store, (
        "store bytes diverged from the serial pipeline"
    )

    # Hard claim 2 + the headline number: timed end-to-end runs.
    def timed(engine):
        store = tmp_path / "timed.store"
        return _best_time(
            lambda: _e2e(cache_path, mapper, store, engine=engine)
        )[0]

    reference_s = timed(engine=False)
    engine_s = timed(engine=True)
    headline_speedup = reference_s / engine_s
    throughput = n_traceroutes / engine_s

    benchmark.pedantic(
        lambda: _e2e(
            cache_path, mapper, tmp_path / "timed.store", engine=True
        ),
        rounds=1, iterations=1,
    )

    mode = "smoke" if SMOKE else "full"
    rows = [
        ["serial Pipeline", f"{reference_s:.3f}", "1.00",
         f"{n_traceroutes / reference_s:,.0f}"],
        ["engine", f"{engine_s:.3f}", f"{headline_speedup:.2f}",
         f"{throughput:,.0f}"],
    ]
    print(
        f"\n=== fused end-to-end throughput ({mode}: {DURATION_H}h campaign, "
        f"{n_traceroutes} traceroutes, {cache_bytes / 1e6:.1f} MB cache, "
        f"best of {ROUNDS}) ==="
    )
    print(
        format_table(
            ["path (cache -> detect -> store)", "seconds", "vs serial",
             "traceroutes/s"],
            rows,
        )
    )

    payload = {
        "mode": mode,
        "smoke": SMOKE,
        "campaign_hours": DURATION_H,
        "n_traceroutes": n_traceroutes,
        "cache_bytes": cache_bytes,
        "rounds": ROUNDS,
        "reference_serial_s": reference_s,
        "engine_s": engine_s,
        "headline_speedup": headline_speedup,
        "headline_traceroutes_per_s": throughput,
        "min_speedup_required": MIN_SPEEDUP,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")

    if not SMOKE:
        assert headline_speedup >= MIN_SPEEDUP, (
            f"engine speedup {headline_speedup:.2f}x fell below the "
            f"{MIN_SPEEDUP}x floor (serial Pipeline {reference_s:.3f}s, "
            f"engine {engine_s:.3f}s)"
        )
