"""End-to-end throughput: the fused spine vs the serial reference.

The paper's deployment replays archived traceroutes continuously, so
the number that matters operationally is **traceroutes per second from
a cold on-disk campaign to a published alarm store**.  The sharded
engine keeps one columnar spine end to end: the cache is mmap'd
(``mapped=True``), extraction emits interned-id flat arrays
(:mod:`repro.core.fused`), shard payloads travel by shared memory, and
alarms materialise str-keyed objects exactly once, at the store/report
boundary.  The baseline is the paper-shaped serial
:class:`~repro.core.Pipeline` over the same cache: columns copied out,
objects materialised per bin, links analysed one at a time.

Hard claims proved here on a simulator-generated campaign:

1. **bit-identity** — per-bin results (alarms and counts), campaign
   stats and the *on-disk store bytes* (manifest minus the random
   ``store_id``, every segment file) are identical between the engine
   and the serial pipeline at 1/2/4 shards under the serial and
   process executors;
2. **speedup** — the engine is at least ``MIN_SPEEDUP`` (2x) faster
   end to end than the serial pipeline, single-process
   (``executor="serial"``, deterministic timing) and at the headline
   parallel configuration.

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
from repro.core import Pipeline, PipelineConfig, ShardedPipeline
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

#: The equivalence matrix: every executor at every shard count.
SHARD_COUNTS = (1, 2, 4)
EXECUTORS = ("serial", "process")

#: The headline parallel configuration (throughput is quoted here).
HEADLINE = {"n_shards": 4, "executor": "process", "n_jobs": 4}

#: Machine-readable results land here.
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_e2e.json"


def _e2e(cache_path, mapper, store_dir, **engine_kwargs):
    """One cold end-to-end run: bin cache -> detection -> alarm store.

    With *engine_kwargs* the sharded engine reads the cache mapped
    zero-copy; without, the serial reference pipeline reads a copy and
    materialises objects per bin.  Returns (bin results, stats).
    """
    if engine_kwargs:
        pipeline = ShardedPipeline(PipelineConfig(**engine_kwargs))
        batch = read_bincache(cache_path, mapped=True)
    else:
        pipeline = Pipeline(PipelineConfig())
        batch = read_bincache(cache_path)
    try:
        results = pipeline.run(batch)
        stats = pipeline.stats()
    finally:
        if engine_kwargs:
            pipeline.close()
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

    # Hard claim 1: bit-identical results, stats and store bytes at
    # every (executor, shard count) pair.
    for executor in EXECUTORS:
        for n_shards in SHARD_COUNTS:
            kwargs = {"n_shards": n_shards, "executor": executor}
            if executor != "serial":
                kwargs["n_jobs"] = min(n_shards, 4)
            tag = f"{executor}-{n_shards}"
            results, stats = _e2e(
                cache_path, mapper, tmp_path / f"{tag}.store", **kwargs
            )
            assert results == reference_results, (
                f"engine results diverged at {tag}"
            )
            assert stats == reference_stats, (
                f"campaign stats diverged at {tag}"
            )
            assert (
                _store_fingerprint(tmp_path / f"{tag}.store")
                == reference_store
            ), f"store bytes diverged from the serial pipeline at {tag}"

    # Hard claim 2 + the headline number: timed end-to-end runs.
    def timed(**kwargs):
        store = tmp_path / "timed.store"
        return _best_time(
            lambda: _e2e(cache_path, mapper, store, **kwargs)
        )[0]

    reference_s = timed()
    fused_serial_s = timed(n_shards=4, executor="serial")
    fused_headline_s = timed(**HEADLINE)

    serial_speedup = reference_s / fused_serial_s
    headline_speedup = reference_s / fused_headline_s
    throughput = n_traceroutes / fused_headline_s

    benchmark.pedantic(
        lambda: _e2e(
            cache_path, mapper, tmp_path / "timed.store", **HEADLINE
        ),
        rounds=1, iterations=1,
    )

    mode = "smoke" if SMOKE else "full"
    rows = [
        ["serial Pipeline", f"{reference_s:.3f}", "1.00",
         f"{n_traceroutes / reference_s:,.0f}"],
        ["engine, serial x4", f"{fused_serial_s:.3f}",
         f"{serial_speedup:.2f}", f"{n_traceroutes / fused_serial_s:,.0f}"],
        ["engine, process x4", f"{fused_headline_s:.3f}",
         f"{headline_speedup:.2f}", f"{throughput:,.0f}"],
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
        "fused_serial_s": fused_serial_s,
        "fused_headline_s": fused_headline_s,
        "serial_speedup": serial_speedup,
        "headline_speedup": headline_speedup,
        "headline_traceroutes_per_s": throughput,
        "headline_config": dict(HEADLINE),
        "min_speedup_required": MIN_SPEEDUP,
        "equivalent_shard_counts": list(SHARD_COUNTS),
        "equivalent_executors": list(EXECUTORS),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")

    if not SMOKE:
        assert serial_speedup >= MIN_SPEEDUP, (
            f"engine serial speedup {serial_speedup:.2f}x fell below the "
            f"{MIN_SPEEDUP}x floor (serial Pipeline {reference_s:.3f}s, "
            f"engine {fused_serial_s:.3f}s)"
        )
        assert headline_speedup >= MIN_SPEEDUP, (
            f"engine headline speedup {headline_speedup:.2f}x fell below "
            f"the {MIN_SPEEDUP}x floor (serial Pipeline {reference_s:.3f}s, "
            f"engine {fused_headline_s:.3f}s)"
        )
