"""Columnar ingestion: decode+bin speedup and bit-identical analysis.

The paper's dataset is 2.8 *billion* archived traceroutes, so replaying
a stored campaign is dominated by ingestion, not detection: the object
path round-trips every JSONL line through nested frozen dataclasses
(``Traceroute`` → ``Hop`` → ``Reply``) built one dict at a time.  The
columnar ingestion layer (``repro.atlas.columnar`` +
``repro.atlas.bincache``) replaces that with flat parallel arrays, an
interned IP table, and a binary on-disk cache.

This benchmark proves the layer's three hard claims on a
simulator-generated campaign:

1. **decode+bin speedup** — ``decode_traceroutes`` + the columnar
   ``TimeBinner`` fast path is at least 3x faster end-to-end than
   ``read_traceroutes`` + ``TimeBinner`` building object lists;
2. **cache speedup** — a warm ``read_bincache`` replay (no JSON at
   all) is faster still, typically by two orders of magnitude;
3. **bit-identical analysis** — ``Engine`` consuming the columns
   directly produces exactly the serial reference pipeline's
   ``BinResult`` list and ``CampaignStats``.

Timings and speedups are also written to ``BENCH_ingest.json`` at the
repository root for machine consumption.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.atlas import (
    TimeBinner,
    decode_traceroutes,
    read_bincache,
    read_traceroutes,
    write_bincache,
    write_traceroutes,
)
from repro.core import Engine, Pipeline, PipelineConfig
from repro.reporting import format_table
from repro.simulation import (
    AtlasPlatform,
    CampaignConfig,
    TopologyParams,
    build_topology,
)

#: Campaign length in hours (builtin + anchoring traffic).
DURATION_H = 4

#: Timing repetitions (best-of, to damp scheduler noise).
ROUNDS = 5

#: Hard floor for the columnar decode+bin speedup.
MIN_SPEEDUP = 3.0


#: Machine-readable results land here.
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"


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


def test_ingest_speedup(benchmark, tmp_path):
    """Measure the three ingestion paths and assert the hard claims."""
    topology = build_topology(TopologyParams.case_study(), seed=1)
    platform = AtlasPlatform(topology, seed=2)
    jsonl_path = tmp_path / "campaign.jsonl"
    n_traceroutes = write_traceroutes(
        jsonl_path,
        platform.run_campaign(CampaignConfig(duration_s=DURATION_H * 3600)),
    )
    jsonl_bytes = jsonl_path.stat().st_size

    def object_path():
        binner = TimeBinner()
        return [
            (start, list(traceroutes))
            for start, traceroutes in binner.bins(read_traceroutes(jsonl_path))
        ]

    def columnar_path():
        binner = TimeBinner()
        return list(binner.bins(decode_traceroutes(jsonl_path)))

    cache_path = tmp_path / "campaign.binc"
    write_bincache(cache_path, decode_traceroutes(jsonl_path))

    def cache_hit_path():
        binner = TimeBinner()
        return list(binner.bins(read_bincache(cache_path)))

    object_time, object_bins = _best_time(object_path)
    columnar_time, columnar_bins = _best_time(columnar_path)
    cache_time, cache_bins = _best_time(cache_hit_path)

    # Same bins, same members, regardless of the ingestion path.
    for (start_o, trs), (start_c, view), (start_h, hit_view) in zip(
        object_bins, columnar_bins, cache_bins
    ):
        assert start_o == start_c == start_h
        assert trs == view.to_traceroutes() == hit_view.to_traceroutes()

    columnar_speedup = object_time / columnar_time
    cache_speedup = object_time / cache_time

    # Hard claim 3: Engine on columns == serial Pipeline on objects,
    # bit for bit.
    traceroutes = list(read_traceroutes(jsonl_path))
    batch = decode_traceroutes(jsonl_path)
    serial = Pipeline(PipelineConfig())
    reference_results = serial.run(traceroutes)
    reference_stats = serial.stats()
    assert sum(len(r.delay_alarms) for r in reference_results) >= 0
    engine = Engine()
    assert engine.run(batch) == reference_results, (
        "columnar engine output diverged"
    )
    assert engine.stats() == reference_stats, (
        "columnar CampaignStats diverged"
    )

    # One canonical pytest-benchmark measurement: the columnar path.
    benchmark.pedantic(columnar_path, rounds=1, iterations=1)

    rows = [
        ["read_traceroutes + TimeBinner", f"{object_time:.3f}", "1.00"],
        [
            "decode_traceroutes + columnar bins",
            f"{columnar_time:.3f}",
            f"{columnar_speedup:.2f}",
        ],
        [
            "read_bincache + columnar bins",
            f"{cache_time:.3f}",
            f"{cache_speedup:.2f}",
        ],
    ]
    print(
        f"\n=== columnar ingestion ({DURATION_H}h campaign, "
        f"{n_traceroutes} traceroutes, {jsonl_bytes / 1e6:.1f} MB JSONL, "
        f"best of {ROUNDS}) ==="
    )
    print(format_table(["ingestion path", "seconds", "speedup"], rows))

    payload = {
        "campaign_hours": DURATION_H,
        "n_traceroutes": n_traceroutes,
        "jsonl_bytes": jsonl_bytes,
        "rounds": ROUNDS,
        "object_decode_bin_s": object_time,
        "columnar_decode_bin_s": columnar_time,
        "bincache_decode_bin_s": cache_time,
        "columnar_speedup": columnar_speedup,
        "bincache_speedup": cache_speedup,
        "min_speedup_required": MIN_SPEEDUP,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")

    # Hard claims 1 and 2.
    assert columnar_speedup >= MIN_SPEEDUP, (
        f"columnar decode+bin speedup {columnar_speedup:.2f}x fell below "
        f"the {MIN_SPEEDUP}x floor (object {object_time:.3f}s, "
        f"columnar {columnar_time:.3f}s)"
    )
    assert cache_speedup >= columnar_speedup, (
        "warm bin-cache replay should never be slower than JSON decoding"
    )
