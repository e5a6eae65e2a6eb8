"""Seeded traceroute feeds and their serial-pipeline oracle.

The simulator produces ~3k traceroutes/s, far too slow to generate a
replay-sized campaign inside a benchmark run, so a feed is built in two
steps: a short *base block* comes from the simulator (quiet bins, then
an IXP outage, then a DDoS on K-root, as in ``bench_e2e.py``), and the
feed file is that block *tiled* in time — every record repeated with
its timestamp shifted by whole block lengths.  Detection is causal
per bin, so the first ``base_bins`` results of any run over a tiled
feed must equal the oracle over the base block alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import List, Sequence, Tuple

from repro.atlas import Traceroute, read_traceroutes
from repro.core import BinResult, Pipeline, PipelineConfig
from repro.net import AsMapper
from repro.simulation import (
    AtlasPlatform,
    CampaignConfig,
    CompositeScenario,
    DdosScenario,
    IxpOutageScenario,
    TopologyParams,
    build_topology,
)

BIN_S = 3600

#: The topology is the same for every benchmark seed, and this is the
#: ``--seed`` the CLI is given to rebuild its IP→AS table.  Path lengths
#: and alarm counts follow the topology, so letting it vary would make
#: the amount of work differ from seed to seed for reasons that have no
#: bearing on the code under test.  The benchmark seed drives what
#: changes between runs of one deployment: probe schedules, delay noise
#: and the attack's shape.
TOPOLOGY_SEED = 1


def cli_mapper() -> AsMapper:
    """The IP→AS table exactly as the CLI derives it from ``--seed``."""
    topology = build_topology(TopologyParams.case_study(), seed=TOPOLOGY_SEED)
    return AtlasPlatform(topology, seed=TOPOLOGY_SEED).as_mapper()


def build_base(seed: int, base_bins: int) -> Tuple[AsMapper, List[Traceroute]]:
    """Simulate the base block; returns (IP→AS mapper, traceroutes)."""
    if base_bins < 5:
        raise ValueError(f"base block needs >= 5 bins, got {base_bins}")
    topology = build_topology(TopologyParams.case_study(), seed=TOPOLOGY_SEED)
    kroot = topology.services["K-root"]
    scenario = CompositeScenario(
        [
            IxpOutageScenario(
                topology,
                ixp_asn=1200,
                window=((base_bins - 3) * BIN_S, (base_bins - 2) * BIN_S),
            ),
            DdosScenario(
                topology,
                "K-root",
                [kroot.instances[0].node, kroot.instances[1].node],
                windows=[((base_bins - 2) * BIN_S, base_bins * BIN_S)],
                seed=seed,
            ),
        ]
    )
    platform = AtlasPlatform(topology, scenario=scenario, seed=seed)
    # Builtin measurements only (every probe -> the three root services,
    # 600 traceroutes/bin): the anchoring mesh simulates at a third of
    # the speed and would triple set-up for the same per-record costs.
    config = CampaignConfig(
        duration_s=base_bins * BIN_S, include_anchoring=False
    )
    return platform.as_mapper(), list(platform.run_campaign(config))


def oracle_bins(traceroutes: Sequence[Traceroute]) -> List[BinResult]:
    """The paper-shaped serial pipeline over the base block."""
    return Pipeline(PipelineConfig()).run(traceroutes)


def write_tiled_feed(
    path: Path, base: Sequence[Traceroute], base_bins: int, tiles: int
) -> Tuple[int, str]:
    """Write *base* tiled *tiles* times; returns (records, digest).

    Each parsed record is dumped once, exactly as ``write_traceroutes``
    dumps it (``json.dumps(..., sort_keys=True)``); ``timestamp`` sorts
    last among a record's keys, so a tile is written by re-stamping the
    tail of that line instead of re-serialising ~1 KB of hops per copy
    (50 µs each — at replay sizes more than the simulation itself).
    Tiles follow each other, so the file stays in timestamp order;
    :func:`validate_feed_sample` re-reads a sample through the library.
    """
    span = base_bins * BIN_S
    heads = []
    for traceroute in base:
        line = json.dumps(traceroute.to_json(), sort_keys=True)
        tail = f'"timestamp": {traceroute.timestamp}}}'
        if not line.endswith(tail):
            raise ValueError("record does not end in its timestamp field")
        heads.append((line[: -len(tail)] + '"timestamp": ',
                      traceroute.timestamp))
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "w", encoding="utf-8") as handle:
        for tile in range(tiles):
            offset = tile * span
            block = "".join(
                f"{head}{timestamp + offset}}}\n" for head, timestamp in heads
            )
            digest.update(block.encode("utf-8"))
            handle.write(block)
    return len(heads) * tiles, digest.hexdigest()


def validate_feed_sample(
    path: Path,
    base: Sequence[Traceroute],
    base_bins: int,
    tiles: int,
    scratch: Path,
    every: int = 997,
) -> None:
    """Re-read every *every*-th feed line through ``read_traceroutes``.

    The sampled lines are copied to *scratch* and decoded by the
    library reader; each must equal its base record with the tile's
    time shift applied.  Raises ``ValueError`` on any mismatch.
    """
    span = base_bins * BIN_S
    expected = []
    with open(path, "r", encoding="utf-8") as feed, \
            open(scratch, "w", encoding="utf-8") as sample:
        for index, line in enumerate(feed):
            if index % every:
                continue
            tile, position = divmod(index, len(base))
            source = base[position]
            expected.append(
                dataclasses.replace(
                    source, timestamp=source.timestamp + tile * span
                )
            )
            sample.write(line)
    decoded = list(read_traceroutes(scratch))
    if decoded != expected or not decoded:
        raise ValueError(f"tiled feed sample does not round-trip: {path}")
    if index + 1 != len(base) * tiles:
        raise ValueError(f"tiled feed has {index + 1} lines: {path}")
