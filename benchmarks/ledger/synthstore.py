"""Seeded synthetic alarm store for the ``serve_churn`` workload.

The simulator's case-study topology yields ~11 alarmed ASes — every
query then fits the serving tier's 256-entry response cache and the
store is never read.  This module fabricates a store wide enough to
miss: ``N_AS`` single-/24 ASes, Zipf-popular, with a fixed number of
delay and forwarding alarms per hourly bin, built from the public
result dataclasses (``BinResult``/``DelayAlarm``/``ForwardingAlarm``)
and written through ``AlarmStoreWriter`` exactly like ``monitor
--store`` writes.  Same seed, same content and size.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect
from itertools import accumulate
from pathlib import Path
from typing import List, Sequence, Tuple

from repro.core import BinResult, DelayAlarm, ForwardingAlarm
from repro.net import AsMapper
from repro.reporting import (
    delay_alarm_record,
    dumps_canonical,
    forwarding_alarm_record,
)
from repro.service import AlarmStoreWriter, StoreQuery
from repro.stats import WilsonInterval

BIN_S = 3600

#: First synthetic ASN; AS ``FIRST_ASN + i`` owns ``10.(i >> 8).(i & 255).0/24``.
FIRST_ASN = 64512

#: Popularity exponent shared by the alarm generator and the request
#: schedule, so the ASes most asked about are the ones with history.
ZIPF_S = 1.1


def asn_list(n_as: int) -> List[int]:
    return [FIRST_ASN + index for index in range(n_as)]


def synth_mapper(n_as: int) -> AsMapper:
    """One /24 per AS, so every alarm IP attributes to exactly one AS."""
    return AsMapper(
        [(f"10.{index >> 8}.{index & 255}.0", 24, FIRST_ASN + index)
         for index in range(n_as)]
    )


def zipf_cdf(n: int, s: float = ZIPF_S) -> List[float]:
    """Cumulative Zipf(s) weights over ranks 1..n (for ``bisect``)."""
    return list(accumulate(1.0 / (rank ** s) for rank in range(1, n + 1)))


def zipf_draw(rng: random.Random, cdf: Sequence[float]) -> int:
    """One rank index in ``[0, len(cdf))``, Zipf-distributed."""
    return min(bisect(cdf, rng.random() * cdf[-1]), len(cdf) - 1)


def _ip(as_index: int, host: int) -> str:
    return f"10.{as_index >> 8}.{as_index & 255}.{host}"


def synth_bin(
    rng: random.Random,
    cdf: Sequence[float],
    timestamp: int,
    n_delay: int,
    n_forwarding: int,
) -> BinResult:
    """One fabricated bin: alarms on Zipf-popular ASes' links."""
    delay = []
    for _ in range(n_delay):
        near_as, far_as = zipf_draw(rng, cdf), zipf_draw(rng, cdf)
        median = rng.uniform(1.0, 40.0)
        shift = rng.uniform(2.0, 60.0)
        delay.append(
            DelayAlarm(
                timestamp=timestamp,
                link=(_ip(near_as, rng.randint(1, 8)),
                      _ip(far_as, rng.randint(9, 16))),
                observed=WilsonInterval(
                    median + shift, median + shift - 0.5,
                    median + shift + 0.5, rng.randint(20, 200),
                ),
                reference=WilsonInterval(
                    median, median - 0.4, median + 0.4, rng.randint(20, 200)
                ),
                deviation=rng.uniform(1.0, 50.0),
                direction=1,
                n_probes=rng.randint(5, 40),
                n_asns=rng.randint(3, 12),
            )
        )
    forwarding = []
    for _ in range(n_forwarding):
        router_as = zipf_draw(rng, cdf)
        hop_old = _ip(zipf_draw(rng, cdf), rng.randint(17, 24))
        hop_new = _ip(zipf_draw(rng, cdf), rng.randint(25, 32))
        moved = rng.uniform(5.0, 30.0)
        forwarding.append(
            ForwardingAlarm(
                timestamp=timestamp,
                router_ip=_ip(router_as, rng.randint(1, 8)),
                destination=_ip(zipf_draw(rng, cdf), 200),
                correlation=rng.uniform(-1.0, -0.3),
                responsibilities={hop_old: -moved / 40.0, hop_new: moved / 40.0},
                pattern={hop_old: 40.0 - moved, hop_new: moved},
                reference={hop_old: 40.0},
            )
        )
    return BinResult(
        timestamp=timestamp,
        n_traceroutes=n_delay + n_forwarding,
        n_links_observed=n_delay,
        n_links_analyzed=n_delay,
        delay_alarms=delay,
        forwarding_alarms=forwarding,
    )


def synth_bins(
    seed: int,
    n_as: int,
    n_bins: int,
    n_delay: int,
    n_forwarding: int,
) -> List[BinResult]:
    """``n_bins`` consecutive hourly bins from bin 0, seeded."""
    rng = random.Random(seed)
    cdf = zipf_cdf(n_as)
    return [
        synth_bin(rng, cdf, index * BIN_S, n_delay, n_forwarding)
        for index in range(n_bins)
    ]


def build_store(
    path: Path,
    mapper: AsMapper,
    bins: Sequence[BinResult],
    bins_per_segment: int,
) -> AlarmStoreWriter:
    """Write *bins* as consecutive segments; returns the open writer.

    The writer stays usable: ``serve_churn`` appends further bins
    through it while the server reads (one generation bump per call).
    """
    writer = AlarmStoreWriter.create(path, mapper, bin_s=BIN_S, start=0)
    for index in range(0, len(bins), bins_per_segment):
        writer.append_bins(bins[index:index + bins_per_segment])
    return writer


def store_fingerprint(path: Path) -> Tuple[str, int]:
    """(content digest, bytes on disk) of a store.

    The digest covers what every reader sees: the manifest's clock and
    per-segment row counts, and each bin's alarms rendered as canonical
    records.  It deliberately does not hash segment files: a segment
    holding forwarding alarms lays its hop strings out in set-iteration
    order, so its bytes change with the interpreter's hash seed while
    its content and size do not (``store_id`` is random too).
    """
    path = Path(path)
    query = StoreQuery(path)
    manifest = query.store.manifest
    digest = hashlib.blake2b(digest_size=16)
    digest.update(
        repr(
            (manifest.generation, manifest.next_index, manifest.bin_s,
             manifest.start, manifest.end,
             [(m.name, m.n_delay, m.n_forwarding, m.n_events,
               m.min_ts, m.max_ts, m.min_asn, m.max_asn)
              for m in manifest.segments])
        ).encode()
    )
    if manifest.start is not None:
        for timestamp in range(
            manifest.start, manifest.end + 1, manifest.bin_s
        ):
            delay, forwarding = query.alarms_at(timestamp)
            digest.update(
                dumps_canonical(
                    [list(map(delay_alarm_record, delay)),
                     list(map(forwarding_alarm_record, forwarding))]
                )
            )
    return digest.hexdigest(), store_bytes(path)


def store_bytes(path: Path) -> int:
    """Manifest plus segment files, in bytes on disk."""
    return sum(
        entry.stat().st_size
        for entry in Path(path).iterdir()
        if entry.name == "MANIFEST" or entry.suffix == ".seg"
    )
