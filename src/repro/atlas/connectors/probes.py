"""Probe-metadata connector: the ``meta-latest`` dump → ASN→probe map.

The paper groups probes per origin AS (§4.3 probe diversity) and maps
alarm IPs to ASes (§6); on the live platform both tables come from
RIPE Atlas probe metadata.  This connector fetches the daily
``meta-latest`` archive dump (much faster than paginating the probes
API), filters it down to usable probes — **connected** (status 1),
**public**, with an **ASN** for the requested address family, the
exact filtering idiom of the published Atlas tooling — and derives:

* :func:`asn_probe_map` — ``{asn: [probe ids]}``, the per-AS probe
  grouping the diversity filter needs;
* :func:`prefix_entries` — ``(network, length, asn)`` triples from
  each probe's announced prefix, ready for
  :meth:`repro.net.asmap.AsMapper.load`, so a ``--seed``-built IP→AS
  table can be refreshed with live data (:func:`refresh_mapper`).

Fault tolerance degrades to *stale but serving*: when the circuit
breaker is open or the retry budget runs out and a previous dump was
cached on disk, :func:`fetch_probes` returns the cached probes flagged
``stale=True`` instead of failing — yesterday's probe map beats no
probe map for a monitoring system that must keep running.  The cache
is JSON inside a :mod:`repro.binfmt` frame; a cache that fails the
frame's vetting (corrupt, foreign, or an older unframed file) is
treated as absent.
"""

from __future__ import annotations

import bz2
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import binfmt
from repro.atlas.connectors.transport import (
    CircuitOpenError,
    FaultTolerantClient,
    RetryBudgetExceeded,
)
from repro.atlas.io import PathLike
from repro.net.asmap import AsMapper

#: The daily full probe-metadata dump (bz2 or plain JSON).
META_LATEST_URL = "https://ftp.ripe.net/ripe/atlas/probes/archive/meta-latest"

#: Atlas probe ``status_id`` for a connected probe.
STATUS_CONNECTED = 1

#: The stale-serving cache: a framed JSON probe set.
PROBE_CACHE = binfmt.Format(b"RPROPRBC", 1, "probe cache")


@dataclass(frozen=True)
class ProbeInfo:
    """The slice of one probe's metadata the pipeline consumes."""

    id: int
    asn: int
    af: int
    prefix: Optional[str] = None
    address: Optional[str] = None


@dataclass(frozen=True)
class ProbeSet:
    """A filtered probe collection plus its provenance flags."""

    probes: Tuple[ProbeInfo, ...]
    stale: bool = False
    total_in_dump: int = 0


def parse_probe_dump(body: bytes) -> List[dict]:
    """Decode a ``meta-latest`` body into the raw probe object list.

    The dump is served bz2-compressed (tried first) or as plain JSON;
    the object list lives under ``"objects"`` in the dict form or is
    the document itself in the bare-list form.  Anything else raises
    ``ValueError`` — callers treat that as a malformed (retryable)
    response upstream or a fatal fixture bug offline.
    """
    try:
        text = bz2.decompress(body)
    except OSError:
        text = body
    data = json.loads(text.decode("utf-8"))
    if isinstance(data, dict) and isinstance(data.get("objects"), list):
        return data["objects"]
    if isinstance(data, list):
        return data
    raise ValueError("probe dump is neither an object list nor {'objects': []}")


def usable_probes(objects: List[dict], af: int = 4) -> List[ProbeInfo]:
    """Filter raw dump objects to connected + public + ASN-bearing probes.

    *af* selects the address family: ``asn_v4``/``prefix_v4`` for 4,
    ``asn_v6``/``prefix_v6`` for 6.  Malformed entries are skipped —
    the dump is third-party data and one bad row must not sink the map.
    """
    if af not in (4, 6):
        raise ValueError(f"af must be 4 or 6: {af}")
    asn_field, prefix_field = f"asn_v{af}", f"prefix_v{af}"
    address_field = f"address_v{af}"
    probes: List[ProbeInfo] = []
    for raw in objects:
        if not isinstance(raw, dict):
            continue
        if raw.get("status_id") != STATUS_CONNECTED:
            continue
        if not raw.get("is_public"):
            continue
        asn = raw.get(asn_field)
        probe_id = raw.get("id")
        if asn is None or probe_id is None:
            continue
        try:
            probes.append(
                ProbeInfo(
                    id=int(probe_id),
                    asn=int(asn),
                    af=af,
                    prefix=raw.get(prefix_field),
                    address=raw.get(address_field),
                )
            )
        except (TypeError, ValueError):
            continue
    return probes


def asn_probe_map(probes: List[ProbeInfo]) -> Dict[int, List[int]]:
    """Group probe ids per origin AS (ids sorted, deterministic)."""
    mapping: Dict[int, List[int]] = {}
    for probe in probes:
        mapping.setdefault(probe.asn, []).append(probe.id)
    return {asn: sorted(ids) for asn, ids in sorted(mapping.items())}


def prefix_entries(
    probes: List[ProbeInfo],
) -> List[Tuple[str, int, int]]:
    """``(network, length, asn)`` triples from the probes' prefixes.

    Entries are deduplicated and sorted; probes without a usable
    ``network/length`` prefix string contribute nothing.
    """
    entries = set()
    for probe in probes:
        prefix = probe.prefix
        if not prefix or "/" not in prefix:
            continue
        network, _, length_text = prefix.partition("/")
        try:
            length = int(length_text)
        except ValueError:
            continue
        if network and length >= 0:
            entries.add((network, length, probe.asn))
    return sorted(entries)


def refresh_mapper(mapper: AsMapper, probes: List[ProbeInfo]) -> int:
    """Load the probes' prefixes into *mapper*; returns entries loaded.

    This is the live refresh of the ``--seed``-built IP→AS table: the
    synthetic topology's prefixes stay, current probe prefixes are
    added (longest-prefix match arbitrates overlaps), and the mapper's
    lookup cache is invalidated by :meth:`~repro.net.asmap.AsMapper.load`.
    """
    entries = prefix_entries(probes)
    if not entries:
        return 0
    return mapper.load(entries)


def _write_cache(path: Path, probes: List[ProbeInfo], total: int) -> None:
    """Durably persist a fetched probe set for stale-serving."""
    payload = {
        "total_in_dump": total,
        "probes": [
            {
                "id": p.id,
                "asn": p.asn,
                "af": p.af,
                "prefix": p.prefix,
                "address": p.address,
            }
            for p in probes
        ],
    }
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    binfmt.atomic_write(path, PROBE_CACHE, [encoded])


def _read_cache(path: Path) -> Optional[ProbeSet]:
    """Load a previously cached probe set, or None when unusable."""
    try:
        payload = json.loads(bytes(binfmt.read_frame(path, PROBE_CACHE)))
        probes = tuple(
            ProbeInfo(
                id=int(p["id"]),
                asn=int(p["asn"]),
                af=int(p["af"]),
                prefix=p.get("prefix"),
                address=p.get("address"),
            )
            for p in payload["probes"]
        )
    except (binfmt.FormatError, ValueError, TypeError, KeyError):
        return None
    return ProbeSet(
        probes=probes,
        stale=True,
        total_in_dump=int(payload.get("total_in_dump", 0)),
    )


def fetch_probes(
    client: FaultTolerantClient,
    url: str = META_LATEST_URL,
    af: int = 4,
    cache_path: Optional[PathLike] = None,
) -> ProbeSet:
    """Fetch and filter the probe dump; degrade to the cache when down.

    On success the filtered set is cached at *cache_path* (if given)
    and returned with ``stale=False``.  When the fetch fails because
    the API is down — circuit open or retry budget exhausted — a
    readable cache is served with ``stale=True`` instead of raising;
    with no cache, the transport error propagates.
    """
    try:
        response = client.get(url)
    except (CircuitOpenError, RetryBudgetExceeded):
        if cache_path is not None:
            cached = _read_cache(Path(cache_path))
            if cached is not None:
                return cached
        raise
    objects = parse_probe_dump(response.body)
    probes = usable_probes(objects, af=af)
    if cache_path is not None:
        _write_cache(Path(cache_path), probes, len(objects))
    return ProbeSet(
        probes=tuple(probes), stale=False, total_in_dump=len(objects)
    )
