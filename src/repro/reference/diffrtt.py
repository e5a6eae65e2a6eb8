"""Differential RTT computation (paper §4.2.1).

For two adjacent routers X and Y observed in a traceroute from probe P,
traceroute yields one to three RTT samples each; the differential RTT
samples Δ_PXY are **all combinations** ``RTT_PY − RTT_PX`` — one to nine
samples per probe per traceroute.  Samples are grouped per link (ordered
IP pair) and per probe, because the diversity filter (§4.3) and the
median statistics both need the per-probe, per-AS structure.

:class:`LinkObservations` is the reference's container for them
(:func:`~repro.reference.pipeline.differential_rtts` fills it).  The
engine never builds one: its per-link view over a bin's flat arrays
offers the same :class:`~repro.core.diversity.ProbeObservations`
surface to the shared diversity filter.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.alarms import Link


class LinkObservations:
    """Differential RTT samples for one link within one time bin.

    Samples are accumulated into one flat ``array('d')`` buffer with
    per-probe ``(start, stop)`` segments instead of per-hop Python lists,
    which avoids per-float object overhead.
    """

    __slots__ = ("link", "probe_asn", "_samples", "_segments")

    def __init__(self, link: Link) -> None:
        self.link = link
        self.probe_asn: Dict[int, Optional[int]] = {}
        self._samples = array("d")
        self._segments: Dict[int, List[Tuple[int, int]]] = {}

    def __repr__(self) -> str:
        return (
            f"LinkObservations(link={self.link!r}, "
            f"n_probes={self.n_probes}, n_samples={self.n_samples})"
        )

    def add(
        self, probe_id: int, asn: Optional[int], samples: Iterable[float]
    ) -> None:
        buffer = self._samples
        start = len(buffer)
        buffer.extend(samples)
        self._segments.setdefault(probe_id, []).append((start, len(buffer)))
        self.probe_asn[probe_id] = asn

    def probe_ids(self) -> Iterable[int]:
        """Probe identifiers in first-observation order."""
        return self._segments.keys()

    @property
    def n_probes(self) -> int:
        return len(self._segments)

    @property
    def n_samples(self) -> int:
        return len(self._samples)

    def asns(self) -> Dict[int, int]:
        """Probe counts per origin AS (unknown-AS probes are skipped)."""
        counts: Dict[int, int] = {}
        for probe_id in self._segments:
            asn = self.probe_asn.get(probe_id)
            if asn is None:
                continue
            counts[asn] = counts.get(asn, 0) + 1
        return counts

    def _selected_segments(
        self, probe_ids: Optional[Iterable[int]]
    ) -> List[Tuple[int, int]]:
        if probe_ids is None:
            return [
                segment
                for segments in self._segments.values()
                for segment in segments
            ]
        return [
            segment
            for probe_id in probe_ids
            if probe_id in self._segments
            for segment in self._segments[probe_id]
        ]

    def all_samples(
        self, probe_ids: Optional[Iterable[int]] = None
    ) -> List[float]:
        """Flatten samples, optionally restricted to *probe_ids*."""
        buffer = self._samples
        flat: List[float] = []
        for start, stop in self._selected_segments(probe_ids):
            flat.extend(buffer[start:stop])
        return flat
