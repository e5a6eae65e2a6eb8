"""Packet-forwarding model and forwarding-anomaly detection (paper §5).

For every (router IP, traceroute destination) pair the model records
where packets were forwarded: a vector of per-next-hop packet counts,
with one shared bucket ``*`` for unresponsive next hops (lost packets and
silent routers are indistinguishable in traceroute data, §5.1).

The reference pattern F̄ is maintained by exponential smoothing (Eq. 8).
A new pattern F is anomalous when its Pearson correlation with F̄ falls
below τ = −0.25 (§5.2.1); per-hop responsibilities then localise the
change (Eq. 9).

This module holds what the production arena
(:class:`~repro.core.arena.ForwardingArena`) and the scalar reference
(:class:`~repro.reference.pipeline.ForwardingAnomalyDetector`) share:
the model key types, the defaults and Eq. 9.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Detection threshold on the Pearson correlation (§5.2.1, knee of the
#: empirical ρ distribution).
DEFAULT_TAU = -0.25

#: Bins of reference history required before patterns are judged.
DEFAULT_WARMUP_BINS = 3

#: A (router IP, destination IP) forwarding-model key.
ModelKey = Tuple[str, str]

Pattern = Dict[str, float]


def responsibility_scores(
    pattern: Pattern, reference: Pattern, correlation: float
) -> Dict[str, float]:
    """Eq. 9: per-next-hop responsibility for a pattern change.

    ``r_i = -ρ · (p_i - p̄_i) / Σ_j |p_j - p̄_j|`` — positive for hops that
    appeared, negative for hops that lost traffic; near zero for hops
    whose packet counts did not move.

    Keys are processed in sorted order so the floating-point
    normalisation sum is independent of Python's per-process string-hash
    seed — a requirement for alarms (and the store bytes written from
    them) to be bit-identical across interpreter runs.
    """
    keys = sorted(set(pattern) | set(reference), key=str)
    diffs = {
        key: pattern.get(key, 0.0) - reference.get(key, 0.0) for key in keys
    }
    total = sum(abs(d) for d in diffs.values())
    if total == 0.0:
        return {key: 0.0 for key in keys}
    return {key: -correlation * diffs[key] / total for key in keys}
