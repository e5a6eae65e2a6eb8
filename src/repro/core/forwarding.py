"""Packet-forwarding model and forwarding-anomaly detection (paper §5).

For every (router IP, traceroute destination) pair the model records
where packets were forwarded: a vector of per-next-hop packet counts,
with one shared bucket ``*`` for unresponsive next hops (lost packets and
silent routers are indistinguishable in traceroute data, §5.1).

The reference pattern F̄ is maintained by exponential smoothing (Eq. 8).
A new pattern F is anomalous when its Pearson correlation with F̄ falls
below τ = −0.25 (§5.2.1); per-hop responsibilities then localise the
change (Eq. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.atlas.model import Traceroute
from repro.core.alarms import UNRESPONSIVE, ForwardingAlarm
from repro.stats.correlation import pearson_correlation
from repro.stats.smoothing import DEFAULT_ALPHA, VectorSmoother

#: Detection threshold on the Pearson correlation (§5.2.1, knee of the
#: empirical ρ distribution).
DEFAULT_TAU = -0.25

#: Bins of reference history required before patterns are judged.
DEFAULT_WARMUP_BINS = 3

#: A (router IP, destination IP) forwarding-model key.
ModelKey = Tuple[str, str]

Pattern = Dict[str, float]


def forwarding_patterns(
    traceroutes: Iterable[Traceroute],
) -> Dict[ModelKey, Pattern]:
    """Extract per-(router, destination) next-hop packet counts for a bin.

    Each reply packet at TTL k+1 is attributed to the router seen at TTL
    k: responsive replies count towards their source IP, lost packets
    towards the ``*`` bucket.

    >>> from repro.atlas.model import make_traceroute
    >>> tr = make_traceroute(1, "s", "dst", 0,
    ...     [[("R", 1.0)], [("A", 2.0), (None, None), ("A", 2.2)]])
    >>> forwarding_patterns([tr])[("R", "dst")]
    {'A': 2.0, '*': 1.0}
    """
    patterns: Dict[ModelKey, Pattern] = {}
    patterns_get = patterns.get
    for traceroute in traceroutes:
        destination = traceroute.dst_addr
        for near_hop, far_hop in traceroute.adjacent_pairs():
            router_ip = near_hop.primary_ip
            if router_ip is None:
                continue
            key = (router_ip, destination)
            pattern = patterns_get(key)
            if pattern is None:
                pattern = patterns[key] = {}
            # Single-pass accumulation with the dict getter hoisted to a
            # local: one bound-method lookup per hop pair instead of one
            # per reply packet.
            pattern_get = pattern.get
            for reply in far_hop.replies:
                next_hop = reply.ip
                if next_hop is None:
                    next_hop = UNRESPONSIVE
                pattern[next_hop] = pattern_get(next_hop, 0.0) + 1.0
    return patterns


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


@dataclass
class ForwardingModelState:
    """Reference pattern and bookkeeping for one (router, destination)."""

    smoother: VectorSmoother
    alarms_raised: int = 0

    @property
    def reference(self) -> Pattern:
        return self.smoother.weights

    @property
    def bins_seen(self) -> int:
        return self.smoother.updates


class ForwardingAnomalyDetector:
    """Stateful detector over per-bin forwarding patterns.

    Feed the patterns of each time bin with :meth:`observe_bin` (or one
    model at a time with :meth:`observe`); anomalous patterns are
    returned as :class:`ForwardingAlarm` records.
    """

    def __init__(
        self,
        tau: float = DEFAULT_TAU,
        alpha: float = DEFAULT_ALPHA,
        warmup_bins: int = DEFAULT_WARMUP_BINS,
    ) -> None:
        if not -1.0 <= tau <= 0.0:
            raise ValueError(f"tau must be in [-1, 0]: {tau}")
        if warmup_bins < 1:
            raise ValueError(f"warmup_bins must be >= 1: {warmup_bins}")
        self.tau = tau
        self.alpha = alpha
        self.warmup_bins = warmup_bins
        self._states: Dict[ModelKey, ForwardingModelState] = {}

    # -- state inspection -----------------------------------------------------

    @property
    def n_models(self) -> int:
        return len(self._states)

    @property
    def n_routers(self) -> int:
        """Distinct router IPs with at least one model (paper's 170k)."""
        return len({router for router, _ in self._states})

    def state_of(self, key: ModelKey) -> Optional[ForwardingModelState]:
        return self._states.get(key)

    def reference_of(self, key: ModelKey) -> Optional[Pattern]:
        state = self._states.get(key)
        return state.reference if state else None

    def next_hops_total(self) -> int:
        """Summed reference sizes over all models (for stat merging)."""
        return sum(len(s.reference) for s in self._states.values())

    def mean_next_hops(self) -> float:
        """Average reference size over all models (paper reports ≈ 4)."""
        if not self._states:
            return 0.0
        return self.next_hops_total() / len(self._states)

    # -- detection -------------------------------------------------------------

    def observe(
        self, timestamp: int, key: ModelKey, pattern: Pattern
    ) -> Optional[ForwardingAlarm]:
        """Process one model's bin pattern; return an alarm or None."""
        if not pattern:
            return None
        state = self._states.get(key)
        if state is None:
            state = ForwardingModelState(VectorSmoother(self.alpha))
            self._states[key] = state
        alarm: Optional[ForwardingAlarm] = None
        reference = state.reference
        if state.bins_seen >= self.warmup_bins and reference:
            correlation = pearson_correlation(pattern, reference)
            if correlation < self.tau:
                alarm = ForwardingAlarm(
                    timestamp=timestamp,
                    router_ip=key[0],
                    destination=key[1],
                    correlation=correlation,
                    responsibilities=responsibility_scores(
                        pattern, reference, correlation
                    ),
                    pattern=dict(pattern),
                    reference=dict(reference),
                )
                state.alarms_raised += 1
        state.smoother.update(pattern)
        return alarm

    def observe_bin(
        self, timestamp: int, patterns: Dict[ModelKey, Pattern]
    ) -> List[ForwardingAlarm]:
        """Process every model of one time bin; return its alarms.

        This is the scalar reference loop; the engine's batched
        equivalent lives in
        :class:`~repro.core.arena.ForwardingArena`, which is held
        bit-identical to this method by the hypothesis property in
        ``tests/test_core_arena.py``.
        """
        alarms = []
        for key in sorted(patterns):
            alarm = self.observe(timestamp, key, patterns[key])
            if alarm is not None:
                alarms.append(alarm)
        return alarms
