"""The paper-shaped serial pipeline: scalar detectors and per-bin loop.

One traceroute object, one link and one forwarding model at a time, as
the paper states the methods: differential RTTs (§4.2.1), the Eq. 7/8
smoothers with the §4.2.4 warm-up, the delay-change detector (§4.2),
the forwarding model and its anomaly detector (§5), and
:class:`Pipeline`, the per-bin loop over them with the §4.3 diversity
filter.  The production :class:`~repro.core.engine.Engine` runs the same
arithmetic over columns and arrays and produces the same results,
tracked series and checkpoint bytes; the constants, types, batch
kernels and Eq. 9 both share are production's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.atlas.columnar import BatchView, TracerouteBatch
from repro.atlas.model import Traceroute
from repro.atlas.stream import binned_payloads
from repro.core.alarms import UNRESPONSIVE, DelayAlarm, ForwardingAlarm, Link
from repro.core.delaydetector import _EPSILON_MS, MIN_SHIFT_MS
from repro.core.diffrtt import LinkObservations
from repro.core.diversity import DiversityFilter
from repro.core.forwarding import (
    DEFAULT_TAU,
    DEFAULT_WARMUP_BINS,
    ModelKey,
    Pattern,
    responsibility_scores,
)
from repro.core.pipeline import (
    BinResult,
    CampaignStats,
    PipelineConfig,
    TrackedLinkPoint,
)
from repro.stats.correlation import pearson_correlation
from repro.stats.smoothing import (
    DEFAULT_ALPHA,
    PRUNE_BELOW,
    SEED_BINS,
    exponential_smoothing,
)
from repro.stats.wilson import (
    DEFAULT_Z,
    WilsonInterval,
    median_confidence_interval,
)


def differential_rtts(
    traceroutes: Iterable[Traceroute],
) -> Dict[Link, LinkObservations]:
    """Compute per-link differential RTT samples for one time bin.

    Links are ordered pairs of adjacent responding IPs at consecutive
    TTLs.  When a hop answers from several IPs (rare under Paris
    traceroute) every observed (ip_x, ip_y) combination is attributed its
    own samples, as the paper's link definition is purely IP-pair based.

    >>> from repro.atlas.model import make_traceroute
    >>> tr = make_traceroute(1, "s", "d", 0,
    ...     [[("A", 10.0), ("A", 11.0)], [("B", 14.0)]], from_asn=65001)
    >>> obs = differential_rtts([tr])
    >>> obs[("A", "B")].all_samples()
    [4.0, 3.0]
    """
    links: Dict[Link, LinkObservations] = {}
    for traceroute in traceroutes:
        for near_hop, far_hop in traceroute.adjacent_pairs():
            if near_hop.is_unresponsive or far_hop.is_unresponsive:
                continue
            for near_ip in near_hop.responding_ips:
                near_rtts = near_hop.rtts_for(near_ip)
                if not near_rtts:
                    continue
                for far_ip in far_hop.responding_ips:
                    if far_ip == near_ip:
                        continue
                    far_rtts = far_hop.rtts_for(far_ip)
                    if not far_rtts:
                        continue
                    link = (near_ip, far_ip)
                    samples = [
                        far - near for far in far_rtts for near in near_rtts
                    ]
                    observations = links.get(link)
                    if observations is None:
                        observations = LinkObservations(link)
                        links[link] = observations
                    observations.add(
                        traceroute.prb_id, traceroute.from_asn, samples
                    )
    return links


class ExponentialSmoother:
    """Stateful smoother with the paper's three-bin median warm-up.

    During warm-up (< ``seed_bins`` observations) :attr:`value` is None and
    the detector must not raise alarms; once the seed median is formed the
    smoother behaves as plain exponential smoothing.

    >>> smoother = ExponentialSmoother(alpha=0.5)
    >>> [smoother.update(x) for x in (1.0, 2.0, 3.0)]
    [None, None, 2.0]
    >>> smoother.update(4.0)
    3.0
    """

    def __init__(
        self, alpha: float = DEFAULT_ALPHA, seed_bins: int = SEED_BINS
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1): {alpha}")
        if seed_bins < 1:
            raise ValueError(f"seed_bins must be >= 1: {seed_bins}")
        self.alpha = alpha
        self.seed_bins = seed_bins
        self._warmup: List[float] = []
        self._value: Optional[float] = None

    @property
    def value(self) -> Optional[float]:
        """Current reference value, or None while warming up."""
        return self._value

    @property
    def ready(self) -> bool:
        """True once the warm-up median has been formed."""
        return self._value is not None

    def update(self, observation: float) -> Optional[float]:
        """Feed one observation; return the updated reference (or None).

        The warm-up buffer is bounded to ``seed_bins`` entries: should
        ``seed_bins`` be lowered mid-warm-up, only the newest
        ``seed_bins`` observations seed the median and older ones are
        discarded, so the buffer can never grow without bound.
        """
        if self._value is None:
            warmup = self._warmup
            warmup.append(float(observation))
            if len(warmup) > self.seed_bins:
                del warmup[: len(warmup) - self.seed_bins]
            if len(warmup) >= self.seed_bins:
                self._value = float(np.median(warmup))
                warmup.clear()
            return self._value
        self._value = exponential_smoothing(
            self._value, float(observation), self.alpha
        )
        return self._value

    def preview(self, observation: float) -> Optional[float]:
        """Value :meth:`update` would produce, without mutating state."""
        if self._value is None:
            warmup = self._warmup + [float(observation)]
            if len(warmup) > self.seed_bins:
                del warmup[: len(warmup) - self.seed_bins]
            if len(warmup) >= self.seed_bins:
                return float(np.median(warmup))
            return None
        return exponential_smoothing(self._value, float(observation), self.alpha)


class VectorSmoother:
    """Exponential smoothing of a sparse non-negative vector (paper Eq. 8).

    Used by the forwarding model: keys are next-hop identifiers and values
    packet counts.  A hop unseen in the new observation decays towards
    zero; a hop first seen now enters with reference ``α·p`` (i.e. its
    previous reference was 0), exactly as Eq. 8 prescribes.

    Entries whose smoothed weight falls below *prune_below* are dropped to
    keep long-running references compact.
    """

    def __init__(
        self, alpha: float = DEFAULT_ALPHA, prune_below: float = PRUNE_BELOW
    ):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1): {alpha}")
        if prune_below < 0:
            raise ValueError(f"prune_below must be >= 0: {prune_below}")
        self.alpha = alpha
        self.prune_below = prune_below
        self._weights: dict = {}
        self._updates = 0

    @property
    def weights(self) -> dict:
        """Current smoothed vector as a key→weight mapping (copy)."""
        return dict(self._weights)

    @property
    def updates(self) -> int:
        """How many observations have been folded in."""
        return self._updates

    def __bool__(self) -> bool:
        return bool(self._weights)

    def update(self, observation: dict) -> dict:
        """Fold a key→count *observation* into the reference (Eq. 8)."""
        for value in observation.values():
            if value < 0:
                raise ValueError("forwarding pattern counts must be >= 0")
        if self._updates == 0:
            # First pattern becomes the reference verbatim; smoothing a
            # zero vector would otherwise suppress every hop by (1-α).
            self._weights = {k: float(v) for k, v in observation.items() if v > 0}
            self._updates = 1
            return self.weights
        # Sorted, not set order: the reference dict's key order reaches
        # alarm payloads and store bytes, which must not depend on
        # PYTHONHASHSEED.  Per-key arithmetic is independent.
        keys = sorted(self._weights.keys() | observation.keys(), key=str)
        updated = {}
        for key in keys:
            smoothed = exponential_smoothing(
                self._weights.get(key, 0.0),
                float(observation.get(key, 0.0)),
                self.alpha,
            )
            if smoothed >= self.prune_below:
                updated[key] = smoothed
        self._weights = updated
        self._updates += 1
        return self.weights


@dataclass
class LinkDelayState:
    """Smoothed normal reference of one link (median + CI bounds)."""

    median: ExponentialSmoother
    lower: ExponentialSmoother
    upper: ExponentialSmoother
    bins_seen: int = 0
    alarms_raised: int = 0

    @classmethod
    def create(cls, alpha: float, seed_bins: int = 3) -> "LinkDelayState":
        return cls(
            median=ExponentialSmoother(alpha, seed_bins),
            lower=ExponentialSmoother(alpha, seed_bins),
            upper=ExponentialSmoother(alpha, seed_bins),
        )

    @property
    def reference(self) -> Optional[WilsonInterval]:
        """Current normal reference, or None while warming up."""
        if not self.median.ready:
            return None
        return WilsonInterval(
            median=self.median.value,
            lower=self.lower.value,
            upper=self.upper.value,
            n=self.bins_seen,
        )

    def update(self, observed: WilsonInterval) -> None:
        self.median.update(observed.median)
        self.lower.update(observed.lower)
        self.upper.update(observed.upper)
        self.bins_seen += 1


def deviation_score(
    observed: WilsonInterval, reference: WilsonInterval
) -> float:
    """Eq. 6: gap between intervals relative to reference uncertainty.

    Returns 0 when the intervals overlap; positive otherwise, for both
    delay increases and decreases (the sign is carried separately).
    """
    if reference.upper < observed.lower:
        denominator = max(reference.upper - reference.median, _EPSILON_MS)
        return (observed.lower - reference.upper) / denominator
    if reference.lower > observed.upper:
        denominator = max(reference.median - reference.lower, _EPSILON_MS)
        return (reference.lower - observed.upper) / denominator
    return 0.0


def _winsorized(
    observed: WilsonInterval, reference: WilsonInterval
) -> WilsonInterval:
    """Clamp an anomalous observation to the reference's nearest CI bound.

    The clamped interval keeps the observation's own width but is
    translated so its median sits on the reference bound it violated —
    the standard winsorized (limited-influence) filter update.
    """
    if observed.median > reference.upper:
        offset = reference.upper - observed.median
    elif observed.median < reference.lower:
        offset = reference.lower - observed.median
    else:
        return observed
    return observed.shifted(offset)


class DelayChangeDetector:
    """Stateful per-link delay-change detector.

    Feed it, for every time bin, the differential-RTT samples of each
    link that survived the diversity filter; it returns the alarms for
    that bin and keeps per-link references up to date.
    """

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        z: float = DEFAULT_Z,
        min_shift_ms: float = MIN_SHIFT_MS,
        seed_bins: int = 3,
        winsorize: bool = True,
    ) -> None:
        if min_shift_ms < 0:
            raise ValueError(f"min_shift_ms must be >= 0: {min_shift_ms}")
        self.alpha = alpha
        self.z = z
        self.min_shift_ms = min_shift_ms
        self.seed_bins = seed_bins
        #: With the paper's plain Eq. 7 update, a multi-hour event with a
        #: large shift contaminates the reference by α·shift per bin; with
        #: sub-millimetre confidence intervals this produces a long tail of
        #: small opposite-direction alarms after the event.  Winsorizing the
        #: update — clamping an *anomalous* observation to the reference CI
        #: bound before smoothing — caps per-bin contamination at the CI
        #: width while leaving normal bins untouched.  Enabled by default;
        #: set False for the paper's literal update rule (ablation bench).
        self.winsorize = winsorize
        self._states: Dict[Link, LinkDelayState] = {}

    # -- state inspection -----------------------------------------------------

    @property
    def n_links(self) -> int:
        """How many links have ever been characterised."""
        return len(self._states)

    def state_of(self, link: Link) -> Optional[LinkDelayState]:
        return self._states.get(link)

    def reference_of(self, link: Link) -> Optional[WilsonInterval]:
        state = self._states.get(link)
        return state.reference if state else None

    # -- detection -------------------------------------------------------------

    def observe(
        self,
        timestamp: int,
        link: Link,
        samples: Sequence[float],
        n_probes: int = 0,
        n_asns: int = 0,
    ) -> Optional[DelayAlarm]:
        """Process one link's bin; return an alarm or None.

        The reference is updated *after* the comparison, as in the
        paper's step (5); anomalous bins still enter the reference but a
        small α limits their influence.
        """
        if len(samples) == 0:
            return None
        observed = median_confidence_interval(samples, z=self.z)
        return self.observe_interval(
            timestamp, link, observed, n_probes=n_probes, n_asns=n_asns
        )

    def observe_interval(
        self,
        timestamp: int,
        link: Link,
        observed: WilsonInterval,
        n_probes: int = 0,
        n_asns: int = 0,
    ) -> Optional[DelayAlarm]:
        """Like :meth:`observe`, from a precomputed observed interval.

        The engine characterises all of a bin's links with one
        batched Wilson call and feeds the resulting intervals here; the
        detection and reference-update logic is shared with the sample
        path so both stay equivalent by construction.
        """
        state = self._states.get(link)
        if state is None:
            state = LinkDelayState.create(self.alpha, self.seed_bins)
            self._states[link] = state
        reference = state.reference
        alarm: Optional[DelayAlarm] = None
        anomalous = False
        if reference is not None:
            deviation = deviation_score(observed, reference)
            anomalous = deviation > 0.0
            shift = abs(observed.median - reference.median)
            if anomalous and shift >= self.min_shift_ms:
                direction = 1 if observed.median > reference.median else -1
                alarm = DelayAlarm(
                    timestamp=timestamp,
                    link=link,
                    observed=observed,
                    reference=reference,
                    deviation=deviation,
                    direction=direction,
                    n_probes=n_probes,
                    n_asns=n_asns,
                )
                state.alarms_raised += 1
        update = observed
        if self.winsorize and anomalous and reference is not None:
            update = _winsorized(observed, reference)
        state.update(update)
        return alarm


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


class Pipeline:
    """Stateful per-bin analysis engine (the scalar reference).

    This is the paper-shaped implementation: per-link scalar detectors
    (:class:`~repro.reference.pipeline.DelayChangeDetector`,
    :class:`~repro.reference.pipeline.ForwardingAnomalyDetector`) driven in
    readable Python loops.  It deliberately stays scalar — it is the
    *equivalence oracle* for the production engine: the arena-backed
    :class:`~repro.core.engine.Engine` must reproduce this
    pipeline's output bit for bit, which the property tests and the
    ``bench_detect``/``bench_engine_scaling`` benchmarks assert.
    """

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()
        cfg = self.config
        self.diversity = DiversityFilter(
            min_asns=cfg.min_asns, min_entropy=cfg.min_entropy, seed=cfg.seed
        )
        self.delay_detector = DelayChangeDetector(
            alpha=cfg.alpha,
            z=cfg.z,
            min_shift_ms=cfg.min_shift_ms,
            winsorize=cfg.winsorize,
        )
        self.forwarding_detector = ForwardingAnomalyDetector(
            tau=cfg.tau, alpha=cfg.alpha, warmup_bins=cfg.forwarding_warmup
        )
        self.tracked: Dict[Link, List[TrackedLinkPoint]] = {
            link: [] for link in cfg.track_links
        }
        self._links_seen: Set[Link] = set()
        self._links_analyzed: Set[Link] = set()
        self._links_alarmed: Set[Link] = set()
        self._probes_per_link: Dict[Link, int] = {}
        self._bins = 0
        self._traceroutes = 0
        self._last_timestamp: Optional[int] = None

    # -- per-bin processing ------------------------------------------------

    def process_bin(
        self, timestamp: int, traceroutes: Sequence[Traceroute]
    ) -> BinResult:
        """Run both methods over one closed time bin.

        Columnar input (:class:`~repro.atlas.columnar.TracerouteBatch`
        or a view) is materialised into objects first — the reference
        pipeline deliberately stays on the paper-shaped object path;
        the engine is the one that consumes columns natively.
        """
        if isinstance(traceroutes, (TracerouteBatch, BatchView)):
            traceroutes = traceroutes.to_traceroutes()
        observations = differential_rtts(traceroutes)
        self._links_seen.update(observations)
        delay_alarms: List[DelayAlarm] = []
        analyzed = 0
        for link in sorted(observations):
            link_obs = observations[link]
            verdict = self.diversity.evaluate(link_obs)
            tracked = link in self.tracked
            reference_before = (
                self.delay_detector.reference_of(link) if tracked else None
            )
            alarm = None
            if verdict.accepted:
                analyzed += 1
                self._links_analyzed.add(link)
                count = self._probes_per_link.get(link, 0)
                self._probes_per_link[link] = max(
                    count, len(verdict.kept_probes)
                )
                samples = link_obs.all_samples(verdict.kept_probes)
                alarm = self.delay_detector.observe(
                    timestamp,
                    link,
                    samples,
                    n_probes=len(verdict.kept_probes),
                    n_asns=verdict.n_asns,
                )
                if alarm is not None:
                    delay_alarms.append(alarm)
                    self._links_alarmed.add(link)
            if tracked:
                self._record_tracked(
                    link, timestamp, link_obs, verdict, alarm, reference_before
                )
        # Tracked links with no samples at all this bin still get a point
        # (the Figure 11b "missing samples" gap).
        for link in self.tracked:
            if link not in observations:
                self.tracked[link].append(
                    TrackedLinkPoint(
                        timestamp=timestamp,
                        observed=None,
                        reference=self.delay_detector.reference_of(link),
                        alarmed=False,
                        accepted=False,
                        n_probes=0,
                    )
                )

        patterns = forwarding_patterns(traceroutes)
        forwarding_alarms = self.forwarding_detector.observe_bin(
            timestamp, patterns
        )

        self._bins += 1
        self._traceroutes += len(traceroutes)
        self._last_timestamp = timestamp
        return BinResult(
            timestamp=timestamp,
            n_traceroutes=len(traceroutes),
            n_links_observed=len(observations),
            n_links_analyzed=analyzed,
            delay_alarms=delay_alarms,
            forwarding_alarms=forwarding_alarms,
        )

    def _record_tracked(
        self, link, timestamp, link_obs, verdict, alarm, reference_before
    ) -> None:
        if verdict.accepted:
            samples = link_obs.all_samples(verdict.kept_probes)
            n_probes = len(verdict.kept_probes)
        else:
            samples = link_obs.all_samples()
            n_probes = link_obs.n_probes
        observed = (
            median_confidence_interval(samples, z=self.config.z)
            if samples
            else None
        )
        mean = sample_std = None
        if samples:
            array = np.asarray(samples, dtype=float)
            mean = float(array.mean())
            sample_std = float(array.std())
        self.tracked[link].append(
            TrackedLinkPoint(
                timestamp=timestamp,
                observed=observed,
                reference=reference_before
                if reference_before is not None
                else self.delay_detector.reference_of(link),
                alarmed=alarm is not None,
                accepted=verdict.accepted,
                n_probes=n_probes,
                mean=mean,
                sample_std=sample_std,
            )
        )

    # -- whole-campaign driving ----------------------------------------------

    def run(
        self,
        traceroutes: Iterable[Traceroute],
        resume_from: Optional["EngineSnapshot"] = None,
    ) -> List[BinResult]:
        """Bin an unbounded traceroute iterable and process every bin.

        Columnar input is accepted (bins arrive as views and are
        materialised per bin by :meth:`process_bin`); object input is
        binned exactly as before.

        With *resume_from* (an
        :class:`~repro.core.checkpoint.EngineSnapshot`) the pipeline
        restores the snapshot's detector state first (when not already
        restored), skips every bin the snapshot already covers, and
        prepends the snapshot's stored per-bin results — feeding the
        same campaign yields exactly the uninterrupted run's results.
        """
        results: List[BinResult] = []
        skip: Optional[int] = None
        if resume_from is not None:
            from repro.core.checkpoint import prepare_resume

            results, skip = prepare_resume(self, resume_from)
        for start, payload in binned_payloads(
            traceroutes, bin_s=self.config.bin_s, skip_through=skip
        ):
            results.append(self.process_bin(start, payload))
        return results

    # -- checkpointing -------------------------------------------------------

    def snapshot(
        self, results: Optional[List[BinResult]] = None
    ) -> "EngineSnapshot":
        """Canonical durable state of this pipeline (sorted by key).

        Converts the scalar detectors' per-link smoothers and per-model
        vector smoothers into the engine-agnostic canonical form of
        :class:`~repro.core.checkpoint.EngineSnapshot` — restorable into
        this pipeline *or* into an :class:`~repro.core.engine.Engine`,
        which writes the same bytes.  Pass *results* to embed the
        per-bin results produced so far.
        """
        from repro.core.checkpoint import (
            DelayTable,
            EngineSnapshot,
            ForwardingTable,
            config_fingerprint,
        )

        detector = self.delay_detector
        seed_bins = detector.seed_bins
        links = sorted(detector._states)
        n = len(links)
        median = np.full(n, np.nan)
        lower = np.full(n, np.nan)
        upper = np.full(n, np.nan)
        warm_count = np.zeros(n, dtype=np.int64)
        bins_seen = np.zeros(n, dtype=np.int64)
        alarms_raised = np.zeros(n, dtype=np.int64)
        max_probes = np.zeros(n, dtype=np.int64)
        warm_offsets = np.zeros(n + 1, dtype=np.int64)
        warm_chunks: List[float] = []
        for row, link in enumerate(links):
            state = detector._states[link]
            if state.median.ready:
                median[row] = state.median.value
                lower[row] = state.lower.value
                upper[row] = state.upper.value
                warm_count[row] = seed_bins
            else:
                count = len(state.median._warmup)
                warm_count[row] = count
                warm_chunks.extend(state.median._warmup)
                warm_chunks.extend(state.lower._warmup)
                warm_chunks.extend(state.upper._warmup)
            bins_seen[row] = state.bins_seen
            alarms_raised[row] = state.alarms_raised
            max_probes[row] = self._probes_per_link.get(link, 0)
            warm_offsets[row + 1] = len(warm_chunks)
        delay = DelayTable(
            links=links,
            median=median,
            lower=lower,
            upper=upper,
            warm_count=warm_count,
            bins_seen=bins_seen,
            alarms_raised=alarms_raised,
            max_probes=max_probes,
            warm_offsets=warm_offsets,
            warm_values=np.asarray(warm_chunks, dtype=np.float64),
            seed_bins=seed_bins,
        )

        keys = sorted(self.forwarding_detector._states)
        m = len(keys)
        fwd_bins = np.zeros(m, dtype=np.int64)
        fwd_alarms = np.zeros(m, dtype=np.int64)
        ref_offsets = np.zeros(m + 1, dtype=np.int64)
        ref_hops: List[str] = []
        ref_weights: List[float] = []
        for row, key in enumerate(keys):
            state = self.forwarding_detector._states[key]
            fwd_bins[row] = state.bins_seen
            fwd_alarms[row] = state.alarms_raised
            reference = state.smoother._weights
            for hop in sorted(reference):
                ref_hops.append(hop)
                ref_weights.append(reference[hop])
            ref_offsets[row + 1] = len(ref_hops)
        forwarding = ForwardingTable(
            keys=keys,
            bins_seen=fwd_bins,
            alarms_raised=fwd_alarms,
            ref_offsets=ref_offsets,
            ref_hops=ref_hops,
            ref_weights=np.asarray(ref_weights, dtype=np.float64),
        )

        rounds = self.diversity.export_rounds()
        return EngineSnapshot(
            fingerprint=config_fingerprint(self.config),
            bins_processed=self._bins,
            traceroutes_processed=self._traceroutes,
            last_timestamp=self._last_timestamp,
            links_seen=sorted(self._links_seen),
            rounds={link: rounds[link] for link in sorted(rounds)},
            delay=delay,
            forwarding=forwarding,
            tracked={
                link: list(points)
                for link, points in sorted(self.tracked.items())
            },
            results=list(results) if results is not None else [],
        )

    def restore(self, snapshot: "EngineSnapshot") -> None:
        """Load a snapshot into this fresh pipeline.

        Rebuilds the scalar per-link smoothers and per-model vector
        smoothers from the canonical state — regardless of whether the
        snapshot came from this pipeline or the engine — so every
        subsequent bin is processed bit-identically to the uninterrupted
        run.  Raises :class:`~repro.core.checkpoint.SnapshotError` when
        the pipeline already holds state or the snapshot was taken under
        a different detection configuration.
        """
        from repro.core.checkpoint import SnapshotError, config_fingerprint

        if self._bins or self._links_seen or self.delay_detector._states:
            raise SnapshotError("restore requires a fresh pipeline")
        if snapshot.fingerprint != config_fingerprint(self.config):
            raise SnapshotError(
                "snapshot fingerprint does not match this configuration"
            )
        detector = self.delay_detector
        if snapshot.delay.seed_bins != detector.seed_bins:
            raise SnapshotError(
                f"snapshot seed_bins {snapshot.delay.seed_bins} != "
                f"{detector.seed_bins}"
            )
        table = snapshot.delay
        for row, link in enumerate(table.links):
            state = LinkDelayState.create(detector.alpha, detector.seed_bins)
            if not np.isnan(table.median[row]):
                state.median._value = float(table.median[row])
                state.lower._value = float(table.lower[row])
                state.upper._value = float(table.upper[row])
            else:
                start, stop = (
                    int(table.warm_offsets[row]),
                    int(table.warm_offsets[row + 1]),
                )
                count = (stop - start) // 3
                chunk = table.warm_values[start:stop]
                state.median._warmup = [float(v) for v in chunk[:count]]
                state.lower._warmup = [
                    float(v) for v in chunk[count : 2 * count]
                ]
                state.upper._warmup = [float(v) for v in chunk[2 * count :]]
            state.bins_seen = int(table.bins_seen[row])
            state.alarms_raised = int(table.alarms_raised[row])
            detector._states[link] = state
            self._links_analyzed.add(link)
            if state.alarms_raised > 0:
                self._links_alarmed.add(link)
            self._probes_per_link[link] = int(table.max_probes[row])
        fwd = snapshot.forwarding
        for row, key in enumerate(fwd.keys):
            smoother = VectorSmoother(self.forwarding_detector.alpha)
            start, stop = (
                int(fwd.ref_offsets[row]),
                int(fwd.ref_offsets[row + 1]),
            )
            smoother._weights = {
                hop: float(weight)
                for hop, weight in zip(
                    fwd.ref_hops[start:stop], fwd.ref_weights[start:stop]
                )
            }
            smoother._updates = int(fwd.bins_seen[row])
            state = ForwardingModelState(
                smoother, alarms_raised=int(fwd.alarms_raised[row])
            )
            self.forwarding_detector._states[key] = state
        self.diversity.restore_rounds(snapshot.rounds)
        for link, points in snapshot.tracked.items():
            self.tracked[link] = list(points)
        self._links_seen = set(snapshot.links_seen)
        self._bins = snapshot.bins_processed
        self._traceroutes = snapshot.traceroutes_processed
        self._last_timestamp = snapshot.last_timestamp

    # -- statistics -------------------------------------------------------------

    def stats(self) -> CampaignStats:
        """Cumulative campaign statistics (§7 headline numbers)."""
        return CampaignStats(
            links_observed=len(self._links_seen),
            links_analyzed=len(self._links_analyzed),
            links_alarmed=len(self._links_alarmed),
            max_probes_per_link_sum=sum(self._probes_per_link.values()),
            forwarding_models=self.forwarding_detector.n_models,
            forwarding_routers=self.forwarding_detector.n_routers,
            mean_next_hops=self.forwarding_detector.mean_next_hops(),
            bins_processed=self._bins,
            traceroutes_processed=self._traceroutes,
        )
