"""End-to-end analysis pipeline (paper §4.2 steps 1-5 plus §5 and §6).

:class:`Pipeline` consumes time-binned traceroutes and drives both
detection methods per bin:

1. compute differential RTTs per link (§4.2.1),
2. discard links lacking probe diversity (§4.3),
3. characterise the surviving links' distributions (median + Wilson CI),
4. compare against the smoothed normal references and raise delay alarms
   (§4.2.3), then update the references (§4.2.4),
5. extract per-(router, destination) forwarding patterns and raise
   forwarding alarms (§5),

and finally aggregates all alarms into per-AS severity series (§6) when
an IP→AS mapper is provided.

``track_links`` requests the full per-bin median/CI/reference series for
chosen links — the material of Figures 2, 7 and 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.atlas.columnar import BatchView, TracerouteBatch
from repro.atlas.model import Traceroute
from repro.atlas.stream import DEFAULT_BIN_S, binned_payloads
from repro.core.alarms import DelayAlarm, ForwardingAlarm, Link
from repro.core.delaydetector import (
    MIN_SHIFT_MS,
    DelayChangeDetector,
)
from repro.core.diffrtt import differential_rtts
from repro.core.diversity import MIN_ASNS, MIN_ENTROPY, DiversityFilter
from repro.core.events import AlarmAggregator
from repro.core.forwarding import (
    DEFAULT_TAU,
    DEFAULT_WARMUP_BINS,
    ForwardingAnomalyDetector,
    forwarding_patterns,
)
from repro.net.asmap import AsMapper
from repro.stats.smoothing import DEFAULT_ALPHA
from repro.stats.wilson import (
    DEFAULT_Z,
    WilsonInterval,
    median_confidence_interval,
)

@dataclass
class PipelineConfig:
    """All tunables of the analysis, with the paper's defaults.

    ``n_shards`` only selects what
    :func:`~repro.core.engine.create_pipeline` builds: 1 (the default)
    the serial :class:`Pipeline`, anything else the
    :class:`~repro.core.engine.Engine`.  Neither reads it, so it never
    changes output and is excluded from the checkpoint fingerprint.
    """

    bin_s: int = DEFAULT_BIN_S
    alpha: float = DEFAULT_ALPHA
    z: float = DEFAULT_Z
    min_shift_ms: float = MIN_SHIFT_MS
    min_asns: int = MIN_ASNS
    min_entropy: float = MIN_ENTROPY
    tau: float = DEFAULT_TAU
    forwarding_warmup: int = DEFAULT_WARMUP_BINS
    winsorize: bool = True
    seed: int = 0
    track_links: Set[Link] = field(default_factory=set)
    n_shards: int = 1

    def __post_init__(self) -> None:
        if self.bin_s <= 0:
            raise ValueError(f"bin size must be positive: {self.bin_s}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1: {self.n_shards}")


@dataclass(frozen=True)
class TrackedLinkPoint:
    """One bin of a tracked link's differential-RTT series.

    ``mean`` and ``sample_std`` describe the raw sample distribution —
    kept alongside the median statistics so the Figure 3 median-vs-mean
    normality comparison can be reproduced.
    """

    timestamp: int
    observed: Optional[WilsonInterval]  # None: no samples this bin
    reference: Optional[WilsonInterval]  # None: warming up
    alarmed: bool
    accepted: bool  # passed the diversity filter
    n_probes: int
    mean: Optional[float] = None
    sample_std: Optional[float] = None


@dataclass
class BinResult:
    """Everything the pipeline produced for one time bin."""

    timestamp: int
    n_traceroutes: int
    n_links_observed: int
    n_links_analyzed: int
    delay_alarms: List[DelayAlarm]
    forwarding_alarms: List[ForwardingAlarm]


@dataclass
class CampaignStats:
    """Cumulative statistics matching the §7 headline numbers."""

    links_observed: int = 0
    links_analyzed: int = 0
    links_alarmed: int = 0
    max_probes_per_link_sum: int = 0
    forwarding_models: int = 0
    forwarding_routers: int = 0
    mean_next_hops: float = 0.0
    bins_processed: int = 0
    traceroutes_processed: int = 0

    @property
    def fraction_links_alarmed(self) -> float:
        """Share of analyzed links with ≥1 delay alarm (paper: 33 %)."""
        if self.links_analyzed == 0:
            return 0.0
        return self.links_alarmed / self.links_analyzed

    @property
    def mean_probes_per_link(self) -> float:
        if self.links_analyzed == 0:
            return 0.0
        return self.max_probes_per_link_sum / self.links_analyzed


class Pipeline:
    """Stateful per-bin analysis engine (the scalar reference).

    This is the paper-shaped implementation: per-link scalar detectors
    (:class:`~repro.core.delaydetector.DelayChangeDetector`,
    :class:`~repro.core.forwarding.ForwardingAnomalyDetector`) driven in
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
        from repro.core.delaydetector import LinkDelayState

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
        from repro.core.forwarding import ForwardingModelState
        from repro.stats.smoothing import VectorSmoother

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


@dataclass
class CampaignAnalysis:
    """Pipeline results plus the §6 AS-level aggregation."""

    bin_results: List[BinResult]
    aggregator: AlarmAggregator
    pipeline: Pipeline

    @property
    def delay_alarms(self) -> List[DelayAlarm]:
        return [a for r in self.bin_results for a in r.delay_alarms]

    @property
    def forwarding_alarms(self) -> List[ForwardingAlarm]:
        return [a for r in self.bin_results for a in r.forwarding_alarms]

    def stats(self) -> CampaignStats:
        return self.pipeline.stats()


def analyze_campaign(
    traceroutes: Iterable[Traceroute],
    mapper: AsMapper,
    config: Optional[PipelineConfig] = None,
    start: Optional[int] = None,
    checkpoint_path: Optional[object] = None,
    checkpoint_every: int = 1,
    checkpoint_source: Optional[object] = None,
    profiler: Optional[object] = None,
    pipeline: Optional[object] = None,
) -> CampaignAnalysis:
    """Convenience driver: pipeline + AS aggregation in one call.

    ``start`` anchors the aggregation bin clock; by default the first
    processed bin's timestamp is used.  Without ``pipeline`` the engine
    is :func:`~repro.core.engine.create_pipeline` of *config*: the
    serial reference :class:`Pipeline` at the library defaults, the
    :class:`~repro.core.engine.Engine` with ``config.n_shards > 1``;
    output is bit-identical either way.  *traceroutes* may also be a
    columnar :class:`~repro.atlas.columnar.TracerouteBatch` (e.g. from
    the bin cache): the engine consumes the columns directly and the
    serial pipeline materialises objects per bin.

    ``pipeline`` hands in a fresh engine to drive instead (*config* is
    then unused), with its own profiler/tracer attached before the
    call.  The CLI's ``analyze`` does not come through here: it runs
    its :class:`~repro.core.engine.Engine` directly and reports from
    alarm-store columns, with this function (and the
    :class:`~repro.core.events.AlarmAggregator` it fills) as the
    oracle it is tested against.

    With ``checkpoint_path`` the campaign runs through the resumable
    driver (:func:`~repro.core.checkpoint.run_checkpointed`): detector
    state and accumulated results are snapshotted to that path every
    ``checkpoint_every`` bins, and an interrupted analysis restarted
    with the same arguments resumes from the newest valid checkpoint —
    producing bit-identical results either way.  ``checkpoint_source``
    (the campaign file *traceroutes* came from, when there is one)
    binds the checkpoint to its input so a reused checkpoint path never
    silently merges two campaigns.

    ``profiler`` (a :class:`~repro.obs.tracing.StageAccumulator`) is set
    as the stage hook of the engine this call builds: the engine
    charges ``extract``/``detect`` to it, the serial
    reference has no stages and never reads it.  Write-only telemetry;
    it cannot change analysis output.
    """
    # Imported here, not at module level: the engine imports this module
    # for the result types, so a top-level import would be circular.
    from repro.core.engine import create_pipeline

    if pipeline is None:
        pipeline = create_pipeline(config)
        if profiler is not None:
            pipeline.profiler = profiler
    if checkpoint_path is not None:
        from repro.core.checkpoint import run_checkpointed

        bin_results, _ = run_checkpointed(
            pipeline, traceroutes, checkpoint_path,
            every_bins=checkpoint_every,
            source_path=checkpoint_source,
        )
    else:
        bin_results = pipeline.run(traceroutes)
    anchor = start
    if anchor is None:
        anchor = bin_results[0].timestamp if bin_results else 0
    aggregator = AlarmAggregator(
        mapper, bin_s=pipeline.config.bin_s, start=anchor
    )
    for result in bin_results:
        aggregator.add_alarms(result.delay_alarms, result.forwarding_alarms)
    if bin_results:
        aggregator.close(bin_results[-1].timestamp)
    return CampaignAnalysis(
        bin_results=bin_results, aggregator=aggregator, pipeline=pipeline
    )
