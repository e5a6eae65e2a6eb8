"""The analysis's configuration, results and one-call driver (§4-§6).

:class:`PipelineConfig` holds every tunable with the paper's defaults;
:class:`BinResult`, :class:`TrackedLinkPoint` and :class:`CampaignStats`
are what a detection run produces per bin, per tracked link and over
the campaign.  The production :class:`~repro.core.engine.Engine`, the
checkpoint and the alarm store share them with the paper-shaped
reference (:class:`~repro.reference.pipeline.Pipeline`).

:func:`analyze_campaign` runs a whole campaign through the engine and
aggregates its alarms into per-AS severity series (§6) for an IP→AS
mapper — the library's one-call driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Set

from repro.atlas.model import Traceroute
from repro.atlas.stream import DEFAULT_BIN_S
from repro.core.alarms import DelayAlarm, ForwardingAlarm, Link
from repro.core.delaydetector import MIN_SHIFT_MS
from repro.core.diversity import MIN_ASNS, MIN_ENTROPY
from repro.core.forwarding import DEFAULT_TAU, DEFAULT_WARMUP_BINS
from repro.net.asmap import AsMapper
from repro.stats.smoothing import DEFAULT_ALPHA
from repro.stats.wilson import DEFAULT_Z, WilsonInterval

if TYPE_CHECKING:
    from repro.core.engine import Engine
    from repro.reference.report import AlarmAggregator


@dataclass
class PipelineConfig:
    """All tunables of the analysis, with the paper's defaults.

    ``n_shards`` is accepted for callers that still pass it and read by
    nothing: it never changes output and is excluded from the
    checkpoint fingerprint.
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


@dataclass
class CampaignAnalysis:
    """Bin results, the §6 AS-level aggregation and the engine behind them.

    *pipeline* is the engine that produced *bin_results*: an
    :class:`~repro.core.engine.Engine` unless the caller handed
    :func:`analyze_campaign` the reference pipeline by name.
    """

    bin_results: List[BinResult]
    aggregator: AlarmAggregator
    pipeline: Engine

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
    """Convenience driver: engine + AS aggregation in one call.

    ``start`` anchors the aggregation bin clock; by default the first
    processed bin's timestamp is used.  The campaign runs on an
    :class:`~repro.core.engine.Engine` of *config*.  *traceroutes* may
    be traceroute objects or a columnar
    :class:`~repro.atlas.columnar.TracerouteBatch` (e.g. from the bin
    cache), which the engine consumes directly.

    ``pipeline`` hands in a fresh engine to drive instead (*config* is
    then unused), with its own profiler/tracer attached — or the
    reference :class:`~repro.reference.pipeline.Pipeline`, which
    identity tests name.  The alarms are aggregated by the reference
    :class:`~repro.reference.report.AlarmAggregator`; the CLI's
    ``analyze`` does not come through here.

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
    charges ``extract``/``detect`` to it.  Write-only telemetry; it
    cannot change analysis output.
    """
    # Imported here, not at module level: the engine imports this module
    # for the result types, so a top-level import would be circular.
    from repro.core.engine import Engine
    from repro.reference.report import AlarmAggregator

    if pipeline is None:
        pipeline = Engine(config)
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
