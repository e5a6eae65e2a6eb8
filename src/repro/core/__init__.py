"""The paper's primary contribution: delay + forwarding anomaly detection.

Modules map one-to-one onto the paper's sections:

* :mod:`repro.core.diffrtt` — differential RTT computation (§4.2.1)
* :mod:`repro.core.diversity` — probe-diversity filtering (§4.3)
* :mod:`repro.core.delaydetector` — median/Wilson characterisation,
  CI-overlap anomaly test, Eq. 6 deviation, smoothed references (§4.2)
* :mod:`repro.core.forwarding` — packet-forwarding model, ρ < τ test,
  Eq. 9 responsibilities (§5)
* :mod:`repro.core.events` — per-AS aggregation and Eq. 10 magnitude (§6)
* :mod:`repro.core.graphs` — alarm connected components (Figures 8/12)
* :mod:`repro.core.sensitivity` — Eq. 11 detectability bounds (App. B)
* :mod:`repro.core.pipeline` — the end-to-end per-bin reference engine
* :mod:`repro.core.sharding` — consistent link/router shard assignment
* :mod:`repro.core.arena` — structure-of-arrays detector state and the
  vectorized per-bin detection kernels (Eq. 6–9 in batch form)
* :mod:`repro.core.fused` — the fused columnar spine: flat-array bin
  payloads, shard partitioning and the shared-memory transport
* :mod:`repro.core.engine` — the sharded, vectorized execution engine

Per-stage wall-clock instrumentation (``StageTimer``/``STAGES``/
``NULL_TIMER``) is re-exported from :mod:`repro.obs.tracing`.
"""

from repro.core.alarms import (
    UNRESPONSIVE,
    DelayAlarm,
    ForwardingAlarm,
    Link,
)
from repro.core.alias import (
    AliasResolution,
    evaluate_resolution,
    resolve_aliases,
)
from repro.core.arena import (
    DelayArena,
    ForwardingArena,
    LinkInterner,
)
from repro.core.checkpoint import (
    SNAPSHOT_VERSION,
    DelayTable,
    EngineSnapshot,
    ForwardingTable,
    SnapshotError,
    config_fingerprint,
    load_snapshot,
    run_checkpointed,
    save_snapshot,
    source_digest_of,
)
from repro.core.correlate import CorrelatedEvent, correlate_events
from repro.core.delaydetector import (
    MIN_SHIFT_MS,
    DelayChangeDetector,
    LinkDelayState,
    deviation_score,
)
from repro.core.diffrtt import LinkObservations, differential_rtts
from repro.core.diversity import (
    MIN_ASNS,
    MIN_ENTROPY,
    DiversityFilter,
    DiversityVerdict,
)
from repro.core.engine import (
    ShardedPipeline,
    create_pipeline,
)
from repro.core.events import (
    AlarmAggregator,
    AsTimeSeries,
    DetectedEvent,
)
from repro.core.forwarding import (
    DEFAULT_TAU,
    ForwardingAnomalyDetector,
    ForwardingModelState,
    forwarding_patterns,
    responsibility_scores,
)
from repro.core.graphs import (
    ComponentSummary,
    alarm_graph,
    component_of,
    components_by_size,
    summarize_component,
)
from repro.core.fused import (
    SHM_PREFIX,
    FusedBin,
    extract_bin_fused,
    partition_fused,
    string_ranks,
)
from repro.core.pipeline import (
    BinResult,
    CampaignAnalysis,
    CampaignStats,
    Pipeline,
    PipelineConfig,
    TrackedLinkPoint,
    analyze_campaign,
)
from repro.core.sensitivity import (
    SensitivityPoint,
    sensitivity_point,
    sensitivity_table,
)
from repro.core.sharding import (
    shard_layout,
    shard_of,
    stable_hash64,
)
from repro.obs.tracing import (
    NULL_TIMER,
    STAGE_NAMES as STAGES,
    StageAccumulator as StageTimer,
)

__all__ = [
    "AlarmAggregator",
    "AliasResolution",
    "AsTimeSeries",
    "BinResult",
    "CampaignAnalysis",
    "CampaignStats",
    "ComponentSummary",
    "CorrelatedEvent",
    "DEFAULT_TAU",
    "DelayAlarm",
    "DelayArena",
    "DelayChangeDetector",
    "DelayTable",
    "DetectedEvent",
    "DiversityFilter",
    "DiversityVerdict",
    "EngineSnapshot",
    "ForwardingAlarm",
    "ForwardingAnomalyDetector",
    "ForwardingArena",
    "ForwardingModelState",
    "ForwardingTable",
    "FusedBin",
    "Link",
    "LinkDelayState",
    "LinkInterner",
    "LinkObservations",
    "MIN_ASNS",
    "MIN_ENTROPY",
    "MIN_SHIFT_MS",
    "NULL_TIMER",
    "Pipeline",
    "PipelineConfig",
    "SHM_PREFIX",
    "SNAPSHOT_VERSION",
    "STAGES",
    "SensitivityPoint",
    "ShardedPipeline",
    "SnapshotError",
    "StageTimer",
    "TrackedLinkPoint",
    "UNRESPONSIVE",
    "alarm_graph",
    "analyze_campaign",
    "component_of",
    "config_fingerprint",
    "correlate_events",
    "components_by_size",
    "create_pipeline",
    "deviation_score",
    "differential_rtts",
    "evaluate_resolution",
    "extract_bin_fused",
    "forwarding_patterns",
    "partition_fused",
    "load_snapshot",
    "resolve_aliases",
    "responsibility_scores",
    "run_checkpointed",
    "save_snapshot",
    "sensitivity_point",
    "sensitivity_table",
    "shard_layout",
    "shard_of",
    "source_digest_of",
    "string_ranks",
    "stable_hash64",
    "summarize_component",
]
