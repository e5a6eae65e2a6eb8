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

from repro._lazy import lazy_exports

_EXPORTS = {
    "AlarmAggregator": "repro.core.events",
    "AliasResolution": "repro.core.alias",
    "AsTimeSeries": "repro.core.events",
    "BinResult": "repro.core.pipeline",
    "CampaignAnalysis": "repro.core.pipeline",
    "CampaignStats": "repro.core.pipeline",
    "ComponentSummary": "repro.core.graphs",
    "CorrelatedEvent": "repro.core.correlate",
    "DEFAULT_TAU": "repro.core.forwarding",
    "DelayAlarm": "repro.core.alarms",
    "DelayArena": "repro.core.arena",
    "DelayChangeDetector": "repro.core.delaydetector",
    "DelayTable": "repro.core.checkpoint",
    "DetectedEvent": "repro.core.events",
    "DiversityFilter": "repro.core.diversity",
    "DiversityVerdict": "repro.core.diversity",
    "EngineSnapshot": "repro.core.checkpoint",
    "ForwardingAlarm": "repro.core.alarms",
    "ForwardingAnomalyDetector": "repro.core.forwarding",
    "ForwardingArena": "repro.core.arena",
    "ForwardingModelState": "repro.core.forwarding",
    "ForwardingTable": "repro.core.checkpoint",
    "FusedBin": "repro.core.fused",
    "Link": "repro.core.alarms",
    "LinkDelayState": "repro.core.delaydetector",
    "LinkInterner": "repro.core.arena",
    "LinkObservations": "repro.core.diffrtt",
    "MIN_ASNS": "repro.core.diversity",
    "MIN_ENTROPY": "repro.core.diversity",
    "MIN_SHIFT_MS": "repro.core.delaydetector",
    "NULL_TIMER": "repro.obs.tracing",
    "Pipeline": "repro.core.pipeline",
    "PipelineConfig": "repro.core.pipeline",
    "SHM_PREFIX": "repro.core.fused",
    "SNAPSHOT_VERSION": "repro.core.checkpoint",
    "STAGES": "repro.obs.tracing:STAGE_NAMES",
    "SensitivityPoint": "repro.core.sensitivity",
    "ShardedPipeline": "repro.core.engine",
    "SnapshotError": "repro.core.checkpoint",
    "StageTimer": "repro.obs.tracing:StageAccumulator",
    "TrackedLinkPoint": "repro.core.pipeline",
    "UNRESPONSIVE": "repro.core.alarms",
    "alarm_graph": "repro.core.graphs",
    "analyze_campaign": "repro.core.pipeline",
    "component_of": "repro.core.graphs",
    "config_fingerprint": "repro.core.checkpoint",
    "correlate_events": "repro.core.correlate",
    "components_by_size": "repro.core.graphs",
    "create_pipeline": "repro.core.engine",
    "deviation_score": "repro.core.delaydetector",
    "differential_rtts": "repro.core.diffrtt",
    "evaluate_resolution": "repro.core.alias",
    "extract_bin_fused": "repro.core.fused",
    "forwarding_patterns": "repro.core.forwarding",
    "partition_fused": "repro.core.fused",
    "load_snapshot": "repro.core.checkpoint",
    "resolve_aliases": "repro.core.alias",
    "responsibility_scores": "repro.core.forwarding",
    "run_checkpointed": "repro.core.checkpoint",
    "save_snapshot": "repro.core.checkpoint",
    "sensitivity_point": "repro.core.sensitivity",
    "sensitivity_table": "repro.core.sensitivity",
    "shard_layout": "repro.core.sharding",
    "shard_of": "repro.core.sharding",
    "source_digest_of": "repro.core.checkpoint",
    "string_ranks": "repro.core.fused",
    "stable_hash64": "repro.core.sharding",
    "summarize_component": "repro.core.graphs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
