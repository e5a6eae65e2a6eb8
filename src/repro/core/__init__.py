"""The paper's primary contribution: delay + forwarding anomaly detection.

This package is the production path.  Its modules map onto the paper's
sections:

* :mod:`repro.core.diversity` — probe-diversity filtering (§4.3)
* :mod:`repro.core.delaydetector` — the delay method's constants and
  batch Eq. 6 / winsorizing kernels (§4.2)
* :mod:`repro.core.forwarding` — forwarding-model key types, τ and
  Eq. 9 responsibilities (§5)
* :mod:`repro.core.alarms` — the alarm and detected-event records
  (§4.2.3, §5.2, §6)
* :mod:`repro.core.arena` — structure-of-arrays detector state and the
  vectorized per-bin detection kernels (Eq. 6–9 in batch form)
* :mod:`repro.core.fused` — the fused columnar spine: flat-array bin
  payloads
* :mod:`repro.core.engine` — the vectorized in-process engine
* :mod:`repro.core.pipeline` — configuration, per-bin result types and
  the one-call :func:`analyze_campaign` driver
* :mod:`repro.core.checkpoint` — durable snapshots for crash/resume
* :mod:`repro.core.graphs` — alarm connected components (Figures 8/12)
* :mod:`repro.core.correlate` — cross-method event correlation (§6)
* :mod:`repro.core.alias` — router alias resolution
* :mod:`repro.core.sensitivity` — Eq. 11 detectability bounds (App. B)

The scalar detectors, the serial per-bin ``Pipeline`` and the object
aggregator they are held to live in :mod:`repro.reference`; this facade
still resolves their names there.

Per-stage wall-clock instrumentation (``StageTimer``/``STAGES``/
``NULL_TIMER``) is re-exported from :mod:`repro.obs.tracing`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AlarmAggregator": "repro.reference.report",
    "AliasResolution": "repro.core.alias",
    "AsTimeSeries": "repro.reference.report",
    "BinResult": "repro.core.pipeline",
    "CampaignAnalysis": "repro.core.pipeline",
    "CampaignStats": "repro.core.pipeline",
    "ComponentSummary": "repro.core.graphs",
    "CorrelatedEvent": "repro.core.correlate",
    "DEFAULT_TAU": "repro.core.forwarding",
    "DelayAlarm": "repro.core.alarms",
    "DelayArena": "repro.core.arena",
    "DelayChangeDetector": "repro.reference.pipeline",
    "DelayTable": "repro.core.checkpoint",
    "DetectedEvent": "repro.core.alarms",
    "DiversityFilter": "repro.core.diversity",
    "DiversityVerdict": "repro.core.diversity",
    "Engine": "repro.core.engine",
    "EngineSnapshot": "repro.core.checkpoint",
    "ForwardingAlarm": "repro.core.alarms",
    "ForwardingAnomalyDetector": "repro.reference.pipeline",
    "ForwardingArena": "repro.core.arena",
    "ForwardingModelState": "repro.reference.pipeline",
    "ForwardingTable": "repro.core.checkpoint",
    "FusedBin": "repro.core.fused",
    "Link": "repro.core.alarms",
    "LinkDelayState": "repro.reference.pipeline",
    "LinkInterner": "repro.core.arena",
    "LinkObservations": "repro.reference.diffrtt",
    "MIN_ASNS": "repro.core.diversity",
    "MIN_ENTROPY": "repro.core.diversity",
    "MIN_SHIFT_MS": "repro.core.delaydetector",
    "NULL_TIMER": "repro.obs.tracing",
    "Pipeline": "repro.reference.pipeline",
    "PipelineConfig": "repro.core.pipeline",
    "SNAPSHOT_VERSION": "repro.core.checkpoint",
    "STAGES": "repro.obs.tracing:STAGE_NAMES",
    "SensitivityPoint": "repro.core.sensitivity",
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
    "deviation_score": "repro.reference.pipeline",
    "differential_rtts": "repro.reference.pipeline",
    "evaluate_resolution": "repro.core.alias",
    "extract_bin_fused": "repro.core.fused",
    "forwarding_patterns": "repro.reference.pipeline",
    "load_snapshot": "repro.core.checkpoint",
    "resolve_aliases": "repro.core.alias",
    "responsibility_scores": "repro.core.forwarding",
    "run_checkpointed": "repro.core.checkpoint",
    "save_snapshot": "repro.core.checkpoint",
    "sensitivity_point": "repro.core.sensitivity",
    "sensitivity_table": "repro.core.sensitivity",
    "source_digest_of": "repro.core.checkpoint",
    "string_ranks": "repro.core.fused",
    "summarize_component": "repro.core.graphs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
