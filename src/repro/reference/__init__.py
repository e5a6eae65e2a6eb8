"""The paper-shaped reference implementation: the oracle, by name.

Every method of the paper exists twice.  Production — columnar decode,
:class:`~repro.core.engine.Engine`, the alarm store and
:class:`~repro.service.query.StoreQuery` — is what every command,
``create_pipeline`` and ``analyze_campaign`` run.  This package holds
the same equations as the paper states them, one object at a time, and
the identity tests and benchmarks hold production to it, bit for bit:
:mod:`~repro.reference.ingest` (JSONL reader, object stream),
:mod:`~repro.reference.diffrtt` (per-link differential-RTT container),
:mod:`~repro.reference.pipeline` (scalar detectors, serial
:class:`Pipeline`) and :mod:`~repro.reference.report` (§6 aggregation,
§8 report).  It imports what both sides share from production, never
the other way round; no command imports it, and a test names it:
``analyze_campaign(..., pipeline=Pipeline(config))``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AlarmAggregator": "repro.reference.report",
    "AsTimeSeries": "repro.reference.report",
    "DelayChangeDetector": "repro.reference.pipeline",
    "ExponentialSmoother": "repro.reference.pipeline",
    "ForwardingAnomalyDetector": "repro.reference.pipeline",
    "ForwardingModelState": "repro.reference.pipeline",
    "InternetHealthReport": "repro.reference.report",
    "LinkDelayState": "repro.reference.pipeline",
    "LinkObservations": "repro.reference.diffrtt",
    "Pipeline": "repro.reference.pipeline",
    "TracerouteStream": "repro.reference.ingest",
    "VectorSmoother": "repro.reference.pipeline",
    "deviation_score": "repro.reference.pipeline",
    "differential_rtts": "repro.reference.pipeline",
    "forwarding_patterns": "repro.reference.pipeline",
    "read_traceroutes": "repro.reference.ingest",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
