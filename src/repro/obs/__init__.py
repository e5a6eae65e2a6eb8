"""Zero-dependency observability: metrics, tracing, exposition, status.

The package threads through every layer of the reproduction without
ever influencing it:

* :mod:`repro.obs.metrics` — counters, gauges, exponential-bucket
  histograms in a thread-safe :class:`MetricsRegistry`; labeled
  children intern to flat slots so hot-path increments are one write.
* :mod:`repro.obs.tracing` — the canonical :data:`STAGE_NAMES` list,
  the :class:`StageAccumulator` behind ``--timings``/``timings/v1``,
  and the Chrome-trace :class:`Tracer` behind ``analyze --trace``.
* :mod:`repro.obs.expo` — Prometheus text-format v0.0.4 rendering and
  the conformance parser; served as ``/metrics`` by both HTTP tiers.
* :mod:`repro.obs.process` — the standard ``process_*`` families
  (RSS, CPU seconds, open fds, ...), read at scrape time only.
* :mod:`repro.obs.status` — the progress board behind ``/statusz``.

The invariant the whole package is built around: **observability never
changes detection output**.  No recorded clock value flows back into
computation; ``bench_obs.py`` asserts bit-identical engine results
with instrumentation enabled vs. disabled.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CONTENT_TYPE": "repro.obs.expo",
    "DEFAULT_LATENCY_BUCKETS": "repro.obs.metrics",
    "ChildSnapshot": "repro.obs.metrics",
    "Counter": "repro.obs.metrics",
    "ExpositionError": "repro.obs.expo",
    "FamilySnapshot": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricError": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "NULL_TIMER": "repro.obs.tracing",
    "NULL_TRACER": "repro.obs.tracing",
    "STAGE_NAMES": "repro.obs.tracing",
    "StageAccumulator": "repro.obs.tracing",
    "StatusBoard": "repro.obs.status",
    "Tracer": "repro.obs.tracing",
    "default_board": "repro.obs.status",
    "default_registry": "repro.obs.metrics",
    "exponential_buckets": "repro.obs.metrics",
    "format_value": "repro.obs.expo",
    "parse_text": "repro.obs.expo",
    "process_families": "repro.obs.process",
    "render_text": "repro.obs.expo",
    "set_default_board": "repro.obs.status",
    "set_default_registry": "repro.obs.metrics",
    "stage_order": "repro.obs.tracing",
    "validate": "repro.obs.expo",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
