"""Fault-tolerant RIPE Atlas connector layer (live-data ingestion).

Everything else in the repository replays local JSONL files; this
subpackage is the layer that turns the reproduction into a continuously
running observatory against the real RIPE Atlas platform — and its
spine is *fault tolerance*, not fetching:

* :mod:`~repro.atlas.connectors.transport` — a stdlib-``urllib`` HTTP
  transport behind a narrow injectable interface, a typed error
  taxonomy (retryable 429/5xx/network vs fatal 4xx), exponential
  backoff with deterministic seeded jitter, ``Retry-After`` honoured, a
  token-bucket rate limiter, and a circuit breaker;
* :mod:`~repro.atlas.connectors.cursors` — durable resumable
  pagination cursors (:mod:`repro.binfmt` files) so a killed fetch
  resumes its window exactly once;
* :mod:`~repro.atlas.connectors.results` — the measurement-results
  connector, normalizing API pages into the canonical traceroute JSONL
  consumed by :class:`~repro.atlas.stream.TracerouteStream` and
  ``monitor --follow``;
* :mod:`~repro.atlas.connectors.probes` — the ``meta-latest`` probe
  metadata connector: ASN→probe map, and live refresh of the IP→AS
  prefix table;
* :mod:`~repro.atlas.connectors.testing` — scripted fake transport,
  record/replay fixtures and programmable fault schedules, so every
  retry/backoff/cursor path is provable offline.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "API_KEY_ENV": "repro.atlas.connectors.transport",
    "CURSOR_VERSION": "repro.atlas.connectors.cursors",
    "CircuitBreaker": "repro.atlas.connectors.transport",
    "CircuitOpenError": "repro.atlas.connectors.transport",
    "ClientStats": "repro.atlas.connectors.transport",
    "CursorError": "repro.atlas.connectors.cursors",
    "DEFAULT_BASE_URL": "repro.atlas.connectors.results",
    "DEFAULT_PAGE_SIZE": "repro.atlas.connectors.results",
    "FatalError": "repro.atlas.connectors.transport",
    "Fault": "repro.atlas.connectors.testing",
    "FaultSchedule": "repro.atlas.connectors.testing",
    "FaultTolerantClient": "repro.atlas.connectors.transport",
    "FetchCursor": "repro.atlas.connectors.cursors",
    "FetchReport": "repro.atlas.connectors.results",
    "HttpResponse": "repro.atlas.connectors.transport",
    "META_LATEST_URL": "repro.atlas.connectors.probes",
    "MalformedResponseError": "repro.atlas.connectors.transport",
    "ProbeInfo": "repro.atlas.connectors.probes",
    "ProbeSet": "repro.atlas.connectors.probes",
    "RetryBudgetExceeded": "repro.atlas.connectors.transport",
    "RetryPolicy": "repro.atlas.connectors.transport",
    "RetryableError": "repro.atlas.connectors.transport",
    "ScriptedTransport": "repro.atlas.connectors.testing",
    "TokenBucket": "repro.atlas.connectors.transport",
    "Transport": "repro.atlas.connectors.transport",
    "TransportError": "repro.atlas.connectors.transport",
    "UrllibTransport": "repro.atlas.connectors.transport",
    "asn_probe_map": "repro.atlas.connectors.probes",
    "cursor_key": "repro.atlas.connectors.cursors",
    "fetch_probes": "repro.atlas.connectors.probes",
    "fetch_results": "repro.atlas.connectors.results",
    "load_api_key": "repro.atlas.connectors.transport",
    "load_cursor": "repro.atlas.connectors.cursors",
    "load_fixture": "repro.atlas.connectors.testing",
    "paged_results_fixture": "repro.atlas.connectors.testing",
    "parse_probe_dump": "repro.atlas.connectors.probes",
    "parse_retry_after": "repro.atlas.connectors.transport",
    "prefix_entries": "repro.atlas.connectors.probes",
    "probe_dump_fixture": "repro.atlas.connectors.testing",
    "refresh_mapper": "repro.atlas.connectors.probes",
    "results_url": "repro.atlas.connectors.results",
    "save_cursor": "repro.atlas.connectors.cursors",
    "usable_probes": "repro.atlas.connectors.probes",
    "write_fixture": "repro.atlas.connectors.testing",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
