"""Serving layer: persistent alarm store, query engine and HTTP APIs.

The paper's §8 deployment serves detection results to operators through
the Internet Health Report website and API.  This package is that
subsystem: :mod:`repro.service.store` persists alarms and AS-level
events in an append-only columnar binary store,
:mod:`repro.service.query` answers IHR queries from mmapped columns
bit-identically to the in-memory
:class:`~repro.reporting.ihr.InternetHealthReport`, and one HTTP
server exposes the IHR-style JSON routes: the asyncio server in
:mod:`repro.service.aio` (keep-alive, misses answered on the loop,
one process) answers every request through the
transport-free :class:`~repro.service.routes.ServiceState`
(:mod:`repro.service.routes`) with generation-keyed response caching
(:mod:`repro.service.cache`).
:mod:`repro.service.compact` keeps long-lived stores bounded: segment
merging plus tiered retention under the same generation-token cutover
discipline.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AlarmStore": "repro.service.store",
    "AlarmStoreWriter": "repro.service.store",
    "AsyncAlarmService": "repro.service.aio",
    "AsyncServerThread": "repro.service.aio",
    "CachedResponse": "repro.service.cache",
    "CompactionPolicy": "repro.service.compact",
    "CompactionReport": "repro.service.compact",
    "ResponseCache": "repro.service.cache",
    "ServiceState": "repro.service.routes",
    "StoreError": "repro.service.store",
    "StoreQuery": "repro.service.query",
    "append_analysis": "repro.service.store",
    "compact_store": "repro.service.compact",
    "if_none_match_matches": "repro.service.routes",
    "read_manifest": "repro.service.store",
    "run_async_server": "repro.service.aio",
    "start_async_server": "repro.service.aio",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
