"""Serving layer: persistent alarm store, query engine and HTTP APIs.

The paper's §8 deployment serves detection results to operators through
the Internet Health Report website and API.  This package is that
subsystem: :mod:`repro.service.store` persists alarms and AS-level
events in an append-only columnar binary store,
:mod:`repro.service.query` answers IHR queries from mmapped columns
bit-identically to the in-memory
:class:`~repro.reporting.ihr.InternetHealthReport`, and one HTTP
server exposes the IHR-style JSON routes: the asyncio server in
:mod:`repro.service.aio` (keep-alive, single-flight coalescing,
``SO_REUSEPORT`` worker pools) answers every request through the
transport-free :class:`~repro.service.routes.ServiceState`
(:mod:`repro.service.routes`) with generation-keyed response caching
(:mod:`repro.service.cache`).
:mod:`repro.service.compact` keeps long-lived stores bounded: segment
merging plus tiered retention under the same generation-token cutover
discipline.
"""

from repro.service.aio import (
    AsyncAlarmService,
    AsyncServerThread,
    WorkerPool,
    run_async_server,
    start_async_server,
    start_worker_pool,
)
from repro.service.cache import CachedResponse, ResponseCache
from repro.service.compact import (
    CompactionPolicy,
    CompactionReport,
    compact_store,
)
from repro.service.query import StoreQuery
from repro.service.routes import ServiceState, if_none_match_matches
from repro.service.store import (
    AlarmStore,
    AlarmStoreWriter,
    StoreError,
    append_analysis,
    read_manifest,
)

__all__ = [
    "AlarmStore",
    "AlarmStoreWriter",
    "AsyncAlarmService",
    "AsyncServerThread",
    "CachedResponse",
    "CompactionPolicy",
    "CompactionReport",
    "ResponseCache",
    "ServiceState",
    "StoreError",
    "StoreQuery",
    "WorkerPool",
    "append_analysis",
    "compact_store",
    "if_none_match_matches",
    "read_manifest",
    "run_async_server",
    "start_async_server",
    "start_worker_pool",
]
