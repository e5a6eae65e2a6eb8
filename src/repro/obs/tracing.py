"""Hierarchical tracing and the canonical pipeline stage list.

Two jobs live here:

* **Stage accounting** — :class:`StageAccumulator` is the aggregate
  per-stage timer that ``analyze --timings`` and ``monitor --json``
  report through (exported from :mod:`repro.core` as ``StageTimer``).
  :data:`STAGE_NAMES` is the single source of truth for stage-name
  keys: the ``timings/v1`` summary record, the ``--timings`` table and
  the engine's stage histograms all draw from this tuple, so the CLI
  surfaces can no longer disagree on spelling.
* **Span tracing** — :class:`Tracer` records hierarchical spans
  (campaign -> bin -> shard -> stage) as Chrome trace-event JSON
  complete events (``"ph": "X"``), written by ``analyze --trace PATH``
  and loadable in Perfetto or ``chrome://tracing``.  Per-shard spans
  are *merged deterministically*: shard durations are measured inside
  the worker (serial, thread or process) and shipped back on the shard
  output, then re-laid onto the parent timeline in shard-id order, so
  the trace shape does not depend on worker scheduling.

Like the rest of :mod:`repro.obs`, span timestamps are write-only
telemetry: no clock value recorded here feeds back into detection.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "NULL_TIMER",
    "NULL_TRACER",
    "STAGE_NAMES",
    "StageAccumulator",
    "Tracer",
    "stage_order",
]

#: Canonical pipeline stage names, in pipeline order.  ``decode``/
#: ``bin``/``extract``/``detect``/``store`` are the PR 8 spine stages;
#: ``compact`` is the store-maintenance stage charged by ``monitor
#: --compact-every`` and ``compact``.  Every stage-keyed surface
#: (``timings/v1`` records, ``--timings`` tables, stage histograms,
#: stage spans) keys off this tuple.
STAGE_NAMES: Tuple[str, ...] = ("decode", "bin", "extract", "detect", "store", "compact")


def stage_order(names: Iterable[str]) -> List[str]:
    """Order ``names`` canonically: known stages first, extras sorted."""
    present = set(names)
    ordered = [name for name in STAGE_NAMES if name in present]
    ordered += sorted(present - set(STAGE_NAMES))
    return ordered


class _NullSpan:
    """No-op context manager used when timing/tracing is disabled."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class StageAccumulator:
    """Aggregate wall-clock time per pipeline stage.

    Thread-compatible, not thread-safe: each worker accumulates into
    its own instance and the parent folds results in with
    :meth:`merge`, mirroring how shard outputs merge.  A disabled
    accumulator's ``stage()`` returns a shared no-op context manager,
    so the hot path costs one attribute check.
    """

    __slots__ = ("enabled", "_seconds", "_calls")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}

    def stage(self, name: str):
        """Context manager charging elapsed wall time to ``name``."""
        if not self.enabled:
            return _NULL_SPAN
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Charge ``seconds`` (and ``calls``) to stage ``name``."""
        if not self.enabled:
            return
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._calls[name] = self._calls.get(name, 0) + calls

    def merge(self, timings: Dict[str, Dict[str, float]]) -> None:
        """Fold another accumulator's :meth:`timings` output into this one."""
        for name, entry in timings.items():
            self.add(name, entry["seconds"], int(entry["calls"]))

    def timings(self) -> Dict[str, Dict[str, float]]:
        """Per-stage ``{"calls": n, "seconds": s}``, canonically ordered.

        Known pipeline stages (:data:`STAGE_NAMES`) come first in
        pipeline order; unknown stage names sort after them.
        """
        return {
            name: {"calls": self._calls[name], "seconds": self._seconds[name]}
            for name in stage_order(self._calls)
        }

    def reset(self) -> None:
        """Drop all accumulated stage data."""
        self._seconds.clear()
        self._calls.clear()


#: Shared disabled accumulator: safe to pass anywhere a timer is optional.
NULL_TIMER = StageAccumulator(enabled=False)


class Tracer:
    """Records hierarchical spans as Chrome trace-event complete events.

    Spans carry microsecond timestamps relative to the tracer's own
    epoch (``time.perf_counter`` at construction), so traces are
    self-contained and never expose wall-clock time.  Track ids
    (``tid``) separate the merged timeline: tid 0 is the coordinating
    process, tid ``shard_id + 1`` carries per-shard spans.  Events are
    exported sorted by ``(ts, -dur, tid, name)`` — a deterministic
    function of the recorded spans, not of dict insertion order.
    """

    __slots__ = ("enabled", "_epoch", "_events")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._epoch = time.perf_counter()
        self._events: List[Dict[str, Any]] = []

    def now(self) -> float:
        """The tracer's clock (``time.perf_counter``); pairs with :meth:`add_span`."""
        return time.perf_counter()

    @contextmanager
    def _span(self, name: str, tid: int, args: Optional[Dict[str, Any]]):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_span(name, start, time.perf_counter() - start, tid=tid, args=args)

    def span(self, name: str, tid: int = 0, args: Optional[Dict[str, Any]] = None):
        """Context manager recording one complete event around the body."""
        if not self.enabled:
            return _NULL_SPAN
        return self._span(name, tid, args)

    def add_span(self, name: str, start: float, duration: float, tid: int = 0,
                 args: Optional[Dict[str, Any]] = None) -> None:
        """Record an explicit span; ``start`` is a :meth:`now` value.

        This is the merge entry point: shard workers measure their own
        elapsed time, and the parent lays each shard's span onto the
        surrounding stage span's timeline (shard-id track, identical
        start), so process-pool traces are reproducible.
        """
        if not self.enabled:
            return
        event: Dict[str, Any] = {
            "name": name,
            "ph": "X",
            "ts": round((start - self._epoch) * 1e6, 1),
            "dur": round(duration * 1e6, 1),
            "pid": 0,
            "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        self._events.append(event)

    def events(self) -> List[Dict[str, Any]]:
        """All recorded events in deterministic export order."""
        return sorted(
            self._events,
            key=lambda e: (e["ts"], -e["dur"], e["tid"], e["name"]),
        )

    def to_chrome(self) -> Dict[str, Any]:
        """The full Chrome trace-event JSON document."""
        return {"displayTimeUnit": "ms", "traceEvents": self.events()}

    def write(self, path: str) -> None:
        """Write the trace as canonical JSON to ``path``."""
        # Lazy import: reporting pulls in core/atlas modules that are
        # themselves instrumented with repro.obs — a module-level import
        # here would be circular.
        from ..reporting.jsonio import dumps_canonical

        with open(path, "wb") as handle:
            handle.write(dumps_canonical(self.to_chrome()))
            handle.write(b"\n")


#: Shared disabled tracer: safe to pass anywhere a tracer is optional.
NULL_TRACER = Tracer(enabled=False)
