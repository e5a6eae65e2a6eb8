"""Measurement-results connector: Atlas API pages → traceroute JSONL.

The paper's system consumes the built-in/anchoring traceroute
measurements continuously; this connector is the fetch side of that
loop.  It walks the ``/measurements/{id}/results/`` pagination chain
through a :class:`~repro.atlas.connectors.transport.FaultTolerantClient`
and normalizes every page into the repository's canonical traceroute
JSONL (the exact serialization :func:`repro.atlas.io.write_traceroutes`
produces), so the output file plugs directly into
:class:`~repro.reference.ingest.TracerouteStream`, ``monitor --follow``,
the columnar decoder and the bin cache — a fetched campaign is
indistinguishable from a locally generated one.

Crash safety is delegated to :mod:`repro.atlas.connectors.cursors`:
after each page is appended and fsynced, the cursor is atomically
rewritten with the next-page URL and the exact output byte offset.  A
killed fetch re-run with the same arguments truncates the output back
to the last commit point and resumes the pagination window — no
duplicated and no skipped traceroutes (proven at every page boundary
by ``tests/test_connector_fetch.py``).  A corrupt or foreign cursor
raises the typed :class:`~repro.atlas.connectors.cursors.CursorError`
internally and restarts the window from page zero, which is reported
(``restarted=True``) but never silently skips data.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional
from urllib.parse import urlencode

from repro.atlas.connectors.cursors import (
    CursorError,
    FetchCursor,
    cursor_key,
    load_cursor,
    save_cursor,
)
from repro.atlas.connectors.transport import FaultTolerantClient
from repro.atlas.io import PathLike
from repro.atlas.model import Traceroute
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.status import default_board

#: Root of the RIPE Atlas REST API.
DEFAULT_BASE_URL = "https://atlas.ripe.net/api/v2"

#: Results per page requested from the API.
DEFAULT_PAGE_SIZE = 500


def results_url(
    msm_id: int,
    start: Optional[int] = None,
    stop: Optional[int] = None,
    page_size: int = DEFAULT_PAGE_SIZE,
    base_url: str = DEFAULT_BASE_URL,
) -> str:
    """First-page URL for a measurement's results window."""
    params = {"format": "json", "page_size": page_size}
    if start is not None:
        params["start"] = start
    if stop is not None:
        params["stop"] = stop
    query = urlencode(sorted(params.items()))
    return f"{base_url}/measurements/{msm_id}/results/?{query}"


@dataclass
class FetchReport:
    """What one :func:`fetch_results` call did (for logs and tests)."""

    msm_id: int
    out_path: str
    pages: int = 0
    records: int = 0
    skipped: int = 0
    resumed: bool = False
    restarted: bool = False
    completed: bool = False
    already_complete: bool = False


def _normalize_page(items, handle, strict: bool) -> tuple:
    """Write one page of API result items as canonical JSONL lines.

    Returns ``(written, skipped)``.  Each item is round-tripped through
    :class:`~repro.atlas.model.Traceroute` so the output bytes match
    :func:`~repro.atlas.io.write_traceroutes` exactly; undecodable
    items are skipped (or raised, with *strict*) — a live API page's
    bad item must not poison the whole window.
    """
    written = 0
    skipped = 0
    for item in items:
        try:
            traceroute = Traceroute.from_json(item)
        except (KeyError, TypeError, ValueError):
            if strict:
                raise
            skipped += 1
            continue
        handle.write(
            (json.dumps(traceroute.to_json(), sort_keys=True) + "\n").encode(
                "utf-8"
            )
        )
        written += 1
    return written, skipped


class _FetchMetrics:
    """Fetch-side metric families (shared across calls via the registry)."""

    __slots__ = ("pages", "records", "restarts")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.pages = registry.counter(
            "repro_connector_pages_total",
            "Result pages fetched and committed.",
        )
        self.records = registry.counter(
            "repro_connector_records_total",
            "Traceroute records normalized into output files.",
        )
        self.restarts = registry.counter(
            "repro_connector_cursor_restarts_total",
            "Pagination windows restarted after an unusable cursor.",
        )


def fetch_results(
    client: FaultTolerantClient,
    msm_id: int,
    out_path: PathLike,
    cursor_path: Optional[PathLike] = None,
    start: Optional[int] = None,
    stop: Optional[int] = None,
    page_size: int = DEFAULT_PAGE_SIZE,
    base_url: str = DEFAULT_BASE_URL,
    strict: bool = False,
    max_pages: Optional[int] = None,
) -> FetchReport:
    """Fetch one measurement's results window into *out_path* (JSONL).

    With *cursor_path*, the fetch is durable and resumable: re-running
    after a crash (or after stopping early via *max_pages*) continues
    the pagination window exactly once.  Without it, the fetch always
    starts from page zero and truncates any existing output.

    The API envelope may be either the standard paginated form
    (``{"results": [...], "next": url-or-null}``) or a bare JSON list
    (one unpaginated page); both normalize identically.
    """
    first_url = results_url(msm_id, start, stop, page_size, base_url)
    key = cursor_key(
        f"{base_url}/measurements/{msm_id}/results/",
        start="" if start is None else start,
        stop="" if stop is None else stop,
        page_size=page_size,
    )
    report = FetchReport(msm_id=msm_id, out_path=str(out_path))
    metrics = _FetchMetrics(default_registry())
    board = default_board()
    cursor = FetchCursor(key=key, next_url=first_url)
    if cursor_path is not None and Path(cursor_path).exists():
        try:
            cursor = load_cursor(cursor_path, expected_key=key)
            report.resumed = True
        except CursorError:
            # Typed error observed: restart the window from page zero.
            # Restarting refetches pages (time), it never skips data.
            cursor = FetchCursor(key=key, next_url=first_url)
            report.restarted = True
            metrics.restarts.inc()
    if cursor.completed:
        report.pages = cursor.pages_fetched
        report.records = cursor.records_written
        report.completed = True
        report.already_complete = True
        return report

    out = Path(out_path)
    with open(out, "ab") as handle:
        # Truncate back to the cursor's commit point: a crash between
        # a page append and its cursor write leaves a partial page
        # beyond this offset, and refetching that page must not
        # duplicate it.
        handle.truncate(cursor.output_bytes)
        handle.seek(cursor.output_bytes)
        while cursor.next_url:
            if max_pages is not None and report.pages >= max_pages:
                break
            page = client.get_json(cursor.next_url)
            if isinstance(page, list):
                items, next_url = page, None
            elif isinstance(page, dict) and isinstance(
                page.get("results"), list
            ):
                items, next_url = page["results"], page.get("next")
            else:
                raise ValueError(
                    f"unrecognized results envelope from {cursor.next_url}"
                )
            written, skipped = _normalize_page(items, handle, strict)
            handle.flush()
            os.fsync(handle.fileno())
            report.pages += 1
            report.records += written
            report.skipped += skipped
            cursor.pages_fetched += 1
            cursor.records_written += written
            cursor.output_bytes = handle.tell()
            cursor.next_url = next_url or ""
            cursor.completed = not cursor.next_url
            if cursor_path is not None:
                save_cursor(cursor_path, cursor)
            metrics.pages.inc()
            metrics.records.inc(written)
            breaker = client.breaker
            board.update(
                "fetch",
                msm_id=msm_id,
                pages_fetched=cursor.pages_fetched,
                records_written=cursor.records_written,
                output_bytes=cursor.output_bytes,
                restarted=report.restarted,
                completed=cursor.completed,
                breaker_state=(
                    "absent" if breaker is None else breaker.state
                ),
            )
    report.completed = cursor.completed
    return report
