"""Durable resumable pagination cursors for the Atlas connectors.

A fetch that dies mid-pagination (crash, OOM, network partition that
outlives the retry budget) must resume *exactly once*: no page fetched
twice into the output, no page silently skipped.  The cursor file is
the commit point that makes this possible — after every page is
appended and flushed to the output JSONL, the fetcher atomically
rewrites the cursor recording:

* ``key`` — the canonical identity of the pagination window (endpoint
  plus every parameter), so a cursor can never resume a *different*
  window;
* ``next_url`` — where pagination continues (empty when done);
* ``output_bytes`` — the exact output-file length at the commit point.
  On resume the output is truncated back to this offset, which erases
  any partially appended page from a crash *between* the append and
  the cursor write — re-fetching that page is then exactly-once, not
  at-least-once.

The file is a :mod:`repro.binfmt` frame (magic + version + payload
length + BLAKE2b payload digest, durable atomic writes) around a JSON
payload.  Anything truncated, foreign, stale-versioned, bit-flipped or
trailing-garbage raises the typed :class:`CursorError` — the fetcher
then restarts the window from page zero rather than trusting the file,
which can lose only time, never data.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

from repro import binfmt
from repro.atlas.io import PathLike

#: File identification: magic bytes plus an explicit format version.
MAGIC = b"RPROCRSR"
CURSOR_VERSION = 1

#: The exact payload fields (name, required type) a valid cursor carries.
_FIELDS = (
    ("key", str),
    ("next_url", str),
    ("pages_fetched", int),
    ("records_written", int),
    ("output_bytes", int),
    ("completed", bool),
)


class CursorError(binfmt.FormatError):
    """A cursor file is missing, foreign, truncated, stale or corrupt."""


CURSOR = binfmt.Format(MAGIC, CURSOR_VERSION, "cursor", CursorError)


@dataclass
class FetchCursor:
    """Resume state for one pagination window (see the module docs)."""

    key: str
    next_url: str = ""
    pages_fetched: int = 0
    records_written: int = 0
    output_bytes: int = 0
    completed: bool = False


def cursor_key(endpoint: str, **params) -> str:
    """Canonical window identity: endpoint plus sorted parameters.

    Two fetches share a cursor only when every parameter matches —
    resuming a ``stop=...`` window with a different ``stop`` would
    silently skip or duplicate data, so the key makes them foreign.
    """
    rendered = "&".join(
        f"{name}={params[name]}" for name in sorted(params)
    )
    return f"{endpoint}?{rendered}" if rendered else endpoint


def save_cursor(path: PathLike, cursor: FetchCursor) -> int:
    """Durably persist *cursor* to *path*; returns bytes written."""
    payload = json.dumps(asdict(cursor), sort_keys=True).encode("utf-8")
    return binfmt.atomic_write(path, CURSOR, [payload]).size


def load_cursor(
    path: PathLike, expected_key: Optional[str] = None
) -> FetchCursor:
    """Load and validate the cursor at *path*.

    Every way the file can be wrong — unreadable, truncated, foreign
    magic, stale version, digest mismatch, trailing bytes, missing or
    mistyped fields, or (with *expected_key*) a cursor that belongs to
    a different pagination window — raises :class:`CursorError`.
    """
    payload = binfmt.read_frame(path, CURSOR)
    try:
        data = json.loads(bytes(payload).decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CursorError(f"undecodable cursor payload: {path}") from exc
    if not isinstance(data, dict) or set(data) != {
        name for name, _ in _FIELDS
    }:
        raise CursorError(f"cursor payload has wrong fields: {path}")
    for name, kind in _FIELDS:
        value = data[name]
        # bool is an int subclass; require the exact type either way.
        if type(value) is not kind:
            raise CursorError(
                f"cursor field {name!r} has type "
                f"{type(value).__name__}, expected {kind.__name__}: {path}"
            )
    for name in ("pages_fetched", "records_written", "output_bytes"):
        if data[name] < 0:
            raise CursorError(f"cursor field {name!r} is negative: {path}")
    cursor = FetchCursor(**data)
    if expected_key is not None and cursor.key != expected_key:
        raise CursorError(
            f"cursor belongs to a different window: {path} "
            f"(found {cursor.key!r}, expected {expected_key!r})"
        )
    return cursor
