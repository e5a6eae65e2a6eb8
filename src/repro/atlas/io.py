"""JSONL persistence for traceroute results (Atlas download format).

Atlas result downloads are newline-delimited JSON.  This module writes
that format, so simulated campaigns replay exactly like archived Atlas
data, and holds what its readers share (gzip-aware opening, the decode
error and the lenient readers' warning): production decodes into
columns (:mod:`repro.atlas.columnar`), the reference into objects.
"""

from __future__ import annotations

import gzip
import json
import warnings
from pathlib import Path
from typing import Iterable, Union

from repro.atlas.model import Traceroute

PathLike = Union[str, Path]


class TracerouteDecodeError(ValueError):
    """Raised when a JSONL line cannot be parsed into a Traceroute."""

    def __init__(self, line_number: int, reason: str) -> None:
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number


class DecodeWarning(UserWarning):
    """Emitted when lenient readers skip undecodable JSONL lines.

    Carries the skip count in :attr:`skipped` so callers that want the
    number (rather than the rendered message) can catch the warning and
    read it directly.
    """

    def __init__(self, reader: str, source: Path, skipped: int) -> None:
        super().__init__(
            f"{reader}: skipped {skipped} undecodable line(s) in {source}"
        )
        self.skipped = skipped


def _warn_skipped(reader: str, source: Path, skipped: int) -> None:
    """Emit the one end-of-file warning lenient readers share."""
    warnings.warn(DecodeWarning(reader, source, skipped), stacklevel=3)


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _open_binary(path: Path):
    """Read-only binary handle (gzip-aware), for byte-level decoders."""
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def write_traceroutes(path: PathLike, traceroutes: Iterable[Traceroute]) -> int:
    """Write results as JSONL (gzip if the path ends in .gz); returns count."""
    target = Path(path)
    count = 0
    with _open_text(target, "w") as handle:
        for traceroute in traceroutes:
            handle.write(json.dumps(traceroute.to_json(), sort_keys=True))
            handle.write("\n")
            count += 1
    return count
