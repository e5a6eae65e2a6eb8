"""Traceroute objects in: the reference's JSONL reader and stream.

Production decodes the same bytes straight into columns
(:mod:`repro.atlas.columnar`) and streams them with
:class:`~repro.atlas.stream.ColumnarStream`: same records, same bins,
same drop counts, no objects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, List, Tuple

from repro.atlas.io import (
    PathLike,
    TracerouteDecodeError,
    _open_text,
    _warn_skipped,
)
from repro.atlas.model import Traceroute
from repro.atlas.stream import LatenessWindow, bin_start


def read_traceroutes(
    path: PathLike, strict: bool = True
) -> Iterator[Traceroute]:
    """Stream results back from a JSONL file.

    With ``strict=False`` undecodable lines are skipped instead of
    raising — useful for partially corrupted archive downloads — and one
    :class:`DecodeWarning` carrying the skip count is emitted when the
    stream ends, so silent data loss is visible without depending on the
    caller to count.
    """
    source = Path(path)
    skipped = 0
    with _open_text(source, "r") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise TracerouteDecodeError(line_number, str(exc)) from exc
                skipped += 1
                continue
            try:
                yield Traceroute.from_json(data)
            except (KeyError, TypeError, ValueError) as exc:
                if strict:
                    raise TracerouteDecodeError(line_number, str(exc)) from exc
                skipped += 1
                continue
    if skipped:
        _warn_skipped("read_traceroutes", source, skipped)


class TracerouteStream(LatenessWindow):
    """Buffered push-based stream of traceroute objects (the oracle).

    Feed results with :meth:`push`; closed bins come back as lists of
    traceroutes.  Call :meth:`~LatenessWindow.drain` at end of stream.
    This mirrors how the authors' near-real-time deployment consumes
    the Atlas streaming API: slightly late results are tolerated, very
    late ones are dropped.  Options and counters are
    :class:`LatenessWindow`'s.

    Production ``monitor`` runs the same window over columns
    (:class:`ColumnarStream`); this object form is the public API for
    library users and the reference the columnar path is tested against.
    """

    def push(self, traceroute: Traceroute) -> List[Tuple[int, List[Traceroute]]]:
        """Add one result; return any bins that closed as a consequence."""
        return self.add(
            bin_start(traceroute.timestamp, self.bin_s), (traceroute,)
        )
