"""Durable detector snapshots: versioned binary checkpoints for crash/resume.

The paper's system is a *continuous* monitor — it "collects all
traceroutes initiated in a 1-hour time bin" (§4.2) and keeps its EWMA
references rolling indefinitely.  A replayed campaign must therefore be
able to stop after any bin and continue later **bit-identically**, which
is exactly what this module provides:

* :class:`EngineSnapshot` is the engine-agnostic canonical state of a
  detection run: every link's delay reference (or §4.2.4 warm-up
  buffer), every forwarding model's smoothed reference, the diversity
  filter's per-link evaluation rounds (which seed its rebalancing RNG
  streams), tracked-link series, campaign aggregates, and optionally
  the per-bin results produced so far.  Both the serial
  :class:`~repro.reference.pipeline.Pipeline` and the
  :class:`~repro.core.engine.Engine` produce one (``snapshot()``) with
  every row sorted by its key — the same bytes for the same feed — and
  consume one in any row order (``restore()``), so a snapshot from
  either continues identically in the other;
* :func:`save_snapshot` / :func:`load_snapshot` persist snapshots as
  :mod:`repro.binfmt` files (magic, version, payload digest, durable
  atomic writes) whose payload opens with a fingerprint of the
  detection-relevant configuration, followed by one string table of
  every IP and hop, a count block and the state as typed little-endian
  columns.  Truncated, foreign, stale or corrupt files always raise
  :class:`SnapshotError` — they are never silently served;
* :func:`run_checkpointed` is the one-call resumable driver used by the
  CLI's ``analyze --checkpoint`` flag and the ``monitor`` subcommand: it
  replays a campaign bin by bin, checkpoints every N bins, and on
  restart resumes from the newest valid checkpoint (rebuilding from
  scratch when the file is corrupt or was written under a different
  configuration).

The format trusts nothing: the frame's digest catches random
corruption, and structural vetting (ids must index the string table,
offset tables must be monotone and anchored, warm-up counts must fit
the seed window) catches well-formed-but-wrong images.  It is also
canonical — strings in first-use order, no flag bit beyond the defined
ones, zeros behind every absent value — so one snapshot has exactly one
encoding.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import binfmt
from repro.atlas.io import PathLike
from repro.atlas.stream import binned_payloads
from repro.core.alarms import DelayAlarm, ForwardingAlarm, Link
from repro.core.forwarding import ModelKey
from repro.core.pipeline import BinResult, PipelineConfig, TrackedLinkPoint
from repro.stats.smoothing import SEED_BINS
from repro.stats.wilson import WilsonInterval

#: File identification: magic bytes plus an explicit format version.
#: Version 2 moved the config fingerprint from the header into the
#: digested payload's first 16 bytes; version 3 replaced the tagged value
#: encoding with typed columns over one string table.
MAGIC = b"RPROCKPT"
SNAPSHOT_VERSION = 3

#: How many bytes a fingerprint or source digest has.
_DIGEST_SIZE = binfmt.DIGEST_SIZE

#: How much of a source file's head feeds :func:`source_digest_of`.
#: The head identifies a campaign/feed yet stays stable while a live
#: feed is appended to.
_SOURCE_HEAD_BYTES = 65536


class SnapshotError(binfmt.FormatError):
    """A snapshot is missing, foreign, truncated, stale or corrupt."""


CHECKPOINT = binfmt.Format(MAGIC, SNAPSHOT_VERSION, "snapshot", SnapshotError)


def source_digest_of(path: PathLike) -> bytes:
    """16-byte digest identifying a campaign/feed file by its head.

    Only the first 64 KiB is hashed, so the digest is stable while an
    append-only feed grows but changes when a checkpoint path is reused
    against a *different* campaign — the silent-wrong-merge case the
    resumable driver and the monitor must refuse.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.read(_SOURCE_HEAD_BYTES)
    except OSError as exc:
        raise SnapshotError(f"cannot read source {path}: {exc}") from exc
    return hashlib.blake2b(head, digest_size=_DIGEST_SIZE).digest()


def config_fingerprint(config: PipelineConfig) -> bytes:
    """16-byte digest of the detection-relevant configuration.

    Two runs may only share a snapshot when every parameter that shapes
    detector state matches: bin size, smoothing factor, Wilson z,
    minimum shift, diversity thresholds, tau, warm-up length, winsorize
    mode, RNG seed and the tracked-link set.  What only picks the
    implementation is deliberately **excluded** — state is canonical
    per link/model, so a snapshot written by the serial pipeline or the
    engine restores into the other.

    Floats are hashed by their exact hex representation so that the
    fingerprint is as strict as the bit-identity guarantee it guards.
    """
    parts = [
        "repro-checkpoint-v1",
        str(int(config.bin_s)),
        float(config.alpha).hex(),
        float(config.z).hex(),
        float(config.min_shift_ms).hex(),
        str(int(config.min_asns)),
        float(config.min_entropy).hex(),
        float(config.tau).hex(),
        str(int(config.forwarding_warmup)),
        str(bool(config.winsorize)),
        str(int(config.seed)),
        repr(sorted(config.track_links)),
    ]
    return hashlib.blake2b(
        "|".join(parts).encode("utf-8"), digest_size=_DIGEST_SIZE
    ).digest()


@dataclass
class DelayTable:
    """Canonical per-link delay-detector state, structure-of-arrays.

    Row *i* describes ``links[i]``: a ready link carries its smoothed
    reference in ``median``/``lower``/``upper`` (NaN medians mark links
    still warming up), counters ride in the integer columns, and warming
    links keep their §4.2.4 seed buffers pooled CSR-style —
    ``warm_values[warm_offsets[i]:warm_offsets[i+1]]`` holds
    ``3 * warm_count[i]`` values laid out component-major (medians, then
    lowers, then uppers).  Ready links contribute zero warm values and
    record ``warm_count == seed_bins`` (the completed warm-up), exactly
    like the live arena.
    """

    links: List[Link]
    median: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    warm_count: np.ndarray
    bins_seen: np.ndarray
    alarms_raised: np.ndarray
    max_probes: np.ndarray
    warm_offsets: np.ndarray
    warm_values: np.ndarray
    seed_bins: int = SEED_BINS


@dataclass
class ForwardingTable:
    """Canonical per-model forwarding-detector state.

    Row *i* describes ``keys[i]``; its smoothed reference pattern is
    ``dict(zip(ref_hops[a:b], ref_weights[a:b]))`` for
    ``a, b = ref_offsets[i], ref_offsets[i+1]``, with hops stored in
    sorted order so the on-disk bytes are independent of the process
    hash seed (every consumer of a reference sorts before reducing, so
    the canonical order changes nothing downstream).
    """

    keys: List[ModelKey]
    bins_seen: np.ndarray
    alarms_raised: np.ndarray
    ref_offsets: np.ndarray
    ref_hops: List[str]
    ref_weights: np.ndarray


@dataclass
class EngineSnapshot:
    """Everything a detection engine needs to continue bit-identically.

    Produced by ``Pipeline.snapshot()`` / ``Engine.snapshot()``
    and consumed by their ``restore()``; persisted with
    :func:`save_snapshot` / :func:`load_snapshot`.  ``results`` holds
    the per-bin results of the bins processed so far when the caller
    asked for them (the resumable driver does, so a resumed run returns
    the complete campaign output; a long-running monitor does not, to
    keep snapshots bounded).  ``source_digest``
    (:func:`source_digest_of`, empty = unbound) ties the snapshot to
    the campaign/feed file it was built from, so a checkpoint path
    reused against different input is refused rather than silently
    merged.
    """

    fingerprint: bytes
    bins_processed: int
    traceroutes_processed: int
    last_timestamp: Optional[int]
    links_seen: List[Link]
    rounds: Dict[Link, int]
    delay: DelayTable
    forwarding: ForwardingTable
    tracked: Dict[Link, List[TrackedLinkPoint]]
    results: List[BinResult] = field(default_factory=list)
    source_digest: bytes = b""


# -- the payload layout ------------------------------------------------------
#
# After the fingerprint: one string table holding every IP and hop,
# interned in first-use order; the fixed head; one count block; then
# typed little-endian columns in _SCHEMA order.  Floats travel as raw
# IEEE-754 bytes, so every value round-trips bit for bit, and nothing is
# ever eval'd or unpickled.

#: String-table ids: the only u4 columns.
_ID = "<u4"

#: Hop maps a forwarding alarm carries, pooled CSR-style in dict order.
_HOP_MAPS = ("responsibilities", "pattern", "reference")

#: The array fields of the delay (``d_*``) and forwarding (``f_*``)
#: tables, stored as they are.
_DELAY_ARRAYS = (
    "median", "lower", "upper", "warm_count", "bins_seen", "alarms_raised",
    "max_probes", "warm_offsets", "warm_values",
)
_FORWARDING_ARRAYS = ("bins_seen", "alarms_raised", "ref_offsets",
                      "ref_weights")

#: (column, dtype, row count, values per row), in payload order.
_SCHEMA = (
    ("links_seen", _ID, "links_seen", 2),
    ("round_links", _ID, "rounds", 2),
    ("round_counts", "<i8", "rounds", 1),
    ("d_links", _ID, "delay", 2),
    ("d_median", "<f8", "delay", 1),
    ("d_lower", "<f8", "delay", 1),
    ("d_upper", "<f8", "delay", 1),
    ("d_warm_count", "<i8", "delay", 1),
    ("d_bins_seen", "<i8", "delay", 1),
    ("d_alarms_raised", "<i8", "delay", 1),
    ("d_max_probes", "<i8", "delay", 1),
    ("d_warm_offsets", "<i8", "delay", 1),
    ("d_warm_values", "<f8", "warm", 1),
    ("f_keys", _ID, "forwarding", 2),
    ("f_bins_seen", "<i8", "forwarding", 1),
    ("f_alarms_raised", "<i8", "forwarding", 1),
    ("f_ref_offsets", "<i8", "forwarding", 1),
    ("f_ref_hops", _ID, "ref", 1),
    ("f_ref_weights", "<f8", "ref", 1),
    ("tracked_links", _ID, "tracked", 2),
    ("point_offsets", "<i8", "tracked", 1),
    ("point_flags", "u1", "points", 1),
    # timestamp, n_probes, observed n, reference n
    ("point_ints", "<i8", "points", 4),
    # observed median/lower/upper, reference median/lower/upper, mean, std
    ("point_floats", "<f8", "points", 8),
    # timestamp, n_traceroutes, n_links_observed, n_links_analyzed
    ("bin_ints", "<i8", "results", 4),
    ("delay_alarm_offsets", "<i8", "results", 1),
    ("fwd_alarm_offsets", "<i8", "results", 1),
    ("alarm_links", _ID, "delay_alarms", 2),
    # timestamp, direction, n_probes, n_asns, observed n, reference n
    ("alarm_ints", "<i8", "delay_alarms", 6),
    # observed median/lower/upper, reference median/lower/upper, deviation
    ("alarm_floats", "<f8", "delay_alarms", 7),
    ("fwd_alarm_ips", _ID, "fwd_alarms", 2),  # router, destination
    ("fwd_alarm_ts", "<i8", "fwd_alarms", 1),
    ("correlation", "<f8", "fwd_alarms", 1),
) + tuple(
    column
    for name in _HOP_MAPS
    for column in (
        (f"{name}_offsets", "<i8", "fwd_alarms", 1),
        (f"{name}_hops", _ID, name, 1),
        (f"{name}_weights", "<f8", name, 1),
    )
)

#: Each CSR offset table (one entry more than its rows) and the row
#: count of the pool it indexes.
_OFFSETS = {
    "d_warm_offsets": "warm",
    "f_ref_offsets": "ref",
    "point_offsets": "points",
    "delay_alarm_offsets": "delay_alarms",
    "fwd_alarm_offsets": "fwd_alarms",
    **{f"{name}_offsets": name for name in _HOP_MAPS},
}

#: The count block: every row count, in order of first use.
_COUNTS = tuple(dict.fromkeys(rows for _, _, rows, _ in _SCHEMA))
_COUNT_BLOCK = struct.Struct(f"<{len(_COUNTS)}Q")

#: source-digest flag, digest, bins, traceroutes, last-timestamp flag,
#: last timestamp, seed_bins.
_HEAD = struct.Struct("<B16sqqBqq")

#: Tracked-point flag bits: which optional fields are present (an absent
#: one is written as zeros), and the point's two booleans.
_OBSERVED, _REFERENCE, _ALARMED, _ACCEPTED, _MEAN, _STD = 1, 2, 4, 8, 16, 32


def _flat(pairs) -> list:
    return [value for pair in pairs for value in pair]


def _offsets(groups) -> np.ndarray:
    return np.cumsum([0, *(len(group) for group in groups)])


def _split(items: list, offsets: np.ndarray) -> List[list]:
    """*items* cut into the rows a CSR offset table delimits."""
    ends = offsets.tolist()
    return [items[a:b] for a, b in zip(ends, ends[1:])]


def _bounds(interval: Optional[WilsonInterval]) -> Tuple[float, ...]:
    if interval is None:
        return (0.0, 0.0, 0.0)
    return (interval.median, interval.lower, interval.upper)


def _columns(snapshot: EngineSnapshot) -> dict:
    """Every schema column's values (ids still as strings)."""
    delay, fwd = snapshot.delay, snapshot.forwarding
    points = [point for run in snapshot.tracked.values() for point in run]
    results = snapshot.results
    delay_alarms = [alarm for r in results for alarm in r.delay_alarms]
    fwd_alarms = [alarm for r in results for alarm in r.forwarding_alarms]
    columns = {
        "links_seen": _flat(snapshot.links_seen),
        "round_links": _flat(snapshot.rounds),
        "round_counts": list(snapshot.rounds.values()),
        "d_links": _flat(delay.links),
        "f_keys": _flat(fwd.keys),
        "f_ref_hops": fwd.ref_hops,
        "tracked_links": _flat(snapshot.tracked),
        "point_offsets": _offsets(snapshot.tracked.values()),
        "point_flags": [
            (p.observed is not None) * _OBSERVED
            | (p.reference is not None) * _REFERENCE
            | bool(p.alarmed) * _ALARMED
            | bool(p.accepted) * _ACCEPTED
            | (p.mean is not None) * _MEAN
            | (p.sample_std is not None) * _STD
            for p in points
        ],
        "point_ints": [
            (
                p.timestamp, p.n_probes,
                0 if p.observed is None else p.observed.n,
                0 if p.reference is None else p.reference.n,
            )
            for p in points
        ],
        "point_floats": [
            (
                *_bounds(p.observed), *_bounds(p.reference),
                0.0 if p.mean is None else p.mean,
                0.0 if p.sample_std is None else p.sample_std,
            )
            for p in points
        ],
        "bin_ints": [
            (r.timestamp, r.n_traceroutes, r.n_links_observed,
             r.n_links_analyzed)
            for r in results
        ],
        "delay_alarm_offsets": _offsets(r.delay_alarms for r in results),
        "fwd_alarm_offsets": _offsets(r.forwarding_alarms for r in results),
        "alarm_links": _flat(a.link for a in delay_alarms),
        "alarm_ints": [
            (a.timestamp, a.direction, a.n_probes, a.n_asns,
             a.observed.n, a.reference.n)
            for a in delay_alarms
        ],
        "alarm_floats": [
            (*_bounds(a.observed), *_bounds(a.reference), a.deviation)
            for a in delay_alarms
        ],
        "fwd_alarm_ips": _flat(
            (a.router_ip, a.destination) for a in fwd_alarms
        ),
        "fwd_alarm_ts": [a.timestamp for a in fwd_alarms],
        "correlation": [a.correlation for a in fwd_alarms],
    }
    columns.update((f"d_{n}", getattr(delay, n)) for n in _DELAY_ARRAYS)
    columns.update((f"f_{n}", getattr(fwd, n)) for n in _FORWARDING_ARRAYS)
    for name in _HOP_MAPS:
        maps = [getattr(alarm, name) for alarm in fwd_alarms]
        columns[f"{name}_offsets"] = _offsets(maps)
        columns[f"{name}_hops"] = [hop for m in maps for hop in m]
        columns[f"{name}_weights"] = [w for m in maps for w in m.values()]
    return columns


def _encode_payload(snapshot: EngineSnapshot) -> bytes:
    """Serialise a snapshot's state: the payload after its fingerprint."""
    digest = snapshot.source_digest
    if digest and len(digest) != _DIGEST_SIZE:
        raise SnapshotError(
            f"source digest must be empty or {_DIGEST_SIZE} bytes, "
            f"got {len(digest)}"
        )
    last = snapshot.last_timestamp
    columns = _columns(snapshot)
    strings: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    parts = []
    try:
        head = _HEAD.pack(
            bool(digest), digest, snapshot.bins_processed,
            snapshot.traceroutes_processed, last is not None,
            0 if last is None else last, snapshot.delay.seed_bins,
        )
        for name, dtype, rows, width in _SCHEMA:
            values = columns[name]
            if dtype == _ID:
                values = [strings.setdefault(s, len(strings)) for s in values]
            array = np.ascontiguousarray(values, dtype=dtype)
            count = (array.size - (name in _OFFSETS)) // width
            if counts.setdefault(rows, count) != count:
                raise SnapshotError(f"column {name} disagrees on {rows} rows")
            parts.append(array.tobytes())
    except (OverflowError, struct.error) as exc:
        raise SnapshotError(f"snapshot value out of range: {exc}") from exc
    block = _COUNT_BLOCK.pack(*(counts[rows] for rows in _COUNTS))
    return b"".join([binfmt.string_table(list(strings)), head, block, *parts])


def _decode_payload(
    reader: binfmt.Reader, fingerprint: bytes
) -> EngineSnapshot:
    """Read, vet and rebuild the state :func:`_encode_payload` wrote."""
    strings = reader.strings()
    has_digest, digest, bins, traceroutes, has_last, last, seed_bins = (
        reader.unpack(_HEAD)
    )
    counts = dict(zip(_COUNTS, reader.unpack(_COUNT_BLOCK)))
    columns = {}
    for name, dtype, rows, width in _SCHEMA:
        size = counts[rows] * width + (name in _OFFSETS)
        column = reader.column(dtype, size)
        if dtype == _ID:
            binfmt.check_ids(column, len(strings), name, SnapshotError)
        columns[name] = column.reshape(-1, width) if width > 1 else column
    reader.done()
    _vet(columns, counts, seed_bins)

    def links(name: str) -> List[Link]:
        return [(strings[a], strings[b]) for a, b in columns[name].tolist()]

    def hop_maps(name: str) -> List[Dict[str, float]]:
        offsets = columns[f"{name}_offsets"]
        hops = [strings[i] for i in columns[f"{name}_hops"].tolist()]
        weights = columns[f"{name}_weights"].tolist()
        return [
            dict(zip(*row))
            for row in zip(_split(hops, offsets), _split(weights, offsets))
        ]

    points = [
        TrackedLinkPoint(
            timestamp=timestamp,
            observed=(WilsonInterval(*f[0:3], observed_n)
                      if flags & _OBSERVED else None),
            reference=(WilsonInterval(*f[3:6], reference_n)
                       if flags & _REFERENCE else None),
            alarmed=bool(flags & _ALARMED),
            accepted=bool(flags & _ACCEPTED),
            n_probes=n_probes,
            mean=f[6] if flags & _MEAN else None,
            sample_std=f[7] if flags & _STD else None,
        )
        for flags, (timestamp, n_probes, observed_n, reference_n), f in zip(
            columns["point_flags"].tolist(),
            columns["point_ints"].tolist(),
            columns["point_floats"].tolist(),
        )
    ]
    tracked = dict(
        zip(links("tracked_links"), _split(points, columns["point_offsets"]))
    )
    delay_alarms = [
        DelayAlarm(
            timestamp=timestamp, link=link,
            observed=WilsonInterval(*f[0:3], observed_n),
            reference=WilsonInterval(*f[3:6], reference_n),
            deviation=f[6], direction=direction, n_probes=n_probes,
            n_asns=n_asns,
        )
        for link, (
            timestamp, direction, n_probes, n_asns, observed_n, reference_n
        ), f in zip(
            links("alarm_links"),
            columns["alarm_ints"].tolist(),
            columns["alarm_floats"].tolist(),
        )
    ]
    fwd_alarms = [
        ForwardingAlarm(
            timestamp=timestamp, router_ip=router, destination=destination,
            correlation=correlation, **dict(zip(_HOP_MAPS, maps)),
        )
        for (router, destination), timestamp, correlation, *maps in zip(
            links("fwd_alarm_ips"),
            columns["fwd_alarm_ts"].tolist(),
            columns["correlation"].tolist(),
            *(hop_maps(name) for name in _HOP_MAPS),
        )
    ]
    results = [
        BinResult(*ints, delays, forwardings)
        for ints, delays, forwardings in zip(
            columns["bin_ints"].tolist(),
            _split(delay_alarms, columns["delay_alarm_offsets"]),
            _split(fwd_alarms, columns["fwd_alarm_offsets"]),
        )
    ]
    # The tables own writable copies, not views of the file's bytes.
    delay = DelayTable(
        links=links("d_links"), seed_bins=seed_bins,
        **{n: columns[f"d_{n}"].copy() for n in _DELAY_ARRAYS},
    )
    forwarding = ForwardingTable(
        keys=links("f_keys"),
        ref_hops=[strings[i] for i in columns["f_ref_hops"].tolist()],
        **{n: columns[f"f_{n}"].copy() for n in _FORWARDING_ARRAYS},
    )
    return EngineSnapshot(
        fingerprint=fingerprint,
        bins_processed=bins,
        traceroutes_processed=traceroutes,
        last_timestamp=last if has_last else None,
        links_seen=links("links_seen"),
        rounds=dict(
            zip(links("round_links"), columns["round_counts"].tolist())
        ),
        delay=delay,
        forwarding=forwarding,
        tracked=tracked,
        results=results,
        source_digest=digest if has_digest else b"",
    )


def _vet(columns: dict, counts: Dict[str, int], seed_bins: int) -> None:
    """The checks a well-framed payload must still pass."""
    for name, pool in _OFFSETS.items():
        offsets = columns[name]
        binfmt.check_offsets(
            offsets, offsets.size - 1, counts[pool], name, SnapshotError
        )
    if np.any(columns["round_counts"] < 0):
        raise SnapshotError("corrupt snapshot: bad rounds count")
    if seed_bins < 1:
        raise SnapshotError("corrupt snapshot: seed_bins must be >= 1")
    warm_count = columns["d_warm_count"]
    if warm_count.size and (
        int(warm_count.min()) < 0 or int(warm_count.max()) > seed_bins
    ):
        raise SnapshotError("corrupt snapshot: warm_count out of range")
    stored = np.where(np.isnan(columns["d_median"]), warm_count, 0)
    if not np.array_equal(np.diff(columns["d_warm_offsets"]), 3 * stored):
        raise SnapshotError(
            "corrupt snapshot: warm buffer sizes disagree with warm_count"
        )


# -- persistence -------------------------------------------------------------


def save_snapshot(path: PathLike, snapshot: EngineSnapshot) -> int:
    """Persist *snapshot* to *path* durably; returns bytes written.

    :func:`repro.binfmt.atomic_write` replaces the file only once the new
    one is complete and synced, so a crashed writer never leaves a
    half-written checkpoint that a later resume would trust.
    """
    if len(snapshot.fingerprint) != _DIGEST_SIZE:
        raise SnapshotError(
            f"fingerprint must be {_DIGEST_SIZE} bytes, "
            f"got {len(snapshot.fingerprint)}"
        )
    chunks = (snapshot.fingerprint, _encode_payload(snapshot))
    return binfmt.atomic_write(path, CHECKPOINT, chunks).size


def load_snapshot(
    path: PathLike, config: Optional[PipelineConfig] = None
) -> EngineSnapshot:
    """Load and vet a snapshot; optionally pin it to a configuration.

    Raises :class:`SnapshotError` for any missing, foreign, truncated,
    corrupt, or — when *config* is given — stale file (one whose
    fingerprint does not match :func:`config_fingerprint` of *config*).
    A snapshot is **never** silently served in any of those states.
    """
    payload = binfmt.read_frame(path, CHECKPOINT)
    reader = binfmt.Reader(payload, CHECKPOINT, path)
    fingerprint = bytes(reader.take(_DIGEST_SIZE))
    if config is not None and fingerprint != config_fingerprint(config):
        raise SnapshotError(
            f"stale snapshot (config fingerprint mismatch): {path}"
        )
    snapshot = _decode_payload(reader, fingerprint)
    # One snapshot has exactly one encoding: stray flag bits, a value
    # behind a zero flag, a duplicate key or string, or strings out of
    # first-use order all decode to a snapshot that re-encodes otherwise.
    if _encode_payload(snapshot) != payload[_DIGEST_SIZE:]:
        raise SnapshotError(f"non-canonical snapshot encoding: {path}")
    return snapshot


# -- the resumable driver ----------------------------------------------------


def prepare_resume(
    pipeline, snapshot: EngineSnapshot
) -> Tuple[List[BinResult], Optional[int]]:
    """Put *pipeline* into the snapshot's state; return the replay seam.

    The shared prologue of every ``run(resume_from=...)`` path: a fresh
    pipeline is restored from the snapshot; one already holding exactly
    the snapshot's state (same processed-bin count — it was restored
    earlier) is accepted as-is; anything else raises
    :class:`SnapshotError`.  Returns ``(prior results, last covered bin
    start)`` so the caller can prepend the one and skip through the
    other.
    """
    if pipeline._bins == 0 and not pipeline._links_seen:
        pipeline.restore(snapshot)
    elif pipeline._bins != snapshot.bins_processed:
        raise SnapshotError(
            "pipeline state does not match the resume_from snapshot"
        )
    return list(snapshot.results), snapshot.last_timestamp


def run_checkpointed(
    pipeline,
    traceroutes,
    path: PathLike,
    every_bins: int = 1,
    resume: bool = True,
    source_path: Optional[PathLike] = None,
) -> Tuple[List[BinResult], bool]:
    """Replay a campaign through *pipeline* with periodic checkpoints.

    Bins the input exactly like ``pipeline.run`` (dense hourly clock),
    writes a snapshot — including the accumulated per-bin results — to
    *path* after every *every_bins* processed bins and once more at the
    end, and returns ``(results, resumed)`` where *results* covers the
    **whole** campaign (prior bins come from the checkpoint) and
    *resumed* tells whether a valid checkpoint was picked up.

    On start, an existing checkpoint is loaded and resumed from when it
    matches the pipeline's configuration fingerprint **and** embeds the
    results of every bin it covers; anything else — corrupt, stale,
    foreign, or a results-less state snapshot such as the monitor's —
    is ignored and the campaign rebuilt from scratch, exactly the
    ``load_or_build`` discipline of the bin cache.  (Resuming from a
    state-only snapshot would silently report a campaign missing its
    first bins; rebuilding is always correct.)  The pipeline must be
    fresh (no bins processed yet).

    Pass *source_path* (the file *traceroutes* was read from) to bind
    checkpoints to their input: a checkpoint whose
    :func:`source_digest_of` no longer matches — the path was reused
    against a different campaign — is treated as non-resumable instead
    of silently merging two campaigns' results.

    Because every checkpoint embeds the full result list, per-snapshot
    cost grows with campaign length; for bounded replays that is the
    point (a rerun returns the complete output), for an unbounded
    monitor use state-only ``pipeline.snapshot()`` checkpoints and emit
    results as they happen, as the ``monitor`` CLI does.
    """
    if every_bins < 1:
        raise ValueError(f"every_bins must be >= 1: {every_bins}")
    target = Path(path)
    source_digest = (
        source_digest_of(source_path) if source_path is not None else b""
    )
    snapshot: Optional[EngineSnapshot] = None
    if resume and target.exists():
        try:
            snapshot = load_snapshot(target, config=pipeline.config)
        except SnapshotError:
            snapshot = None  # corrupt or stale: rebuild from scratch
        if snapshot is not None and (
            len(snapshot.results) != snapshot.bins_processed
        ):
            snapshot = None  # state-only snapshot: not resumable here
        if (
            snapshot is not None
            and source_digest
            and snapshot.source_digest
            and snapshot.source_digest != source_digest
        ):
            snapshot = None  # checkpoint belongs to a different campaign

    def checkpoint() -> None:
        state = pipeline.snapshot(results=results)
        state.source_digest = source_digest
        save_snapshot(target, state)

    results: List[BinResult] = []
    last_done: Optional[int] = None
    if snapshot is not None:
        results, last_done = prepare_resume(pipeline, snapshot)
    pending = 0
    for start, payload in binned_payloads(
        traceroutes, bin_s=pipeline.config.bin_s, skip_through=last_done
    ):
        results.append(pipeline.process_bin(start, payload))
        pending += 1
        if pending >= every_bins:
            checkpoint()
            pending = 0
    if pending:
        checkpoint()
    return results, snapshot is not None
