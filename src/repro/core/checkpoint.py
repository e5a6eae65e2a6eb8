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
  :class:`~repro.core.pipeline.Pipeline` and the sharded
  :class:`~repro.core.engine.ShardedPipeline` can produce one
  (``snapshot()``) and consume one (``restore()``), so a snapshot taken
  at 2 shards restores into 4 shards — or into the serial reference —
  and continues identically;
* :func:`save_snapshot` / :func:`load_snapshot` persist snapshots as
  :mod:`repro.binfmt` files (magic, version, payload digest, durable
  atomic writes) whose payload opens with a fingerprint of the
  detection-relevant configuration, followed by a tagged little-endian
  encoding of the state.  Truncated, foreign, stale or corrupt files
  always raise :class:`SnapshotError` — they are never silently served;
* :func:`run_checkpointed` is the one-call resumable driver used by the
  CLI's ``analyze --checkpoint`` flag and the ``monitor`` subcommand: it
  replays a campaign bin by bin, checkpoints every N bins, and on
  restart resumes from the newest valid checkpoint (rebuilding from
  scratch when the file is corrupt or was written under a different
  configuration).

The format trusts nothing: the frame's digest catches random
corruption, and structural vetting (offset tables must be monotone and
anchored, array lengths must agree, warm-up counts must fit the seed
window) catches well-formed-but-wrong images.
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
#: digested payload's first 16 bytes.
MAGIC = b"RPROCKPT"
SNAPSHOT_VERSION = 2

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

#: How many bytes a fingerprint or source digest has.
_DIGEST_SIZE = binfmt.DIGEST_SIZE

#: Maximum nesting depth the payload decoder will follow.  Real
#: snapshot payloads nest ~6 levels (dict → list → result → alarm →
#: interval); anything deeper is a hostile or corrupt file and must
#: surface as SnapshotError, never as RecursionError.
_MAX_DEPTH = 64

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
    mode, RNG seed and the tracked-link set.  The shard count is
    deliberately **excluded** — state is canonical per link/model, so a
    snapshot taken at one shard count restores into any other.

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

    Produced by ``Pipeline.snapshot()`` / ``ShardedPipeline.snapshot()``
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


# -- the typed binary codec --------------------------------------------------
#
# A small recursive tagged encoding covering exactly the types snapshot
# state is made of.  Floats travel as raw IEEE-754 little-endian bytes
# and arrays as raw '<f8'/'<i8' buffers, so every value round-trips bit
# for bit; nothing is ever eval'd or unpickled, so a hostile file can at
# worst raise SnapshotError.


def _encode(obj, out: bytearray) -> None:
    kind = type(obj)
    if obj is None:
        out += b"N"
    elif obj is True:
        out += b"T"
    elif obj is False:
        out += b"F"
    elif kind is int or isinstance(obj, (int, np.integer)):
        try:
            out += b"i"
            out += _I64.pack(int(obj))
        except struct.error as exc:
            raise SnapshotError(f"integer out of int64 range: {obj}") from exc
    elif kind is float or isinstance(obj, (float, np.floating)):
        out += b"f"
        out += _F64.pack(float(obj))
    elif kind is str:
        raw = obj.encode("utf-8")
        out += b"s"
        out += _U32.pack(len(raw))
        out += raw
    elif kind is tuple:
        out += b"t"
        out += _U32.pack(len(obj))
        for item in obj:
            _encode(item, out)
    elif kind is list:
        out += b"l"
        out += _U32.pack(len(obj))
        for item in obj:
            _encode(item, out)
    elif kind is dict:
        out += b"d"
        out += _U32.pack(len(obj))
        for key, value in obj.items():
            _encode(key, out)
            _encode(value, out)
    elif isinstance(obj, np.ndarray):
        if obj.ndim != 1:
            raise SnapshotError("only 1-D arrays are serializable")
        if obj.dtype.kind == "f":
            out += b"D"
            raw = np.ascontiguousarray(obj, dtype="<f8").tobytes()
        elif obj.dtype.kind in ("i", "u"):
            out += b"I"
            raw = np.ascontiguousarray(obj, dtype="<i8").tobytes()
        else:
            raise SnapshotError(f"unsupported array dtype: {obj.dtype}")
        out += struct.pack("<Q", obj.size)
        out += raw
    elif isinstance(obj, WilsonInterval):
        out += b"W"
        out += _F64.pack(obj.median)
        out += _F64.pack(obj.lower)
        out += _F64.pack(obj.upper)
        out += _I64.pack(obj.n)
    elif isinstance(obj, TrackedLinkPoint):
        out += b"P"
        for value in (
            obj.timestamp,
            obj.observed,
            obj.reference,
            obj.alarmed,
            obj.accepted,
            obj.n_probes,
            obj.mean,
            obj.sample_std,
        ):
            _encode(value, out)
    elif isinstance(obj, DelayAlarm):
        out += b"A"
        for value in (
            obj.timestamp,
            obj.link,
            obj.observed,
            obj.reference,
            obj.deviation,
            obj.direction,
            obj.n_probes,
            obj.n_asns,
        ):
            _encode(value, out)
    elif isinstance(obj, ForwardingAlarm):
        out += b"G"
        for value in (
            obj.timestamp,
            obj.router_ip,
            obj.destination,
            obj.correlation,
            obj.responsibilities,
            obj.pattern,
            obj.reference,
        ):
            _encode(value, out)
    elif isinstance(obj, BinResult):
        out += b"B"
        for value in (
            obj.timestamp,
            obj.n_traceroutes,
            obj.n_links_observed,
            obj.n_links_analyzed,
            obj.delay_alarms,
            obj.forwarding_alarms,
        ):
            _encode(value, out)
    else:
        raise SnapshotError(
            f"unsupported snapshot value of type {kind.__name__}"
        )


def _expect(value, types, what: str):
    """Type-check one decoded field, with a corrupt-snapshot error."""
    if types is None:
        if value is not None:
            raise SnapshotError(f"corrupt snapshot: {what} must be null")
    elif not isinstance(value, types):
        raise SnapshotError(
            f"corrupt snapshot: {what} has type {type(value).__name__}"
        )
    return value


def _expect_optional(value, types, what: str):
    if value is not None and not isinstance(value, types):
        raise SnapshotError(
            f"corrupt snapshot: {what} has type {type(value).__name__}"
        )
    return value


def _decode(reader: binfmt.Reader, depth: int = 0):
    if depth > _MAX_DEPTH:
        raise SnapshotError("corrupt snapshot: nesting too deep")
    tag = bytes(reader.take(1))
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"i":
        return _I64.unpack(reader.take(8))[0]
    if tag == b"f":
        return _F64.unpack(reader.take(8))[0]
    if tag == b"s":
        (length,) = _U32.unpack(reader.take(4))
        try:
            return bytes(reader.take(length)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError("corrupt snapshot: bad utf-8") from exc
    if tag == b"t":
        (count,) = _U32.unpack(reader.take(4))
        return tuple(_decode(reader, depth + 1) for _ in range(count))
    if tag == b"l":
        (count,) = _U32.unpack(reader.take(4))
        return [_decode(reader, depth + 1) for _ in range(count)]
    if tag == b"d":
        (count,) = _U32.unpack(reader.take(4))
        result = {}
        for _ in range(count):
            key = _decode(reader, depth + 1)
            try:
                result[key] = _decode(reader, depth + 1)
            except TypeError as exc:  # unhashable key
                raise SnapshotError(
                    "corrupt snapshot: unhashable dict key"
                ) from exc
        return result
    if tag in (b"D", b"I"):
        (count,) = struct.unpack("<Q", reader.take(8))
        raw = reader.take(count * 8)
        dtype = "<f8" if tag == b"D" else "<i8"
        target = np.float64 if tag == b"D" else np.int64
        # astype fixes the byte order on big-endian hosts and makes the
        # array writable (frombuffer views are read-only).
        return np.frombuffer(raw, dtype=dtype).astype(target)
    if tag == b"W":
        median = _F64.unpack(reader.take(8))[0]
        lower = _F64.unpack(reader.take(8))[0]
        upper = _F64.unpack(reader.take(8))[0]
        n = _I64.unpack(reader.take(8))[0]
        return WilsonInterval(median=median, lower=lower, upper=upper, n=n)
    if tag == b"P":
        timestamp = _expect(_decode(reader, depth + 1), int, "point timestamp")
        observed = _expect_optional(
            _decode(reader, depth + 1), WilsonInterval, "point observed"
        )
        reference = _expect_optional(
            _decode(reader, depth + 1), WilsonInterval, "point reference"
        )
        alarmed = _expect(_decode(reader, depth + 1), bool, "point alarmed")
        accepted = _expect(_decode(reader, depth + 1), bool, "point accepted")
        n_probes = _expect(_decode(reader, depth + 1), int, "point n_probes")
        mean = _expect_optional(_decode(reader, depth + 1), float, "point mean")
        sample_std = _expect_optional(
            _decode(reader, depth + 1), float, "point sample_std"
        )
        return TrackedLinkPoint(
            timestamp=timestamp,
            observed=observed,
            reference=reference,
            alarmed=alarmed,
            accepted=accepted,
            n_probes=n_probes,
            mean=mean,
            sample_std=sample_std,
        )
    if tag == b"A":
        timestamp = _expect(_decode(reader, depth + 1), int, "alarm timestamp")
        link = _as_link(_decode(reader, depth + 1), "alarm link")
        observed = _expect(_decode(reader, depth + 1), WilsonInterval, "alarm observed")
        reference = _expect(
            _decode(reader, depth + 1), WilsonInterval, "alarm reference"
        )
        deviation = _expect(_decode(reader, depth + 1), float, "alarm deviation")
        direction = _expect(_decode(reader, depth + 1), int, "alarm direction")
        n_probes = _expect(_decode(reader, depth + 1), int, "alarm n_probes")
        n_asns = _expect(_decode(reader, depth + 1), int, "alarm n_asns")
        return DelayAlarm(
            timestamp=timestamp,
            link=link,
            observed=observed,
            reference=reference,
            deviation=deviation,
            direction=direction,
            n_probes=n_probes,
            n_asns=n_asns,
        )
    if tag == b"G":
        timestamp = _expect(_decode(reader, depth + 1), int, "alarm timestamp")
        router_ip = _expect(_decode(reader, depth + 1), str, "alarm router")
        destination = _expect(_decode(reader, depth + 1), str, "alarm destination")
        correlation = _expect(_decode(reader, depth + 1), float, "alarm correlation")
        responsibilities = _as_pattern(
            _decode(reader, depth + 1), "alarm responsibilities"
        )
        pattern = _as_pattern(_decode(reader, depth + 1), "alarm pattern")
        reference = _as_pattern(_decode(reader, depth + 1), "alarm reference")
        return ForwardingAlarm(
            timestamp=timestamp,
            router_ip=router_ip,
            destination=destination,
            correlation=correlation,
            responsibilities=responsibilities,
            pattern=pattern,
            reference=reference,
        )
    if tag == b"B":
        timestamp = _expect(_decode(reader, depth + 1), int, "bin timestamp")
        n_traceroutes = _expect(_decode(reader, depth + 1), int, "bin n_traceroutes")
        n_links_observed = _expect(
            _decode(reader, depth + 1), int, "bin n_links_observed"
        )
        n_links_analyzed = _expect(
            _decode(reader, depth + 1), int, "bin n_links_analyzed"
        )
        delay_alarms = _expect(_decode(reader, depth + 1), list, "bin delay alarms")
        forwarding_alarms = _expect(
            _decode(reader, depth + 1), list, "bin forwarding alarms"
        )
        for alarm in delay_alarms:
            _expect(alarm, DelayAlarm, "bin delay alarm")
        for alarm in forwarding_alarms:
            _expect(alarm, ForwardingAlarm, "bin forwarding alarm")
        return BinResult(
            timestamp=timestamp,
            n_traceroutes=n_traceroutes,
            n_links_observed=n_links_observed,
            n_links_analyzed=n_links_analyzed,
            delay_alarms=delay_alarms,
            forwarding_alarms=forwarding_alarms,
        )
    raise SnapshotError(f"corrupt snapshot: unknown tag {tag!r}")


def _as_link(value, what: str) -> Link:
    if (
        not isinstance(value, tuple)
        or len(value) != 2
        or not all(isinstance(part, str) for part in value)
    ):
        raise SnapshotError(f"corrupt snapshot: {what} is not a link")
    return value


def _as_pattern(value, what: str) -> Dict[str, float]:
    _expect(value, dict, what)
    for key, weight in value.items():
        if not isinstance(key, str) or not isinstance(weight, float):
            raise SnapshotError(f"corrupt snapshot: bad {what} entry")
    return value


# -- payload assembly and vetting --------------------------------------------


def _encode_payload(snapshot: EngineSnapshot) -> bytes:
    """Serialise a snapshot's canonical state into payload bytes."""
    delay = snapshot.delay
    forwarding = snapshot.forwarding
    payload = {
        "source_digest": snapshot.source_digest.hex(),
        "bins": int(snapshot.bins_processed),
        "traceroutes": int(snapshot.traceroutes_processed),
        "last_timestamp": (
            None
            if snapshot.last_timestamp is None
            else int(snapshot.last_timestamp)
        ),
        "links_seen": list(snapshot.links_seen),
        "rounds": {
            link: int(count) for link, count in snapshot.rounds.items()
        },
        "delay": {
            "seed_bins": int(delay.seed_bins),
            "links": list(delay.links),
            "median": delay.median,
            "lower": delay.lower,
            "upper": delay.upper,
            "warm_count": delay.warm_count,
            "bins_seen": delay.bins_seen,
            "alarms_raised": delay.alarms_raised,
            "max_probes": delay.max_probes,
            "warm_offsets": delay.warm_offsets,
            "warm_values": delay.warm_values,
        },
        "forwarding": {
            "keys": list(forwarding.keys),
            "bins_seen": forwarding.bins_seen,
            "alarms_raised": forwarding.alarms_raised,
            "ref_offsets": forwarding.ref_offsets,
            "ref_hops": list(forwarding.ref_hops),
            "ref_weights": forwarding.ref_weights,
        },
        "tracked": {
            link: list(points) for link, points in snapshot.tracked.items()
        },
        "results": list(snapshot.results),
    }
    out = bytearray()
    _encode(payload, out)
    return bytes(out)


def _array_field(section: dict, name: str, kind: str, what: str) -> np.ndarray:
    value = section.get(name)
    if not isinstance(value, np.ndarray) or value.dtype.kind != kind:
        raise SnapshotError(f"corrupt snapshot: bad {what} column {name!r}")
    return value


def _build_snapshot(payload: dict, fingerprint: bytes) -> EngineSnapshot:
    """Structural vetting: turn decoded payload into an EngineSnapshot."""
    _expect(payload, dict, "payload")
    try:
        source_digest = bytes.fromhex(
            _expect(payload.get("source_digest"), str, "source_digest")
        )
    except ValueError as exc:
        raise SnapshotError("corrupt snapshot: bad source digest") from exc
    if source_digest and len(source_digest) != _DIGEST_SIZE:
        raise SnapshotError("corrupt snapshot: bad source digest")
    bins = _expect(payload.get("bins"), int, "bins")
    traceroutes = _expect(payload.get("traceroutes"), int, "traceroutes")
    last_timestamp = _expect_optional(
        payload.get("last_timestamp"), int, "last_timestamp"
    )
    links_seen = _expect(payload.get("links_seen"), list, "links_seen")
    for link in links_seen:
        _as_link(link, "links_seen entry")
    rounds = _expect(payload.get("rounds"), dict, "rounds")
    for link, count in rounds.items():
        _as_link(link, "rounds key")
        if not isinstance(count, int) or count < 0:
            raise SnapshotError("corrupt snapshot: bad rounds count")

    section = _expect(payload.get("delay"), dict, "delay table")
    seed_bins = _expect(section.get("seed_bins"), int, "seed_bins")
    if seed_bins < 1:
        raise SnapshotError("corrupt snapshot: seed_bins must be >= 1")
    delay_links = _expect(section.get("links"), list, "delay links")
    for link in delay_links:
        _as_link(link, "delay link")
    n = len(delay_links)
    median = _array_field(section, "median", "f", "delay")
    lower = _array_field(section, "lower", "f", "delay")
    upper = _array_field(section, "upper", "f", "delay")
    warm_count = _array_field(section, "warm_count", "i", "delay")
    bins_seen = _array_field(section, "bins_seen", "i", "delay")
    alarms_raised = _array_field(section, "alarms_raised", "i", "delay")
    max_probes = _array_field(section, "max_probes", "i", "delay")
    warm_offsets = _array_field(section, "warm_offsets", "i", "delay")
    warm_values = _array_field(section, "warm_values", "f", "delay")
    for column in (median, lower, upper, warm_count, bins_seen,
                   alarms_raised, max_probes):
        if column.size != n:
            raise SnapshotError(
                "corrupt snapshot: delay column length mismatch"
            )
    if warm_count.size and (
        int(warm_count.min()) < 0 or int(warm_count.max()) > seed_bins
    ):
        raise SnapshotError("corrupt snapshot: warm_count out of range")
    binfmt.check_offsets(
        warm_offsets, n, warm_values.size, "warm_offsets", SnapshotError
    )
    stored = np.where(np.isnan(median), warm_count, 0)
    if not np.array_equal(np.diff(warm_offsets), 3 * stored):
        raise SnapshotError(
            "corrupt snapshot: warm buffer sizes disagree with warm_count"
        )
    delay = DelayTable(
        links=delay_links,
        median=median,
        lower=lower,
        upper=upper,
        warm_count=warm_count,
        bins_seen=bins_seen,
        alarms_raised=alarms_raised,
        max_probes=max_probes,
        warm_offsets=warm_offsets,
        warm_values=warm_values,
        seed_bins=seed_bins,
    )

    section = _expect(payload.get("forwarding"), dict, "forwarding table")
    keys = _expect(section.get("keys"), list, "forwarding keys")
    for key in keys:
        _as_link(key, "forwarding key")
    m = len(keys)
    fwd_bins = _array_field(section, "bins_seen", "i", "forwarding")
    fwd_alarms = _array_field(section, "alarms_raised", "i", "forwarding")
    ref_offsets = _array_field(section, "ref_offsets", "i", "forwarding")
    ref_weights = _array_field(section, "ref_weights", "f", "forwarding")
    ref_hops = _expect(section.get("ref_hops"), list, "forwarding hops")
    for hop in ref_hops:
        _expect(hop, str, "forwarding hop")
    if fwd_bins.size != m or fwd_alarms.size != m:
        raise SnapshotError(
            "corrupt snapshot: forwarding column length mismatch"
        )
    if len(ref_hops) != ref_weights.size:
        raise SnapshotError(
            "corrupt snapshot: forwarding reference length mismatch"
        )
    binfmt.check_offsets(
        ref_offsets, m, len(ref_hops), "ref_offsets", SnapshotError
    )
    forwarding = ForwardingTable(
        keys=keys,
        bins_seen=fwd_bins,
        alarms_raised=fwd_alarms,
        ref_offsets=ref_offsets,
        ref_hops=ref_hops,
        ref_weights=ref_weights,
    )

    tracked = _expect(payload.get("tracked"), dict, "tracked table")
    for link, points in tracked.items():
        _as_link(link, "tracked link")
        _expect(points, list, "tracked points")
        for point in points:
            _expect(point, TrackedLinkPoint, "tracked point")
    results = _expect(payload.get("results"), list, "results")
    for result in results:
        _expect(result, BinResult, "result")

    return EngineSnapshot(
        fingerprint=fingerprint,
        bins_processed=bins,
        traceroutes_processed=traceroutes,
        last_timestamp=last_timestamp,
        links_seen=links_seen,
        rounds=rounds,
        delay=delay,
        forwarding=forwarding,
        tracked=tracked,
        results=results,
        source_digest=source_digest,
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
    decoded = _decode(reader)
    reader.done()
    return _build_snapshot(decoded, fingerprint)


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
