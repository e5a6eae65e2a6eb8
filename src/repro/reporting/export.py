"""CSV export of figure data series and canonical alarm/event records.

The benchmarks print text renderings; for external plotting (matplotlib,
gnuplot, spreadsheets) these helpers write the underlying series as
plain CSV files: magnitude time series (Figures 6/9/10/13), tracked-link
differential RTT series (Figures 2/7/11), distribution samples
(Figure 5) and alarm graph edge lists (Figures 8/12).

The module also owns the **canonical record shape** of the system's
alarms and per-bin events: :func:`delay_alarm_record`,
:func:`forwarding_alarm_record` and :func:`bin_event_record` emit
JSON-serialisable dicts with a documented, stable field order (the
``*_FIELDS`` tuples) and a versioned ``schema`` tag
(:data:`SCHEMA_VERSION`).  The ``monitor`` CLI's JSONL feed and the
on-disk alarm store (:mod:`repro.service.store`) both speak exactly this
shape, and the matching ``*_from_record`` constructors round-trip a
record back into its alarm object bit-identically — a new field must be
appended (never inserted) and bumps :data:`SCHEMA_VERSION`.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.alarms import DelayAlarm, ForwardingAlarm
from repro.reporting.jsonio import dumps_canonical
from repro.stats.wilson import WilsonInterval

if TYPE_CHECKING:  # annotations only: networkx loads on first use, and
    # `serve` decodes alarm records without loading the pipeline
    import networkx as nx

    from repro.core.pipeline import BinResult, TrackedLinkPoint

PathLike = Union[str, Path]

#: Version tag carried by every record's ``schema`` key.  Bumped when a
#: record's field set or field order changes incompatibly.
SCHEMA_VERSION = 1

#: Stable field order of :func:`delay_alarm_record` (JSON dicts preserve
#: insertion order, so consumers may rely on it).
DELAY_ALARM_FIELDS = (
    "schema", "kind", "timestamp", "link", "observed", "reference",
    "deviation", "direction", "median_shift_ms", "n_probes", "n_asns",
)

#: Stable field order of :func:`forwarding_alarm_record`.
FORWARDING_ALARM_FIELDS = (
    "schema", "kind", "timestamp", "router_ip", "destination",
    "correlation", "responsibilities", "pattern", "reference",
)

#: Stable field order of :func:`bin_event_record`.
BIN_EVENT_FIELDS = (
    "schema", "bin", "n_traceroutes", "n_links_observed",
    "n_links_analyzed", "delay_alarms", "forwarding_alarms",
)


def _schema_tag(name: str) -> str:
    """The versioned ``schema`` value for record kind *name*."""
    return f"{name}/v{SCHEMA_VERSION}"


def write_magnitude_series(
    path: PathLike,
    timestamps: Sequence[int],
    magnitudes: Sequence[float],
    values: Optional[Sequence[float]] = None,
) -> int:
    """Write one AS's severity/magnitude series; returns rows written."""
    timestamps = list(timestamps)
    magnitudes = list(magnitudes)
    if len(timestamps) != len(magnitudes):
        raise ValueError(
            f"length mismatch: {len(timestamps)} timestamps vs "
            f"{len(magnitudes)} magnitudes"
        )
    if values is not None and len(values) != len(timestamps):
        raise ValueError("values length mismatch")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        header = ["timestamp", "magnitude"]
        if values is not None:
            header.append("severity")
        writer.writerow(header)
        for index, (ts, mag) in enumerate(zip(timestamps, magnitudes)):
            row = [ts, f"{float(mag):.6f}"]
            if values is not None:
                row.append(f"{float(values[index]):.6f}")
            writer.writerow(row)
    return len(timestamps)


def write_tracked_link(
    path: PathLike, points: Iterable[TrackedLinkPoint]
) -> int:
    """Write a tracked link's per-bin series (Figure 2/7/11 material)."""
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "timestamp", "median", "ci_lower", "ci_upper",
                "ref_median", "ref_lower", "ref_upper",
                "mean", "sample_std", "n_probes", "alarmed", "accepted",
            ]
        )
        for point in points:
            observed = point.observed
            reference = point.reference
            writer.writerow(
                [
                    point.timestamp,
                    f"{observed.median:.6f}" if observed else "",
                    f"{observed.lower:.6f}" if observed else "",
                    f"{observed.upper:.6f}" if observed else "",
                    f"{reference.median:.6f}" if reference else "",
                    f"{reference.lower:.6f}" if reference else "",
                    f"{reference.upper:.6f}" if reference else "",
                    f"{point.mean:.6f}" if point.mean is not None else "",
                    f"{point.sample_std:.6f}"
                    if point.sample_std is not None
                    else "",
                    point.n_probes,
                    int(point.alarmed),
                    int(point.accepted),
                ]
            )
            rows += 1
    return rows


def write_distribution(
    path: PathLike, values: Sequence[float], column: str = "value"
) -> int:
    """Write raw distribution samples (Figure 5 material)."""
    array = np.asarray(values, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([column])
        for value in array:
            writer.writerow([f"{value:.6f}"])
    return int(array.size)


def delay_alarm_record(alarm) -> dict:
    """One delay alarm as a JSON-serialisable dict (monitor feed line).

    The record carries everything an operator needs to triage without
    the binary state: the link, both intervals, Eq. 6 deviation,
    direction and the probe/AS support behind the observation.  Field
    order is :data:`DELAY_ALARM_FIELDS`;
    :func:`delay_alarm_from_record` round-trips it.
    """
    return {
        "schema": _schema_tag("delay_alarm"),
        "kind": "delay",
        "timestamp": alarm.timestamp,
        "link": list(alarm.link),
        "observed": {
            "median": alarm.observed.median,
            "lower": alarm.observed.lower,
            "upper": alarm.observed.upper,
            "n": alarm.observed.n,
        },
        "reference": {
            "median": alarm.reference.median,
            "lower": alarm.reference.lower,
            "upper": alarm.reference.upper,
            "n": alarm.reference.n,
        },
        "deviation": alarm.deviation,
        "direction": alarm.direction,
        "median_shift_ms": alarm.median_shift_ms,
        "n_probes": alarm.n_probes,
        "n_asns": alarm.n_asns,
    }


def forwarding_alarm_record(alarm) -> dict:
    """One forwarding alarm as a JSON-serialisable dict (monitor feed line).

    Field order is :data:`FORWARDING_ALARM_FIELDS`; the three hop→value
    maps keep their dicts' insertion order, and
    :func:`forwarding_alarm_from_record` round-trips the record.
    """
    return {
        "schema": _schema_tag("forwarding_alarm"),
        "kind": "forwarding",
        "timestamp": alarm.timestamp,
        "router_ip": alarm.router_ip,
        "destination": alarm.destination,
        "correlation": alarm.correlation,
        "responsibilities": dict(alarm.responsibilities),
        "pattern": dict(alarm.pattern),
        "reference": dict(alarm.reference),
    }


def bin_event_record(result) -> dict:
    """One closed bin's monitor output as a JSON-serialisable dict.

    The ``monitor`` CLI emits one of these per closed time bin (JSONL
    mode); alarms ride along as :func:`delay_alarm_record` /
    :func:`forwarding_alarm_record` entries.  Field order is
    :data:`BIN_EVENT_FIELDS`; :func:`bin_result_from_record` round-trips
    the record.
    """
    return {
        "schema": _schema_tag("bin_event"),
        "bin": result.timestamp,
        "n_traceroutes": result.n_traceroutes,
        "n_links_observed": result.n_links_observed,
        "n_links_analyzed": result.n_links_analyzed,
        "delay_alarms": [
            delay_alarm_record(alarm) for alarm in result.delay_alarms
        ],
        "forwarding_alarms": [
            forwarding_alarm_record(alarm)
            for alarm in result.forwarding_alarms
        ],
    }


def record_json(record: dict) -> str:
    """One record as a canonical JSON feed line (no trailing newline).

    The serialisation half of the record shapes above: keys sorted,
    compact separators, rendered through the accelerated writer
    (:func:`repro.reporting.jsonio.dumps_canonical`).  ``monitor
    --json`` emits exactly this per closed bin.
    """
    return dumps_canonical(record).decode("utf-8")


def _check_schema(record: dict, name: str) -> None:
    """Reject records of a foreign kind or an incompatible version."""
    tag = record.get("schema")
    if tag is not None and tag != _schema_tag(name):
        raise ValueError(
            f"record schema {tag!r} is not {_schema_tag(name)!r}"
        )


def _interval_from(payload: dict) -> WilsonInterval:
    """Rebuild a :class:`WilsonInterval` from its record sub-dict."""
    return WilsonInterval(
        median=float(payload["median"]),
        lower=float(payload["lower"]),
        upper=float(payload["upper"]),
        n=int(payload["n"]),
    )


def delay_alarm_from_record(record: dict) -> DelayAlarm:
    """Inverse of :func:`delay_alarm_record` (bit-identical round trip).

    Accepts schema-less records (old monitor feeds) but rejects records
    carrying a foreign ``schema`` tag.
    """
    _check_schema(record, "delay_alarm")
    return DelayAlarm(
        timestamp=int(record["timestamp"]),
        link=(str(record["link"][0]), str(record["link"][1])),
        observed=_interval_from(record["observed"]),
        reference=_interval_from(record["reference"]),
        deviation=float(record["deviation"]),
        direction=int(record["direction"]),
        n_probes=int(record["n_probes"]),
        n_asns=int(record["n_asns"]),
    )


def forwarding_alarm_from_record(record: dict) -> ForwardingAlarm:
    """Inverse of :func:`forwarding_alarm_record` (bit-identical round trip).

    The hop→value maps are rebuilt in the record's key order, so a
    round-tripped alarm compares equal *and* iterates identically.
    """
    _check_schema(record, "forwarding_alarm")
    return ForwardingAlarm(
        timestamp=int(record["timestamp"]),
        router_ip=str(record["router_ip"]),
        destination=str(record["destination"]),
        correlation=float(record["correlation"]),
        responsibilities={
            str(hop): float(value)
            for hop, value in record["responsibilities"].items()
        },
        pattern={
            str(hop): float(value)
            for hop, value in record["pattern"].items()
        },
        reference={
            str(hop): float(value)
            for hop, value in record["reference"].items()
        },
    )


def bin_result_from_record(record: dict) -> BinResult:
    """Inverse of :func:`bin_event_record` (bit-identical round trip)."""
    from repro.core.pipeline import BinResult

    _check_schema(record, "bin_event")
    return BinResult(
        timestamp=int(record["bin"]),
        n_traceroutes=int(record["n_traceroutes"]),
        n_links_observed=int(record["n_links_observed"]),
        n_links_analyzed=int(record["n_links_analyzed"]),
        delay_alarms=[
            delay_alarm_from_record(entry)
            for entry in record["delay_alarms"]
        ],
        forwarding_alarms=[
            forwarding_alarm_from_record(entry)
            for entry in record["forwarding_alarms"]
        ],
    )


def write_alarm_graph(path: PathLike, graph: nx.Graph) -> int:
    """Write an alarm graph edge list (Figure 8/12 material)."""
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "near_ip", "far_ip", "deviation", "median_shift_ms",
                "direction", "near_in_forwarding", "far_in_forwarding",
            ]
        )
        for near, far, data in graph.edges(data=True):
            writer.writerow(
                [
                    near,
                    far,
                    f"{data.get('deviation', 0.0):.4f}",
                    f"{data.get('median_shift_ms', 0.0):.4f}",
                    data.get("direction", 0),
                    int(graph.nodes[near].get("in_forwarding_alarm", False)),
                    int(graph.nodes[far].get("in_forwarding_alarm", False)),
                ]
            )
            rows += 1
    return rows
