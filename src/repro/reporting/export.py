"""The canonical record shape of the system's alarms and per-bin events.

:func:`delay_alarm_record`, :func:`forwarding_alarm_record` and
:func:`bin_event_record` emit JSON-serialisable dicts with a
documented, stable field order (the ``*_FIELDS`` tuples) and a
versioned ``schema`` tag (:data:`SCHEMA_VERSION`).  The ``monitor``
CLI's JSONL feed and the on-disk alarm store
(:mod:`repro.service.store`) both speak exactly this shape, and the
matching ``*_from_record`` constructors round-trip a record back into
its alarm object bit-identically — a new field must be appended (never
inserted) and bumps :data:`SCHEMA_VERSION`.
"""

from __future__ import annotations

from repro.core.alarms import DelayAlarm, ForwardingAlarm
from repro.reporting.jsonio import dumps_canonical
from repro.stats.wilson import WilsonInterval

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
    :data:`BIN_EVENT_FIELDS`.
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
