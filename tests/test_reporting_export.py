"""Tests for the canonical alarm and per-bin event records."""

import pytest

from repro.core import DelayAlarm, ForwardingAlarm
from repro.core.pipeline import BinResult
from repro.reporting import (
    BIN_EVENT_FIELDS,
    DELAY_ALARM_FIELDS,
    FORWARDING_ALARM_FIELDS,
    SCHEMA_VERSION,
    bin_event_record,
    delay_alarm_from_record,
    delay_alarm_record,
    forwarding_alarm_from_record,
    forwarding_alarm_record,
)
from repro.stats import WilsonInterval


def _delay_alarm() -> DelayAlarm:
    return DelayAlarm(
        timestamp=7200,
        link=("10.0.0.1", "10.0.0.2"),
        observed=WilsonInterval(15.25, 14.5, 15.75, 50),
        reference=WilsonInterval(5.125, 4.875, 5.5, 41),
        deviation=9.0625,
        direction=1,
        n_probes=7,
        n_asns=3,
    )


def _forwarding_alarm() -> ForwardingAlarm:
    return ForwardingAlarm(
        timestamp=7200,
        router_ip="10.0.0.1",
        destination="anchor-3",
        correlation=-0.75,
        responsibilities={"10.0.1.1": -1.5, "*": 0.25, "10.0.2.1": 1.25},
        pattern={"10.0.1.1": 0.0, "*": 4.0, "10.0.2.1": 12.0},
        reference={"10.0.1.1": 9.5, "*": 1.0, "10.0.2.1": 2.5},
    )


class TestCanonicalRecords:
    """The alarm/event records are versioned, ordered and round-trip."""

    def test_delay_schema_and_field_order(self):
        record = delay_alarm_record(_delay_alarm())
        assert record["schema"] == f"delay_alarm/v{SCHEMA_VERSION}"
        assert tuple(record) == DELAY_ALARM_FIELDS

    def test_forwarding_schema_and_field_order(self):
        record = forwarding_alarm_record(_forwarding_alarm())
        assert record["schema"] == f"forwarding_alarm/v{SCHEMA_VERSION}"
        assert tuple(record) == FORWARDING_ALARM_FIELDS

    def test_bin_event_schema_and_field_order(self):
        result = BinResult(
            timestamp=7200, n_traceroutes=9, n_links_observed=4,
            n_links_analyzed=3, delay_alarms=[_delay_alarm()],
            forwarding_alarms=[_forwarding_alarm()],
        )
        record = bin_event_record(result)
        assert record["schema"] == f"bin_event/v{SCHEMA_VERSION}"
        assert tuple(record) == BIN_EVENT_FIELDS

    def test_delay_round_trip_is_bit_identical(self):
        alarm = _delay_alarm()
        assert delay_alarm_from_record(delay_alarm_record(alarm)) == alarm

    def test_forwarding_round_trip_preserves_order(self):
        alarm = _forwarding_alarm()
        rebuilt = forwarding_alarm_from_record(
            forwarding_alarm_record(alarm)
        )
        assert rebuilt == alarm
        assert list(rebuilt.responsibilities) == list(
            alarm.responsibilities
        )
        assert list(rebuilt.pattern) == list(alarm.pattern)

    def test_schema_less_record_accepted(self):
        record = delay_alarm_record(_delay_alarm())
        del record["schema"]  # an old (pre-schema) monitor feed line
        assert delay_alarm_from_record(record) == _delay_alarm()

    def test_foreign_schema_rejected(self):
        record = delay_alarm_record(_delay_alarm())
        record["schema"] = "delay_alarm/v999"
        with pytest.raises(ValueError):
            delay_alarm_from_record(record)
        swapped = forwarding_alarm_record(_forwarding_alarm())
        with pytest.raises(ValueError):
            delay_alarm_from_record(swapped)

    def test_json_round_trip(self):
        """The records survive a JSON hop (the monitor's JSONL path)."""
        import json

        alarm = _forwarding_alarm()
        record = json.loads(json.dumps(forwarding_alarm_record(alarm)))
        assert forwarding_alarm_from_record(record) == alarm
