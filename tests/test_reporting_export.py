"""Tests for CSV export of figure data and the canonical alarm records."""

import csv

import networkx as nx
import pytest

from repro.core import alarm_graph, DelayAlarm, ForwardingAlarm
from repro.core.pipeline import BinResult, TrackedLinkPoint
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
    write_alarm_graph,
    write_distribution,
    write_magnitude_series,
    write_tracked_link,
)
from repro.stats import WilsonInterval


def _read(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestMagnitudeSeries:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "mag.csv"
        rows = write_magnitude_series(path, [0, 3600], [1.5, -2.0])
        assert rows == 2
        data = _read(path)
        assert data[0] == ["timestamp", "magnitude"]
        assert data[1] == ["0", "1.500000"]
        assert data[2][1] == "-2.000000"

    def test_with_severity_column(self, tmp_path):
        path = tmp_path / "mag.csv"
        write_magnitude_series(path, [0], [1.0], values=[42.0])
        data = _read(path)
        assert data[0] == ["timestamp", "magnitude", "severity"]
        assert data[1][2] == "42.000000"

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_magnitude_series(tmp_path / "x.csv", [0, 1], [1.0])
        with pytest.raises(ValueError):
            write_magnitude_series(
                tmp_path / "x.csv", [0], [1.0], values=[1.0, 2.0]
            )


class TestTrackedLink:
    def test_full_and_gap_rows(self, tmp_path):
        points = [
            TrackedLinkPoint(
                timestamp=0,
                observed=WilsonInterval(5.0, 4.9, 5.1, 100),
                reference=WilsonInterval(5.0, 4.9, 5.1, 10),
                alarmed=True,
                accepted=True,
                n_probes=12,
                mean=5.2,
                sample_std=1.1,
            ),
            TrackedLinkPoint(
                timestamp=3600,
                observed=None,
                reference=None,
                alarmed=False,
                accepted=False,
                n_probes=0,
            ),
        ]
        path = tmp_path / "link.csv"
        assert write_tracked_link(path, points) == 2
        data = _read(path)
        assert data[1][1] == "5.000000"
        assert data[1][10] == "1"  # alarmed
        assert data[2][1] == ""  # gap bin
        assert data[2][10] == "0"


class TestDistribution:
    def test_write(self, tmp_path):
        path = tmp_path / "dist.csv"
        assert write_distribution(path, [1.0, 2.5], column="mag") == 2
        data = _read(path)
        assert data[0] == ["mag"]
        assert data[2] == ["2.500000"]


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


class TestAlarmGraph:
    def test_edge_list(self, tmp_path):
        alarm = DelayAlarm(
            timestamp=0,
            link=("A", "B"),
            observed=WilsonInterval(15.0, 14.5, 15.5, 50),
            reference=WilsonInterval(5.0, 4.8, 5.2, 50),
            deviation=9.0,
            direction=1,
            n_probes=5,
            n_asns=3,
        )
        graph = alarm_graph([alarm])
        path = tmp_path / "graph.csv"
        assert write_alarm_graph(path, graph) == 1
        data = _read(path)
        assert data[1][0] == "A" and data[1][1] == "B"
        assert float(data[1][3]) == pytest.approx(10.0)

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_alarm_graph(path, nx.Graph()) == 0
