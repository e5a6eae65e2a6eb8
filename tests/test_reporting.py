"""Tests for the reporting layer (render + IHR API)."""

import json

import numpy as np
import pytest

from repro.atlas import make_traceroute
from repro.core import analyze_campaign
from repro.net import AsMapper
from repro.reference import InternetHealthReport
from repro.reporting import (
    format_table,
    render_cdf,
    render_qq,
    render_series,
    sparkline,
)


class TestSparkline:
    def test_monotone(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == " " and line[-1] == "█"

    def test_constant(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_downsampling(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10

    def test_no_downsampling_if_short(self):
        assert len(sparkline([1, 2], width=10)) == 2


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["name", "v"], [["a", 1], ["long-name", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]
        # all rows align on the second column
        assert lines[2].index("1") == lines[3].index("2")

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestRenderers:
    def test_render_series(self):
        out = render_series([0, 3600, 7200], [1.0, 5.0, 2.0], title="t")
        assert "t" in out
        assert "max=5.00" in out
        assert "hours 0..2" in out

    def test_render_series_empty(self):
        assert "(empty)" in render_series([], [], title="x")

    def test_render_cdf(self):
        out = render_cdf(list(range(1000)), title="dist")
        assert "dist" in out and "0.500" in out

    def test_render_qq(self):
        rng = np.random.default_rng(1)
        from repro.stats import normal_qq

        theo, obs = normal_qq(rng.normal(size=200))
        out = render_qq(theo, obs)
        assert "residual" in out

    def test_render_qq_validates(self):
        with pytest.raises(ValueError):
            render_qq([1.0], [1.0, 2.0])


def _campaign_with_event():
    """Tiny synthetic campaign: stable link, then a 2-bin delay event."""
    rng = np.random.default_rng(0)
    traceroutes = []
    for hour in range(12):
        shift = 20.0 if hour in (8, 9) else 0.0
        for probe in range(9):
            asn = 65001 + probe % 3
            base = 10.0 + probe
            noise = rng.normal(0, 0.1, size=2)
            traceroutes.append(
                make_traceroute(
                    probe,
                    f"s{probe}",
                    "dst",
                    hour * 3600,
                    [
                        [("10.1.0.1", base + noise[0])],
                        [("10.2.0.1", base + 5.0 + shift + noise[1])],
                    ],
                    from_asn=asn,
                )
            )
    mapper = AsMapper([("10.1.0.0", 16, 111), ("10.2.0.0", 16, 222)])
    return analyze_campaign(traceroutes, mapper)


class TestInternetHealthReport:
    @pytest.fixture(scope="class")
    def report(self):
        return InternetHealthReport(_campaign_with_event(), window_bins=6)

    def test_monitored_asns(self, report):
        assert set(report.monitored_asns()) == {111, 222}

    def test_as_condition_flags_event(self, report):
        condition = report.as_condition(111)
        assert condition.delay_alarm_count == 2
        assert condition.peak_delay_hour in (8, 9)
        assert condition.peak_delay_magnitude > 1
        assert not condition.healthy

    def test_unknown_as_is_healthy(self, report):
        condition = report.as_condition(99999)
        assert condition.healthy
        assert condition.delay_alarm_count == 0
        assert condition.peak_delay_hour is None

    def test_magnitude_series(self, report):
        timestamps, magnitudes = report.magnitude_series(111, "delay")
        assert len(timestamps) == len(magnitudes) == 12
        assert int(np.argmax(magnitudes)) in (8, 9)

    def test_magnitude_series_unknown(self, report):
        timestamps, magnitudes = report.magnitude_series(99999)
        assert timestamps == [] and magnitudes.size == 0

    def test_magnitude_series_validates_kind(self, report):
        with pytest.raises(ValueError):
            report.magnitude_series(111, "nonsense")

    def test_top_events(self, report):
        events = report.top_events("delay", threshold=1.0)
        assert events
        assert events[0].asn in (111, 222)
        assert events[0].timestamp // 3600 in (8, 9)

    def test_alarms_at(self, report):
        delay, forwarding = report.alarms_at(8 * 3600 + 120)
        assert len(delay) == 1
        assert forwarding == []
        delay_quiet, _ = report.alarms_at(2 * 3600)
        assert delay_quiet == []

    def test_alarms_involving(self, report):
        alarms = report.alarms_involving("10.2.0.1")
        assert len(alarms) == 2
        assert report.alarms_involving("8.8.8.8") == []

    def test_json_export(self, report):
        payload = json.loads(report.to_json())
        assert payload["monitored_asns"] == [111, 222]
        assert payload["stats"]["links_analyzed"] == 1
        assert len(payload["conditions"]) == 2
        assert payload["empty"] is False
        assert all("healthy" in c for c in payload["conditions"])

    # -- deterministic orderings (regression: ties must not depend on
    # dict insertion order) -------------------------------------------------

    def test_tied_events_ordered_by_asn_then_time(self, report):
        """AS 111 and 222 get identical magnitudes from the same link's
        alarms — ties must break by (ASN, timestamp), deterministically."""
        events = report.top_events("delay", threshold=1.0, limit=50)
        assert len(events) >= 2
        keys = [(-abs(e.magnitude), e.asn, e.timestamp) for e in events]
        assert keys == sorted(keys)
        top_two = {events[0], events[1]}
        assert {e.asn for e in top_two} == {111, 222}
        assert events[0].asn == 111  # the tie breaks toward the lower ASN

    def test_top_asns_ranking_and_ties(self, report):
        ranking = report.top_asns("delay", k=10)
        assert [asn for asn, _ in ranking] == [111, 222]
        assert ranking[0][1] == ranking[1][1]  # a genuine tie
        assert report.top_asns("delay", k=1) == ranking[:1]
        with pytest.raises(ValueError):
            report.top_asns("delay", k=-1)

    def test_links_of_groups_alarms(self, report):
        links = report.links_of(111)
        assert len(links) == 1
        summary = links[0]
        assert summary.link == ("10.1.0.1", "10.2.0.1")
        assert summary.alarm_count == 2
        assert summary.peak_deviation > 0
        assert summary.total_deviation >= summary.peak_deviation
        assert summary.last_timestamp // 3600 == 9
        assert report.links_of(99999) == []

    def test_events_in_window(self, report):
        everything = report.top_events("delay", threshold=1.0, limit=50)
        windowed = report.events_in(8 * 3600, 10 * 3600, "delay", 1.0)
        assert windowed
        assert all(
            8 * 3600 <= e.timestamp < 10 * 3600 for e in windowed
        )
        assert set(windowed) <= set(everything)
        assert report.events_in(0, 3600, "delay", 1.0) == []
        with pytest.raises(ValueError):
            report.events_in(10, 5, "delay", 1.0)


class TestEmptyCampaign:
    """No alarms must mean a healthy report, never an exception."""

    @pytest.fixture(scope="class")
    def empty_report(self):
        mapper = AsMapper([("10.1.0.0", 16, 111)])
        return InternetHealthReport(analyze_campaign([], mapper))

    def test_is_empty_and_monitored(self, empty_report):
        assert empty_report.is_empty
        assert empty_report.monitored_asns() == []

    def test_conditions_are_healthy(self, empty_report):
        condition = empty_report.as_condition(111)
        assert condition.healthy
        assert condition.delay_alarm_count == 0
        assert condition.peak_delay_hour is None

    def test_event_queries_are_empty(self, empty_report):
        assert empty_report.top_events("delay", threshold=1.0) == []
        assert empty_report.top_asns("forwarding") == []
        assert empty_report.events_in(0, 10**9, "delay", 1.0) == []
        assert empty_report.links_of(111) == []
        delay, forwarding = empty_report.alarms_at(0)
        assert delay == [] and forwarding == []
        assert empty_report.alarms_involving("10.1.0.1") == []

    def test_magnitude_series_empty(self, empty_report):
        timestamps, magnitudes = empty_report.magnitude_series(111)
        assert timestamps == [] and magnitudes.size == 0

    def test_json_is_explicit_healthy_report(self, empty_report):
        payload = json.loads(empty_report.to_json())
        assert payload["empty"] is True
        assert payload["monitored_asns"] == []
        assert payload["conditions"] == []

    def test_alarm_free_campaign_with_traffic(self):
        """Traceroutes but zero alarms is also an explicit healthy report."""
        from repro.atlas import make_traceroute

        traceroutes = [
            make_traceroute(
                probe, f"s{probe}", "dst", 0,
                [[("10.1.0.1", 10.0)], [("10.2.0.1", 15.0)]],
                from_asn=65001 + probe,
            )
            for probe in range(3)
        ]
        mapper = AsMapper([("10.1.0.0", 16, 111)])
        report = InternetHealthReport(analyze_campaign(traceroutes, mapper))
        assert report.is_empty
        assert report.monitored_asns() == []
        assert report.as_condition(111).healthy
