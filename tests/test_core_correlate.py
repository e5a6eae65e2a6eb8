"""Tests for cross-method event correlation."""

import pytest

from repro.core import (
    CorrelatedEvent,
    DelayAlarm,
    ForwardingAlarm,
    correlate_events,
)
from repro.net import AsMapper
from repro.reference import AlarmAggregator
from repro.stats import WilsonInterval


@pytest.fixture
def mapper():
    return AsMapper([("10.1.0.0", 16, 3356), ("10.2.0.0", 16, 3549)])


def _delay_alarm(ts, near, far, deviation=20.0):
    return DelayAlarm(
        timestamp=ts,
        link=(near, far),
        observed=WilsonInterval(20.0, 19.5, 20.5, 50),
        reference=WilsonInterval(5.0, 4.8, 5.2, 50),
        deviation=deviation,
        direction=1,
        n_probes=10,
        n_asns=4,
    )


def _fwd_alarm(ts, responsibilities):
    return ForwardingAlarm(
        timestamp=ts,
        router_ip="10.1.0.1",
        destination="dst",
        correlation=-0.8,
        responsibilities=responsibilities,
        pattern={},
        reference={},
    )


def _leak_like_aggregator(mapper):
    """200 quiet hours; hours 150-151 carry both delay and forwarding
    evidence in both ASes (a §7.2-style disruption)."""
    agg = AlarmAggregator(mapper, bin_s=3600, start=0)
    for hour in range(200):
        if hour % 17 == 0:
            agg.add_delay_alarm(
                _delay_alarm(hour * 3600, "10.1.0.1", "10.1.0.2", 0.3)
            )
    for hour in (150, 151):
        for _ in range(15):
            agg.add_delay_alarm(
                _delay_alarm(hour * 3600, "10.1.0.1", "10.2.0.2")
            )
            agg.add_forwarding_alarm(
                _fwd_alarm(hour * 3600, {"10.1.0.9": -0.6, "10.2.0.9": -0.5})
            )
    agg.close(199 * 3600)
    return agg


class TestCorrelateEvents:
    def test_single_disruption_single_event(self, mapper):
        agg = _leak_like_aggregator(mapper)
        events = correlate_events(agg, window_bins=100)
        assert len(events) == 1
        event = events[0]
        assert event.both_methods
        assert set(event.asns) == {3356, 3549}
        assert event.start_timestamp // 3600 == 150
        assert event.end_timestamp // 3600 == 151
        assert event.duration_bins == 2
        assert event.severity > 5

    def test_distinct_disruptions_stay_separate(self, mapper):
        agg = AlarmAggregator(mapper, bin_s=3600, start=0)
        for hour in (50, 120):
            for _ in range(15):
                agg.add_delay_alarm(
                    _delay_alarm(hour * 3600, "10.1.0.1", "10.1.0.2")
                )
        agg.close(200 * 3600)
        events = correlate_events(agg, window_bins=80)
        assert len(events) == 2
        hours = sorted(e.start_timestamp // 3600 for e in events)
        assert hours == [50, 120]
        assert all(not e.both_methods for e in events)

    def test_gap_bins_merging(self, mapper):
        agg = AlarmAggregator(mapper, bin_s=3600, start=0)
        for hour in (50, 52):  # one quiet bin between
            for _ in range(15):
                agg.add_delay_alarm(
                    _delay_alarm(hour * 3600, "10.1.0.1", "10.1.0.2")
                )
        agg.close(150 * 3600)
        merged = correlate_events(agg, window_bins=60, gap_bins=2)
        split = correlate_events(agg, window_bins=60, gap_bins=0)
        assert len(merged) == 1
        assert len(split) == 2

    def test_empty_aggregator(self, mapper):
        events = correlate_events(AlarmAggregator(mapper))
        assert events == []

    def test_validation(self, mapper):
        with pytest.raises(ValueError):
            correlate_events(AlarmAggregator(mapper), gap_bins=-1)

    def test_sorted_by_severity(self, mapper):
        agg = AlarmAggregator(mapper, bin_s=3600, start=0)
        for hour, dev in ((50, 10.0), (120, 50.0)):
            for _ in range(15):
                agg.add_delay_alarm(
                    _delay_alarm(hour * 3600, "10.1.0.1", "10.1.0.2", dev)
                )
        agg.close(200 * 3600)
        events = correlate_events(agg, window_bins=80)
        assert events[0].start_timestamp // 3600 == 120
        assert events[0].severity > events[1].severity
