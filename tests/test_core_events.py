"""Tests for AS-level aggregation and the Eq. 10 magnitude (paper §6)."""

import numpy as np
import pytest

from repro.core import DelayAlarm, ForwardingAlarm
from repro.core.alarms import UNRESPONSIVE
from repro.net import AsMapper
from repro.reference import AlarmAggregator, AsTimeSeries
from repro.stats import WilsonInterval


@pytest.fixture
def mapper():
    return AsMapper(
        [
            ("10.1.0.0", 16, 3356),
            ("10.2.0.0", 16, 3549),
            ("10.3.0.0", 16, 25152),
        ]
    )


def _delay_alarm(ts, near, far, deviation):
    return DelayAlarm(
        timestamp=ts,
        link=(near, far),
        observed=WilsonInterval(10.0, 9.5, 10.5, 50),
        reference=WilsonInterval(5.0, 4.8, 5.2, 50),
        deviation=deviation,
        direction=1,
        n_probes=10,
        n_asns=4,
    )


def _fwd_alarm(ts, router, responsibilities):
    return ForwardingAlarm(
        timestamp=ts,
        router_ip=router,
        destination="dst",
        correlation=-0.7,
        responsibilities=responsibilities,
        pattern={},
        reference={},
    )


class TestAsTimeSeries:
    def test_accumulates_into_bins(self):
        series = AsTimeSeries(asn=1, bin_s=3600, start=0)
        series.add(100, 2.0)
        series.add(200, 3.0)
        series.add(3700, 1.0)
        assert series.values == [5.0, 1.0]
        assert series.timestamps() == [0, 3600]

    def test_pad_to(self):
        series = AsTimeSeries(asn=1, bin_s=3600, start=0)
        series.add(0, 1.0)
        series.pad_to(3 * 3600)
        assert series.values == [1.0, 0.0, 0.0, 0.0]

    def test_rejects_pre_start_timestamps(self):
        series = AsTimeSeries(asn=1, bin_s=3600, start=7200)
        with pytest.raises(ValueError):
            series.add(0, 1.0)

    def test_magnitudes_flag_spike(self):
        series = AsTimeSeries(asn=1, bin_s=3600, start=0)
        for hour in range(100):
            series.add(hour * 3600, 0.0)
        series.add(100 * 3600, 500.0)
        magnitudes = series.magnitudes(window_bins=50)
        assert np.argmax(magnitudes) == 100
        assert magnitudes[100] > 100


class TestDelayAggregation:
    def test_same_as_link_single_group(self, mapper):
        agg = AlarmAggregator(mapper)
        asns = agg.add_delay_alarm(_delay_alarm(0, "10.1.0.1", "10.1.0.2", 7.0))
        assert asns == [3356]
        assert agg.delay_series[3356].values == [7.0]

    def test_cross_as_link_credited_to_both(self, mapper):
        """§6: alarms with IPs from different ASes go to multiple groups."""
        agg = AlarmAggregator(mapper)
        asns = agg.add_delay_alarm(_delay_alarm(0, "10.1.0.1", "10.2.0.1", 4.0))
        assert set(asns) == {3356, 3549}
        assert agg.delay_series[3356].values == [4.0]
        assert agg.delay_series[3549].values == [4.0]

    def test_deviations_sum_within_bin(self, mapper):
        agg = AlarmAggregator(mapper)
        agg.add_delay_alarm(_delay_alarm(0, "10.1.0.1", "10.1.0.2", 4.0))
        agg.add_delay_alarm(_delay_alarm(100, "10.1.0.3", "10.1.0.4", 6.0))
        assert agg.delay_series[3356].values == [10.0]

    def test_unmapped_ips_dropped(self, mapper):
        agg = AlarmAggregator(mapper)
        asns = agg.add_delay_alarm(_delay_alarm(0, "8.8.8.8", "9.9.9.9", 4.0))
        assert asns == []
        assert agg.delay_series == {}


class TestForwardingAggregation:
    def test_responsibilities_credited_per_hop_as(self, mapper):
        agg = AlarmAggregator(mapper)
        alarm = _fwd_alarm(
            0, "10.1.0.1", {"10.2.0.9": -0.4, "10.3.0.9": 0.3, UNRESPONSIVE: 0.1}
        )
        asns = agg.add_forwarding_alarm(alarm)
        assert set(asns) == {3549, 25152}
        assert agg.forwarding_series[3549].values == [-0.4]
        assert agg.forwarding_series[25152].values == [0.3]

    def test_intra_as_reroute_cancels(self, mapper):
        """§6: devalued + new hop in the same AS cancel out."""
        agg = AlarmAggregator(mapper)
        alarm = _fwd_alarm(0, "10.1.0.1", {"10.2.0.1": -0.4, "10.2.0.2": 0.4})
        agg.add_forwarding_alarm(alarm)
        assert agg.forwarding_series[3549].values == [0.0]

    def test_unresponsive_bucket_not_mapped(self, mapper):
        agg = AlarmAggregator(mapper)
        alarm = _fwd_alarm(0, "10.1.0.1", {UNRESPONSIVE: 0.9})
        assert agg.add_forwarding_alarm(alarm) == []

    def test_zero_responsibility_skipped(self, mapper):
        agg = AlarmAggregator(mapper)
        alarm = _fwd_alarm(0, "10.1.0.1", {"10.2.0.9": 0.0})
        assert agg.add_forwarding_alarm(alarm) == []


class TestMagnitudesAndEvents:
    def _populated(self, mapper):
        agg = AlarmAggregator(mapper, bin_s=3600, start=0)
        # Quiet background with occasional small alarms...
        for hour in range(0, 300):
            if hour % 13 == 0:
                agg.add_delay_alarm(
                    _delay_alarm(hour * 3600, "10.1.0.1", "10.1.0.2", 0.5)
                )
        # ... and one massive two-hour event.
        for hour in (200, 201):
            for _ in range(20):
                agg.add_delay_alarm(
                    _delay_alarm(hour * 3600, "10.1.0.1", "10.1.0.2", 30.0)
                )
        return agg

    def test_detect_events_finds_the_spike(self, mapper):
        agg = self._populated(mapper)
        events = agg.detect_events("delay", threshold=10.0)
        assert events
        hours = {e.timestamp // 3600 for e in events}
        assert hours == {200, 201}
        assert all(e.asn == 3356 for e in events)
        assert all(e.magnitude > 10 for e in events)

    def test_all_magnitude_values_pools_ases(self, mapper):
        agg = self._populated(mapper)
        agg.add_delay_alarm(_delay_alarm(100 * 3600, "10.2.0.1", "10.2.0.2", 1.0))
        pooled = agg.all_magnitude_values("delay")
        per_as = agg.delay_magnitudes()
        assert len(pooled) == sum(len(v) for v in per_as.values())

    def test_negative_forwarding_event(self, mapper):
        agg = AlarmAggregator(mapper, bin_s=3600, start=0)
        for hour in range(200):
            agg.add_forwarding_alarm(
                _fwd_alarm(hour * 3600, "r", {"10.1.0.9": -0.01})
            )
        for _ in range(50):
            agg.add_forwarding_alarm(
                _fwd_alarm(150 * 3600, "r", {"10.1.0.9": -0.8})
            )
        events = agg.detect_events("forwarding", threshold=5.0)
        assert events
        assert events[0].timestamp // 3600 == 150
        assert events[0].magnitude < 0

    def test_detect_events_validation(self, mapper):
        agg = AlarmAggregator(mapper)
        with pytest.raises(ValueError):
            agg.detect_events("delay", threshold=0.0)
        with pytest.raises(ValueError):
            agg.detect_events("nonsense", threshold=1.0)
        with pytest.raises(ValueError):
            agg.all_magnitude_values("nonsense")

    def test_empty_aggregator(self, mapper):
        agg = AlarmAggregator(mapper)
        assert agg.delay_magnitudes() == {}
        assert len(agg.all_magnitude_values("delay")) == 0
        assert agg.detect_events("delay", threshold=1.0) == []

    def test_constructor_validation(self, mapper):
        with pytest.raises(ValueError):
            AlarmAggregator(mapper, bin_s=0)
