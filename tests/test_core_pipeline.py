"""Tests for the end-to-end pipeline (unit level, synthetic traceroutes)."""

import numpy as np
import pytest

from repro.atlas import make_traceroute
from repro.core import PipelineConfig, analyze_campaign
from repro.net import AsMapper
from repro.reference import Pipeline


def _stable_bin(t, shift=0.0, rng=None, n_probes=9):
    """One bin of traceroutes crossing link (A, B) from 9 probes / 3 ASes."""
    rng = rng or np.random.default_rng(t)
    traceroutes = []
    for probe in range(n_probes):
        asn = 65001 + probe % 3
        base_a = 10.0 + probe  # per-probe return path offset (ε)
        noise = rng.normal(0, 0.1, size=6)
        traceroutes.append(
            make_traceroute(
                probe,
                f"src{probe}",
                "dst",
                t,
                [
                    [("10.0.0.1", base_a + noise[i]) for i in range(3)],
                    [("10.0.0.2", base_a + 5.0 + shift + noise[3 + i]) for i in range(3)],
                ],
                from_asn=asn,
            )
        )
    return traceroutes


@pytest.fixture
def mapper():
    return AsMapper([("0.0.0.0", 0, 64999)])


class TestPipelineBasics:
    def test_process_bin_counts(self):
        pipeline = Pipeline()
        result = pipeline.process_bin(0, _stable_bin(0))
        assert result.timestamp == 0
        assert result.n_traceroutes == 9
        assert result.n_links_observed == 1
        assert result.n_links_analyzed == 1
        assert result.delay_alarms == []

    def test_run_bins_by_hour(self):
        pipeline = Pipeline()
        traceroutes = _stable_bin(0) + _stable_bin(3600) + _stable_bin(7200)
        results = pipeline.run(traceroutes)
        assert [r.timestamp for r in results] == [0, 3600, 7200]

    def test_dense_bins_include_empty(self):
        pipeline = Pipeline()
        traceroutes = _stable_bin(0) + _stable_bin(7200)
        results = pipeline.run(traceroutes)
        assert len(results) == 3
        assert results[1].n_traceroutes == 0

    def test_delay_alarm_on_shifted_bin(self):
        pipeline = Pipeline()
        for t in range(6):
            pipeline.process_bin(t * 3600, _stable_bin(t * 3600))
        result = pipeline.process_bin(6 * 3600, _stable_bin(6 * 3600, shift=20.0))
        assert len(result.delay_alarms) == 1
        alarm = result.delay_alarms[0]
        assert alarm.link == ("10.0.0.1", "10.0.0.2")
        assert alarm.direction == 1
        assert alarm.n_asns == 3

    def test_diversity_filter_blocks_single_as(self):
        pipeline = Pipeline()
        traceroutes = [
            make_traceroute(
                p, "s", "d", 0,
                [[("A", 10.0)], [("B", 15.0)]],
                from_asn=65001,  # all from one AS
            )
            for p in range(10)
        ]
        result = pipeline.process_bin(0, traceroutes)
        assert result.n_links_observed == 1
        assert result.n_links_analyzed == 0

    def test_forwarding_alarm_on_next_hop_change(self):
        pipeline = Pipeline()
        stable = [
            make_traceroute(p, "s", "d", 0, [[("R", 1.0)], [("N1", 2.0)]])
            for p in range(10)
        ]
        for t in range(5):
            result = pipeline.process_bin(t * 3600, stable)
            assert result.forwarding_alarms == []
        changed = [
            make_traceroute(p, "s", "d", 0, [[("R", 1.0)], [("N2", 2.0)]])
            for p in range(10)
        ]
        result = pipeline.process_bin(5 * 3600, changed)
        assert len(result.forwarding_alarms) == 1
        alarm = result.forwarding_alarms[0]
        assert alarm.router_ip == "R"
        assert alarm.new_hops.get("N2", 0) > 0
        assert alarm.devalued_hops.get("N1", 0) < 0


class TestTrackedLinks:
    def test_tracked_series_recorded(self):
        config = PipelineConfig(track_links={("10.0.0.1", "10.0.0.2")})
        pipeline = Pipeline(config)
        for t in range(4):
            pipeline.process_bin(t * 3600, _stable_bin(t * 3600))
        points = pipeline.tracked[("10.0.0.1", "10.0.0.2")]
        assert len(points) == 4
        assert all(p.observed is not None for p in points)
        assert all(p.accepted for p in points)
        # Reference exists from the third bin on (3-bin warm-up).
        assert points[-1].reference is not None

    def test_tracked_gap_when_no_samples(self):
        """Fig. 11b: bins without RTT samples leave a hole in the series."""
        config = PipelineConfig(track_links={("10.0.0.1", "10.0.0.2")})
        pipeline = Pipeline(config)
        pipeline.process_bin(0, _stable_bin(0))
        pipeline.process_bin(3600, [])  # nothing measured
        points = pipeline.tracked[("10.0.0.1", "10.0.0.2")]
        assert points[1].observed is None
        assert points[1].n_probes == 0

    def test_tracked_alarm_flag(self):
        config = PipelineConfig(track_links={("10.0.0.1", "10.0.0.2")})
        pipeline = Pipeline(config)
        for t in range(6):
            pipeline.process_bin(t * 3600, _stable_bin(t * 3600))
        pipeline.process_bin(6 * 3600, _stable_bin(6 * 3600, shift=25.0))
        points = pipeline.tracked[("10.0.0.1", "10.0.0.2")]
        assert points[-1].alarmed
        assert not points[-2].alarmed


class TestStats:
    def test_campaign_stats(self):
        pipeline = Pipeline()
        for t in range(6):
            pipeline.process_bin(t * 3600, _stable_bin(t * 3600))
        pipeline.process_bin(6 * 3600, _stable_bin(6 * 3600, shift=25.0))
        stats = pipeline.stats()
        assert stats.links_observed == 1
        assert stats.links_analyzed == 1
        assert stats.links_alarmed == 1
        assert stats.fraction_links_alarmed == 1.0
        assert stats.mean_probes_per_link == 9.0
        assert stats.bins_processed == 7
        assert stats.traceroutes_processed == 63
        assert stats.forwarding_models >= 1

    def test_empty_stats(self):
        stats = Pipeline().stats()
        assert stats.fraction_links_alarmed == 0.0
        assert stats.mean_probes_per_link == 0.0


class TestAnalyzeCampaign:
    def test_aggregation_wired(self, mapper):
        traceroutes = []
        for t in range(6):
            traceroutes.extend(_stable_bin(t * 3600))
        traceroutes.extend(_stable_bin(6 * 3600, shift=25.0))
        analysis = analyze_campaign(traceroutes, mapper)
        assert len(analysis.bin_results) == 7
        assert len(analysis.delay_alarms) == 1
        series = analysis.aggregator.delay_series
        assert 64999 in series
        assert series[64999].values[6] > 0

    def test_empty_campaign(self, mapper):
        analysis = analyze_campaign([], mapper)
        assert analysis.bin_results == []
        assert analysis.delay_alarms == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(bin_s=0)
