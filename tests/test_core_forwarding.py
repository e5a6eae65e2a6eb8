"""Tests for the packet-forwarding model and anomaly detection (paper §5)."""

import pytest

from repro.atlas import make_traceroute
from repro.core import UNRESPONSIVE, responsibility_scores
from repro.reference import ForwardingAnomalyDetector, forwarding_patterns


class TestPatternExtraction:
    def test_counts_per_reply_packet(self):
        tr = make_traceroute(
            1,
            "s",
            "dst",
            0,
            [
                [("R", 1.0), ("R", 1.1), ("R", 1.2)],
                [("A", 2.0), ("A", 2.1), ("B", 2.2)],
            ],
        )
        patterns = forwarding_patterns([tr])
        assert patterns[("R", "dst")] == {"A": 2.0, "B": 1.0}

    def test_lost_replies_become_unresponsive_bucket(self):
        tr = make_traceroute(
            1,
            "s",
            "dst",
            0,
            [[("R", 1.0)], [("A", 2.0), (None, None), (None, None)]],
        )
        patterns = forwarding_patterns([tr])
        assert patterns[("R", "dst")] == {"A": 1.0, UNRESPONSIVE: 2.0}

    def test_separate_models_per_destination(self):
        """§5.1: a different model per traceroute target."""
        tr1 = make_traceroute(1, "s", "dst1", 0, [[("R", 1.0)], [("A", 2.0)]])
        tr2 = make_traceroute(1, "s", "dst2", 0, [[("R", 1.0)], [("B", 2.0)]])
        patterns = forwarding_patterns([tr1, tr2])
        assert patterns[("R", "dst1")] == {"A": 1.0}
        assert patterns[("R", "dst2")] == {"B": 1.0}

    def test_unresponsive_router_has_no_model(self):
        tr = make_traceroute(
            1, "s", "dst", 0, [[(None, None)], [("A", 2.0)]]
        )
        assert ("A", "dst") not in forwarding_patterns([tr])
        assert all(key[0] != None for key in forwarding_patterns([tr]))

    def test_patterns_aggregate_across_probes(self):
        trs = [
            make_traceroute(p, "s", "dst", 0, [[("R", 1.0)], [("A", 2.0)]])
            for p in range(5)
        ]
        assert forwarding_patterns(trs)[("R", "dst")] == {"A": 5.0}


class TestEnginePatternOrder:
    """The alarm store writes hop maps in dict order, so the engine's
    fused kernel must insert next hops — the lost-packet bucket included
    — in the reference extractor's first-occurrence order, not merely
    build equal dicts."""

    @staticmethod
    def _ordered(patterns):
        return {key: list(pattern.items()) for key, pattern in patterns.items()}

    def test_loss_before_the_first_responder(self):
        """Regression: the kernel used to emit the responder before the
        lost bucket whatever the reply order said."""
        from repro.atlas import TracerouteBatch
        from tests.test_engine_equivalence import _fused_as_dicts

        traceroutes = [
            make_traceroute(
                1, "s", "dst", 0,
                [[("R", 1.0)], [(None, None), ("A", 2.0), ("A", 2.1)]],
            ),
            # Multi-IP far hop: the kernel's scalar fallback.
            make_traceroute(
                2, "s", "other", 0,
                [[("R", 1.0)], [("A", 2.0), (None, None), ("B", 2.1)]],
            ),
        ]
        reference = forwarding_patterns(traceroutes)
        assert list(reference[("R", "dst")]) == [UNRESPONSIVE, "A"]
        assert list(reference[("R", "other")]) == ["A", UNRESPONSIVE, "B"]
        _, patterns = _fused_as_dicts(
            TracerouteBatch.from_traceroutes(traceroutes)
        )
        assert self._ordered(patterns) == self._ordered(reference)

    def test_insertion_order_matches_on_random_bins(self):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        from repro.atlas import TracerouteBatch
        from tests.test_engine_equivalence import (
            _fused_as_dicts,
            traceroute_strategy,
        )

        @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
        @given(st.lists(traceroute_strategy(), max_size=15))
        def check(traceroutes):
            _, patterns = _fused_as_dicts(
                TracerouteBatch.from_traceroutes(traceroutes)
            )
            assert self._ordered(patterns) == self._ordered(
                forwarding_patterns(traceroutes)
            )

        check()


class TestResponsibility:
    def test_paper_figure4_worked_example(self):
        """§5.2.2 worked example: F̄=[A:10,B:100,Z:5], F=[A:12,B:2,C:60,Z:30].

        The paper quotes ρ = -0.6 and r ≈ (0, -0.28, 0.25, 0.07) for
        (A, B, C, Z); exact values depend on rounding, so we assert the
        semantics: ρ below τ, B most devalued, C the new main hop, A
        unchanged, Z slightly up.
        """
        reference = {"A": 10.0, "B": 100.0, "Z": 5.0}
        pattern = {"A": 12.0, "B": 2.0, "C": 60.0, "Z": 30.0}
        from repro.stats import pearson_correlation

        rho = pearson_correlation(pattern, reference)
        assert rho == pytest.approx(-0.6, abs=0.15)
        scores = responsibility_scores(pattern, reference, rho)
        assert scores["A"] == pytest.approx(0.0, abs=0.05)
        assert scores["B"] == pytest.approx(-0.3, abs=0.1)
        assert scores["C"] == pytest.approx(0.25, abs=0.1)
        assert 0.0 < scores["Z"] < 0.15
        assert scores["B"] == min(scores.values())
        assert scores["C"] == max(scores.values())

    def test_scores_bounded(self):
        scores = responsibility_scores({"A": 100.0}, {"B": 100.0}, -1.0)
        for value in scores.values():
            assert -1.0 <= value <= 1.0

    def test_identical_patterns_zero_scores(self):
        pattern = {"A": 5.0, "B": 7.0}
        scores = responsibility_scores(pattern, dict(pattern), 1.0)
        assert all(v == 0.0 for v in scores.values())

    def test_sign_semantics(self):
        """New hop -> positive; vanished hop -> negative (with ρ < 0)."""
        reference = {"A": 100.0}
        pattern = {"B": 100.0}
        scores = responsibility_scores(pattern, reference, -1.0)
        assert scores["B"] > 0
        assert scores["A"] < 0


class TestDetector:
    def _feed_stable(self, detector, key, bins=5, t0=0):
        for i in range(bins):
            detector.observe(
                t0 + i, key, {"A": 10.0, "B": 100.0, UNRESPONSIVE: 5.0}
            )

    def test_no_alarm_on_stable_pattern(self):
        detector = ForwardingAnomalyDetector(alpha=0.1)
        key = ("R", "dst")
        for t in range(20):
            alarm = detector.observe(t, key, {"A": 10.0, "B": 100.0})
            assert alarm is None

    def test_no_alarm_during_warmup(self):
        detector = ForwardingAnomalyDetector(warmup_bins=3, alpha=0.1)
        key = ("R", "dst")
        # Radically different patterns during warmup: still silent.
        assert detector.observe(0, key, {"A": 100.0}) is None
        assert detector.observe(1, key, {"B": 100.0}) is None

    def test_paper_anomaly_detected(self):
        detector = ForwardingAnomalyDetector(alpha=0.01)
        key = ("R", "dst")
        self._feed_stable(detector, key)
        alarm = detector.observe(
            10, key, {"A": 12.0, "B": 2.0, "C": 60.0, UNRESPONSIVE: 30.0}
        )
        assert alarm is not None
        assert alarm.correlation < -0.25
        assert alarm.router_ip == "R"
        assert alarm.destination == "dst"
        assert alarm.new_hops.get("C", 0) > 0
        assert alarm.devalued_hops.get("B", 0) < 0
        assert alarm.packet_loss_suspected  # Z grew

    def test_proportional_scaling_is_not_anomalous(self):
        """Fewer traceroutes in a bin scales counts but keeps shape."""
        detector = ForwardingAnomalyDetector(alpha=0.1)
        key = ("R", "dst")
        self._feed_stable(detector, key)
        alarm = detector.observe(
            10, key, {"A": 5.0, "B": 50.0, UNRESPONSIVE: 2.5}
        )
        assert alarm is None

    def test_total_loss_detected(self):
        """All packets to the unresponsive bucket — the §7.3 signature."""
        detector = ForwardingAnomalyDetector(alpha=0.01)
        key = ("R", "dst")
        self._feed_stable(detector, key)
        alarm = detector.observe(10, key, {UNRESPONSIVE: 115.0})
        assert alarm is not None
        assert alarm.packet_loss_suspected
        assert alarm.devalued_hops.get("B", 0) < 0

    def test_reference_updates_with_eq8(self):
        detector = ForwardingAnomalyDetector(alpha=0.5, warmup_bins=1)
        key = ("R", "dst")
        detector.observe(0, key, {"A": 10.0})
        detector.observe(1, key, {"A": 20.0})
        assert detector.reference_of(key) == {"A": 15.0}

    def test_observe_bin_processes_all_models(self):
        detector = ForwardingAnomalyDetector(alpha=0.01)
        patterns = {
            ("R1", "d"): {"A": 10.0, "B": 100.0},
            ("R2", "d"): {"C": 50.0},
        }
        for t in range(5):
            assert detector.observe_bin(t, patterns) == []
        anomalous = {
            ("R1", "d"): {"A": 100.0, "B": 2.0},
            ("R2", "d"): {"C": 50.0},
        }
        alarms = detector.observe_bin(5, anomalous)
        assert len(alarms) == 1
        assert alarms[0].router_ip == "R1"

    def test_statistics(self):
        detector = ForwardingAnomalyDetector()
        detector.observe(0, ("R1", "d1"), {"A": 1.0, "B": 1.0})
        detector.observe(0, ("R1", "d2"), {"A": 1.0})
        detector.observe(0, ("R2", "d1"), {"C": 1.0})
        assert detector.n_models == 3
        assert detector.n_routers == 2
        assert detector.mean_next_hops() == pytest.approx(4 / 3)

    def test_empty_pattern_ignored(self):
        detector = ForwardingAnomalyDetector()
        assert detector.observe(0, ("R", "d"), {}) is None
        assert detector.n_models == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ForwardingAnomalyDetector(tau=0.5)
        with pytest.raises(ValueError):
            ForwardingAnomalyDetector(tau=-1.5)
        with pytest.raises(ValueError):
            ForwardingAnomalyDetector(warmup_bins=0)

    def test_tau_threshold_respected(self):
        """Weak anti-correlation above τ must not alarm."""
        strict = ForwardingAnomalyDetector(tau=-0.9, alpha=0.01)
        key = ("R", "dst")
        self._feed_stable(strict, key)
        alarm = strict.observe(
            10, key, {"A": 12.0, "B": 2.0, "C": 60.0, UNRESPONSIVE: 30.0}
        )
        assert alarm is None  # ρ ≈ -0.6 is above τ = -0.9
