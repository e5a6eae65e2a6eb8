"""Tests for probe-diversity filtering (paper §4.3)."""

import pytest

from repro.core import DiversityFilter
from repro.core.diffrtt import LinkObservations
from repro.stats import normalized_entropy


def _obs(asn_probe_counts):
    """Build LinkObservations with the given {asn: n_probes} layout."""
    obs = LinkObservations(("A", "B"))
    probe_id = 0
    for asn, count in asn_probe_counts.items():
        for _ in range(count):
            obs.add(probe_id, asn, [1.0])
            probe_id += 1
    return obs


class TestCriterion1MinAsns:
    def test_two_ases_rejected(self):
        verdict = DiversityFilter().evaluate(_obs({65001: 5, 65002: 5}))
        assert not verdict.accepted
        assert "2 ASes" in verdict.reason

    def test_three_balanced_ases_accepted(self):
        verdict = DiversityFilter().evaluate(_obs({1: 2, 2: 2, 3: 2}))
        assert verdict.accepted
        assert verdict.n_asns == 3
        assert len(verdict.kept_probes) == 6
        assert verdict.discarded_probes == []

    def test_unknown_asn_probes_do_not_count(self):
        obs = _obs({65001: 2, 65002: 2})
        obs.add(99, None, [1.0])
        verdict = DiversityFilter().evaluate(obs)
        assert not verdict.accepted

    def test_configurable_min_asns(self):
        obs = _obs({1: 1, 2: 1})
        assert DiversityFilter(min_asns=2).evaluate(obs).accepted
        assert not DiversityFilter(min_asns=3).evaluate(obs).accepted


class TestCriterion2Entropy:
    def test_paper_example_rebalanced_not_dropped(self):
        """90 probes in one of 5 ASes: H <= 0.5, probes discarded until
        H > 0.5 — the link itself is kept (paper §4.3)."""
        obs = _obs({1: 90, 2: 3, 3: 3, 4: 2, 5: 2})
        verdict = DiversityFilter(seed=1).evaluate(obs)
        assert verdict.accepted
        assert verdict.entropy > 0.5
        assert len(verdict.discarded_probes) > 0
        # All discarded probes are from the dominant AS.
        assert all(p < 90 for p in verdict.discarded_probes)
        kept_counts = {}
        for probe in verdict.kept_probes:
            asn = obs.probe_asn[probe]
            kept_counts[asn] = kept_counts.get(asn, 0) + 1
        assert normalized_entropy(kept_counts) > 0.5

    def test_balanced_link_not_touched(self):
        obs = _obs({1: 10, 2: 10, 3: 10})
        verdict = DiversityFilter().evaluate(obs)
        assert verdict.accepted
        assert verdict.discarded_probes == []
        assert verdict.entropy == pytest.approx(1.0)

    def test_input_not_mutated(self):
        obs = _obs({1: 50, 2: 2, 3: 2})
        def state():
            return {p: obs.all_samples([p]) for p in obs.probe_ids()}

        before = state()
        DiversityFilter(seed=2).evaluate(obs)
        assert state() == before

    def test_deterministic_given_seed(self):
        obs = _obs({1: 50, 2: 2, 3: 2})
        a = DiversityFilter(seed=5).evaluate(obs)
        b = DiversityFilter(seed=5).evaluate(obs)
        assert a.kept_probes == b.kept_probes
        assert a.discarded_probes == b.discarded_probes

    def test_entropy_threshold_configurable(self):
        obs = _obs({1: 6, 2: 2, 3: 2})
        strict = DiversityFilter(min_entropy=0.95).evaluate(obs)
        lax = DiversityFilter(min_entropy=0.1).evaluate(obs)
        assert lax.discarded_probes == []
        assert len(strict.discarded_probes) >= 1


class TestValidation:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DiversityFilter(min_asns=0)
        with pytest.raises(ValueError):
            DiversityFilter(min_entropy=1.0)
        with pytest.raises(ValueError):
            DiversityFilter(min_entropy=-0.1)

    def test_empty_observations_rejected(self):
        verdict = DiversityFilter().evaluate(LinkObservations(("A", "B")))
        assert not verdict.accepted
