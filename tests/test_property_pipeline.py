"""Property-based tests on pipeline-level invariants.

These exercise the detection machinery with randomly generated (but
structurally valid) traceroute workloads and assert invariants that must
hold for *any* input: determinism, conservation of counts, absence of
warm-up alarms, bounded scores.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atlas import make_traceroute
from repro.core import PipelineConfig
from repro.core.alarms import UNRESPONSIVE
from repro.reference import Pipeline, differential_rtts, forwarding_patterns

ip_strategy = st.sampled_from(
    ["10.0.0.1", "10.0.0.2", "10.0.1.1", "10.1.0.1", "10.1.0.2"]
)
rtt_strategy = st.floats(min_value=0.1, max_value=200.0, allow_nan=False)


@st.composite
def traceroute_strategy(draw, ts=0):
    n_hops = draw(st.integers(min_value=1, max_value=5))
    hop_replies = []
    for _ in range(n_hops):
        n_replies = draw(st.integers(min_value=1, max_value=3))
        replies = []
        for _ in range(n_replies):
            if draw(st.booleans()):
                replies.append((draw(ip_strategy), draw(rtt_strategy)))
            else:
                replies.append((None, None))
        hop_replies.append(replies)
    return make_traceroute(
        prb_id=draw(st.integers(0, 20)),
        src_addr="192.0.2.1",
        dst_addr=draw(ip_strategy),
        timestamp=ts,
        hop_replies=hop_replies,
        from_asn=draw(st.sampled_from([65001, 65002, 65003, None])),
    )


class TestDiffRttInvariants:
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(traceroute_strategy(), max_size=15))
    def test_sample_counts_bounded_by_reply_products(self, traceroutes):
        observations = differential_rtts(traceroutes)
        for link, obs in observations.items():
            assert link[0] != link[1]
            assert obs.n_samples >= obs.n_probes  # >=1 sample per probe
            # At most 9 samples per probe per traceroute.
            assert obs.n_samples <= 9 * len(traceroutes)

    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(traceroute_strategy(), max_size=10))
    def test_deterministic(self, traceroutes):
        first = differential_rtts(traceroutes)
        second = differential_rtts(traceroutes)
        assert set(first) == set(second)
        for link in first:
            assert first[link].all_samples() == second[link].all_samples()


class TestForwardingPatternInvariants:
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(traceroute_strategy(), max_size=15))
    def test_counts_conserved(self, traceroutes):
        """Total packets attributed across next hops equals the number of
        replies at successor hops of responsive routers."""
        patterns = forwarding_patterns(traceroutes)
        total_attributed = sum(
            sum(p.values()) for p in patterns.values()
        )
        expected = 0
        for tr in traceroutes:
            for near, far in tr.adjacent_pairs():
                if near.primary_ip is not None:
                    expected += len(far.replies)
        assert total_attributed == expected

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(traceroute_strategy(), max_size=15))
    def test_keys_are_responsive_routers(self, traceroutes):
        patterns = forwarding_patterns(traceroutes)
        for (router_ip, destination), pattern in patterns.items():
            assert router_ip is not None
            assert router_ip != UNRESPONSIVE
            assert all(count > 0 for count in pattern.values())


class TestPipelineInvariants:
    @settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_no_alarms_on_first_bins(self, data):
        """Whatever the workload, the 3-bin warm-up forbids alarms."""
        pipeline = Pipeline(PipelineConfig(seed=0))
        for t in range(2):
            traceroutes = data.draw(
                st.lists(traceroute_strategy(ts=t * 3600), max_size=10)
            )
            result = pipeline.process_bin(t * 3600, traceroutes)
            assert result.delay_alarms == []
            assert result.forwarding_alarms == []

    @settings(max_examples=10, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(traceroute_strategy(), max_size=20))
    def test_bin_result_counts_consistent(self, traceroutes):
        pipeline = Pipeline(PipelineConfig(seed=0))
        result = pipeline.process_bin(0, traceroutes)
        assert result.n_traceroutes == len(traceroutes)
        assert 0 <= result.n_links_analyzed <= result.n_links_observed
        stats = pipeline.stats()
        assert stats.links_observed == result.n_links_observed
        assert stats.links_analyzed == result.n_links_analyzed

    @settings(max_examples=10, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(traceroute_strategy(), max_size=12))
    def test_pipeline_deterministic_across_instances(self, traceroutes):
        results = []
        for _ in range(2):
            pipeline = Pipeline(PipelineConfig(seed=5))
            result = pipeline.process_bin(0, traceroutes)
            results.append(
                (
                    result.n_links_observed,
                    result.n_links_analyzed,
                    len(result.delay_alarms),
                    len(result.forwarding_alarms),
                )
            )
        assert results[0] == results[1]


class TestAlarmScoreBounds:
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.dictionaries(
            st.sampled_from(["A", "B", "C", UNRESPONSIVE]),
            st.floats(min_value=0.0, max_value=1000.0),
            min_size=1,
            max_size=4,
        ),
        st.dictionaries(
            st.sampled_from(["A", "B", "C", UNRESPONSIVE]),
            st.floats(min_value=0.0, max_value=1000.0),
            min_size=1,
            max_size=4,
        ),
    )
    def test_responsibilities_bounded_and_sum_structure(self, pattern, ref):
        from repro.core import responsibility_scores
        from repro.stats import pearson_correlation

        rho = pearson_correlation(pattern, ref)
        scores = responsibility_scores(pattern, ref, rho)
        for value in scores.values():
            assert -1.0 <= value <= 1.0
        # |Σ r_i| <= |ρ| by the triangle inequality on Eq. 9.
        assert abs(sum(scores.values())) <= abs(rho) + 1e-9
