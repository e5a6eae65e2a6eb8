"""Tests for differential RTT computation (paper §4.2.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas import make_traceroute
from repro.core.diffrtt import LinkObservations
from repro.reference import differential_rtts


def _tr(hop_replies, prb=1, asn=65001, ts=0):
    return make_traceroute(prb, "src", "dst", ts, hop_replies, from_asn=asn)


class TestDifferentialRtts:
    def test_all_combinations_nine_samples(self):
        """3 RTTs at each hop -> 9 differential samples (paper: 1 to 9)."""
        tr = _tr(
            [
                [("A", 10.0), ("A", 11.0), ("A", 12.0)],
                [("B", 20.0), ("B", 21.0), ("B", 22.0)],
            ]
        )
        obs = differential_rtts([tr])
        samples = obs[("A", "B")].all_samples()
        assert len(samples) == 9
        assert sorted(samples) == [8.0, 9.0, 9.0, 10.0, 10.0, 10.0, 11.0, 11.0, 12.0]

    def test_partial_loss_fewer_samples(self):
        tr = _tr(
            [
                [("A", 10.0), (None, None), ("A", 12.0)],
                [("B", 20.0), ("B", 21.0), (None, None)],
            ]
        )
        samples = differential_rtts([tr])[("A", "B")].all_samples()
        assert len(samples) == 4  # 2 x 2 combinations

    def test_negative_differential_rtt_preserved(self):
        """Negative Δ happens with asymmetric returns (§4.1) — keep them."""
        tr = _tr([[("A", 30.0)], [("B", 22.0)]])
        assert differential_rtts([tr])[("A", "B")].all_samples() == [-8.0]

    def test_unresponsive_hop_breaks_pair(self):
        tr = _tr(
            [
                [("A", 10.0)],
                [(None, None), (None, None), (None, None)],
                [("C", 30.0)],
            ]
        )
        obs = differential_rtts([tr])
        assert ("A", "C") not in obs  # non-consecutive after the gap
        assert obs == {}

    def test_samples_grouped_by_probe(self):
        tr1 = _tr([[("A", 10.0)], [("B", 15.0)]], prb=1, asn=65001)
        tr2 = _tr([[("A", 11.0)], [("B", 14.0)]], prb=2, asn=65002)
        obs = differential_rtts([tr1, tr2])[("A", "B")]
        assert obs.n_probes == 2
        assert obs.all_samples([1]) == [5.0]
        assert obs.all_samples([2]) == [3.0]
        assert obs.asns() == {65001: 1, 65002: 1}

    def test_same_probe_multiple_traceroutes_accumulate(self):
        tr1 = _tr([[("A", 10.0)], [("B", 15.0)]], prb=1, ts=0)
        tr2 = _tr([[("A", 10.0)], [("B", 16.0)]], prb=1, ts=60)
        obs = differential_rtts([tr1, tr2])[("A", "B")]
        assert obs.n_probes == 1
        assert sorted(obs.all_samples([1])) == [5.0, 6.0]

    def test_multiple_links_per_traceroute(self):
        tr = _tr([[("A", 10.0)], [("B", 15.0)], [("C", 22.0)]])
        obs = differential_rtts([tr])
        assert set(obs) == {("A", "B"), ("B", "C")}
        assert obs[("B", "C")].all_samples() == [7.0]

    def test_same_ip_both_hops_skipped(self):
        """A hop pair reporting the same IP twice is not a link."""
        tr = _tr([[("A", 10.0)], [("A", 11.0)]])
        assert differential_rtts([tr]) == {}

    def test_unknown_asn_recorded_as_none(self):
        tr = make_traceroute(9, "s", "d", 0, [[("A", 1.0)], [("B", 2.0)]])
        obs = differential_rtts([tr])[("A", "B")]
        assert obs.probe_asn[9] is None
        assert obs.asns() == {}

    def test_empty_input(self):
        assert differential_rtts([]) == {}


class TestLinkObservations:
    def test_all_samples_with_probe_filter(self):
        obs = LinkObservations(("A", "B"))
        obs.add(1, 65001, [1.0, 2.0])
        obs.add(2, 65002, [3.0])
        assert sorted(obs.all_samples()) == [1.0, 2.0, 3.0]
        assert obs.all_samples([2]) == [3.0]
        assert obs.all_samples([99]) == []

    def test_counts(self):
        obs = LinkObservations(("A", "B"))
        obs.add(1, 65001, [1.0, 2.0])
        obs.add(2, 65001, [3.0])
        assert obs.n_probes == 2
        assert obs.n_samples == 3
        assert obs.asns() == {65001: 2}


rtt = st.floats(min_value=0.1, max_value=300.0, allow_nan=False)


class TestProperties:
    @settings(max_examples=40)
    @given(
        st.lists(rtt, min_size=1, max_size=3),
        st.lists(rtt, min_size=1, max_size=3),
    )
    def test_sample_count_is_product(self, near, far):
        tr = _tr(
            [
                [("A", value) for value in near],
                [("B", value) for value in far],
            ]
        )
        samples = differential_rtts([tr])[("A", "B")].all_samples()
        assert len(samples) == len(near) * len(far)

    @settings(max_examples=40)
    @given(
        st.lists(rtt, min_size=1, max_size=3),
        st.lists(rtt, min_size=1, max_size=3),
        st.floats(min_value=-50, max_value=50),
    )
    def test_shift_invariance_of_differences(self, near, far, shift):
        """Adding a constant to both hops' RTTs leaves Δ unchanged
        (return-path error common to both cancels — the paper's ε logic)."""
        tr_a = _tr([[("A", v) for v in near], [("B", v) for v in far]])
        tr_b = _tr(
            [
                [("A", v + shift) for v in near],
                [("B", v + shift) for v in far],
            ]
        )
        samples_a = sorted(differential_rtts([tr_a])[("A", "B")].all_samples())
        samples_b = sorted(differential_rtts([tr_b])[("A", "B")].all_samples())
        assert samples_a == pytest.approx(samples_b, abs=1e-9)
