"""Tests for traceroute sanitation (failure injection)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas import (
    Hop,
    Reply,
    SanitationReport,
    Traceroute,
    make_traceroute,
    sanitize,
    sanitize_one,
)
from repro.reference import Pipeline


def _tr(hop_replies, ts=0):
    return make_traceroute(1, "s", "d", ts, hop_replies, from_asn=65001)


class TestSanitizeOne:
    def test_clean_result_untouched(self):
        tr = _tr([[("A", 1.0)], [("B", 2.0)]])
        sanitized, report = sanitize_one(tr)
        assert sanitized is tr  # same object: nothing to repair
        assert report.kept == 1
        assert report.repaired_rtts == 0

    def test_negative_rtt_becomes_timeout(self):
        tr = _tr([[("A", -3.0), ("A", 1.0)]])
        sanitized, report = sanitize_one(tr)
        assert report.repaired_rtts == 1
        assert sanitized.hops[0].replies[0].is_timeout
        assert sanitized.hops[0].replies[1].rtt_ms == 1.0

    def test_absurd_rtt_becomes_timeout(self):
        tr = _tr([[("A", 50_000.0)]])
        sanitized, report = sanitize_one(tr)
        assert report.repaired_rtts == 1
        assert sanitized.hops[0].is_unresponsive

    def test_zero_rtt_becomes_timeout(self):
        tr = _tr([[("A", 0.0)]])
        sanitized, report = sanitize_one(tr)
        assert report.repaired_rtts == 1

    def test_empty_result_dropped(self):
        tr = _tr([])
        sanitized, report = sanitize_one(tr)
        assert sanitized is None
        assert report.dropped_empty == 1

    def test_duplicate_ttls_dropped(self):
        hops = (
            Hop(ttl=1, replies=(Reply("A", 1.0),)),
            Hop(ttl=1, replies=(Reply("B", 2.0),)),
        )
        tr = Traceroute(1, "s", "d", 0, hops)
        sanitized, report = sanitize_one(tr)
        assert sanitized is None
        assert report.dropped_duplicate_ttl == 1

    def test_unsorted_ttls_reordered(self):
        hops = (
            Hop(ttl=2, replies=(Reply("B", 2.0),)),
            Hop(ttl=1, replies=(Reply("A", 1.0),)),
        )
        tr = Traceroute(1, "s", "d", 0, hops)
        sanitized, report = sanitize_one(tr)
        assert [h.ttl for h in sanitized.hops] == [1, 2]
        assert report.kept == 1

    def test_metadata_preserved(self):
        tr = make_traceroute(
            7, "src", "dst", 99, [[("A", -1.0)]], from_asn=65009, msm_id=12
        )
        sanitized, _ = sanitize_one(tr)
        assert sanitized.prb_id == 7
        assert sanitized.from_asn == 65009
        assert sanitized.msm_id == 12
        assert sanitized.timestamp == 99


class TestSanitizeStream:
    def test_stream_accumulates_report(self):
        corpus = [
            _tr([[("A", 1.0)], [("B", 2.0)]]),
            _tr([[("A", -1.0)]]),
            _tr([]),
        ]
        report = SanitationReport()
        kept = list(sanitize(corpus, report))
        assert len(kept) == 2
        assert report.kept == 2
        assert report.dropped == 1
        assert report.repaired_rtts == 1

    def test_pipeline_survives_sanitized_garbage(self):
        """End-to-end: garbage in, no crash, no bogus negative-RTT links."""
        corpus = [
            _tr([[("A", -5.0)], [("B", 1e9)]], ts=0),
            _tr([[("A", 1.0)], [("B", 2.0)]], ts=0),
            _tr([], ts=0),
        ]
        pipeline = Pipeline()
        result = pipeline.process_bin(0, list(sanitize(corpus)))
        assert result.n_traceroutes == 2
        # The garbage traceroute contributed nothing (all timeouts).
        assert result.n_links_observed == 1

    @settings(max_examples=40)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.one_of(st.none(), st.just("10.0.0.1")),
                    st.one_of(
                        st.none(),
                        st.floats(
                            min_value=-1e6,
                            max_value=1e6,
                            allow_nan=False,
                        ),
                    ),
                ),
                min_size=1,
                max_size=3,
            ),
            max_size=5,
        )
    )
    def test_sanitized_output_always_sane(self, hop_replies):
        """Whatever garbage goes in, survivors have positive sane RTTs
        and strictly increasing TTLs."""
        cleaned = [
            (ip, rtt if ip is not None else None)
            for hop in hop_replies
            for (ip, rtt) in hop
        ]
        tr = _tr(
            [
                [(ip, rtt) for ip, rtt in hop]
                for hop in hop_replies
            ]
        )
        sanitized, _ = sanitize_one(tr)
        if sanitized is None:
            return
        ttls = [h.ttl for h in sanitized.hops]
        assert ttls == sorted(ttls)
        for hop in sanitized.hops:
            for rtt in hop.rtts:
                assert 0.0 < rtt <= 10_000.0
