"""Fused-spine guarantees: oracle equivalence, JSON bytes, mapped caches.

Three contracts of the fused end-to-end throughput path:

1. **The serial pipeline is the oracle.**  For random campaigns, the
   fused spine produces bit-identical alarms, stats and per-bin
   results to the serial reference pipeline.
2. **Canonical JSON is byte-compatible.**  ``dumps_canonical`` (orjson
   when available) and ``dumps_canonical_stdlib`` emit the same bytes
   for every record the system serialises on its hot write paths.
3. **Mapped bin caches are transparent.**  A ``mapped=True`` cache read
   (zero-copy memoryview columns over the mmap) is indistinguishable
   from the copying read, all the way through the engine.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atlas import (
    TracerouteBatch,
    decode_traceroutes,
    load_or_build,
    make_traceroute,
    read_bincache,
    write_bincache,
    write_traceroutes,
)
from repro.core import Engine, PipelineConfig
from repro.reference import Pipeline
from repro.reporting import (
    bin_event_record,
    delay_alarm_record,
    dumps_canonical,
    dumps_canonical_stdlib,
    forwarding_alarm_record,
    record_json,
)

# -- synthetic campaign (alarms guaranteed, see the vacuity guard) ----------


def _campaign(n_links=8, n_probes=9, n_bins=9):
    """Deterministic multi-bin campaign with delay + forwarding events."""
    import numpy as np

    rng = np.random.default_rng(7)
    traceroutes = []
    for bin_index in range(n_bins):
        timestamp = bin_index * 3600
        for link_index in range(n_links):
            near = f"10.{link_index}.0.1"
            far = f"10.{link_index}.0.2"
            shift = 25.0 if bin_index >= 6 and link_index % 2 == 0 else 0.0
            for probe in range(n_probes):
                asn = 65001 + probe % 4
                base = 10.0 + probe
                near_rtts = base + rng.normal(0.0, 0.2, 2)
                far_rtts = base + 6.0 + shift + rng.normal(0.0, 0.2, 2)
                next_hop = far
                if link_index == 3 and bin_index >= 6:
                    next_hop = f"10.{link_index}.9.9"  # forwarding flip
                traceroutes.append(
                    make_traceroute(
                        probe + link_index * 100,
                        f"src{probe}",
                        f"dst{link_index}",
                        timestamp + probe,
                        [
                            [(near, float(value)) for value in near_rtts],
                            [(next_hop, float(value)) for value in far_rtts],
                        ],
                        from_asn=asn,
                    )
                )
    return traceroutes


@pytest.fixture(scope="module")
def campaign():
    return _campaign()


@pytest.fixture(scope="module")
def batch(campaign):
    return TracerouteBatch.from_traceroutes(campaign)


@pytest.fixture(scope="module")
def serial_results(campaign):
    pipeline = Pipeline(PipelineConfig())
    results = pipeline.run(campaign)
    # Vacuity guard: the equivalence tests below are only meaningful
    # if the campaign actually produces both alarm kinds.
    assert sum(len(r.delay_alarms) for r in results) > 0
    assert sum(len(r.forwarding_alarms) for r in results) > 0
    return pipeline, results


# -- 1. fused == object-path oracle -----------------------------------------

ip_strategy = st.sampled_from(
    ["10.0.0.1", "10.0.0.2", "10.0.1.1", "10.1.0.1", "10.1.0.2", "*"]
)
rtt_strategy = st.floats(min_value=0.1, max_value=200.0, allow_nan=False)


@st.composite
def traceroute_strategy(draw, ts=0):
    n_hops = draw(st.integers(min_value=1, max_value=4))
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
        prb_id=draw(st.integers(0, 12)),
        src_addr="192.0.2.1",
        dst_addr=draw(ip_strategy),
        timestamp=ts,
        hop_replies=hop_replies,
        from_asn=draw(st.sampled_from([65001, 65002, 65003, None])),
    )


class TestFusedOracle:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_random_campaign_bit_identical(self, data):
        """Fused spine == serial, over random multi-bin campaigns
        (references accumulate across bins)."""
        bins = [
            data.draw(
                st.lists(traceroute_strategy(ts=b * 3600), max_size=10)
            )
            for b in range(3)
        ]
        serial = Pipeline(PipelineConfig())
        reference = [
            serial.process_bin(b * 3600, traceroutes)
            for b, traceroutes in enumerate(bins)
        ]
        flat = [tr for bin_trs in bins for tr in bin_trs]
        batch = TracerouteBatch.from_traceroutes(flat)
        offsets = [0]
        for bin_trs in bins:
            offsets.append(offsets[-1] + len(bin_trs))
        fused_engine = Engine()
        for b in range(3):
            view = batch.view(range(offsets[b], offsets[b + 1]))
            assert fused_engine.process_bin(b * 3600, view) == reference[b]
        assert fused_engine.stats() == serial.stats()


# -- 2. canonical JSON byte-compatibility -----------------------------------


class TestCanonicalJsonBytes:
    def _records(self, serial_results):
        _, results = serial_results
        records = [bin_event_record(result) for result in results]
        records += [
            delay_alarm_record(alarm)
            for result in results
            for alarm in result.delay_alarms
        ]
        records += [
            forwarding_alarm_record(alarm)
            for result in results
            for alarm in result.forwarding_alarms
        ]
        return records

    def test_real_records_byte_identical(self, serial_results):
        records = self._records(serial_results)
        assert records  # non-vacuous: alarms of both kinds exist
        for record in records:
            assert dumps_canonical(record) == dumps_canonical_stdlib(record)

    def test_record_json_round_trips(self, serial_results):
        _, results = serial_results
        for result in results:
            record = bin_event_record(result)
            line = record_json(record)
            assert "\n" not in line
            assert json.loads(line) == record

    def test_http_payload_shapes_byte_identical(self):
        payloads = [
            {"error": "store unavailable: gone", "retry_after": 5},
            {
                "store": {"generation": 3, "bins": 12, "store_id": "ab" * 8},
                "cache": {"hits": 10, "misses": 2, "size": 2},
                "routes": ["/health/{asn}", "/events"],
            },
            [{"asn": 65001, "magnitude": -3.25}, {"asn": 2, "magnitude": 0.5}],
            {"schema": "timings/v1", "timings": {"detect": {
                "calls": 3, "seconds": 0.004169993000890827}}},
            {"unicode": "Überlingen — ASN", "empty": {}, "none": None,
             "bool": [True, False], "neg": -17},
        ]
        for payload in payloads:
            assert dumps_canonical(payload) == dumps_canonical_stdlib(payload)

    json_scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**53), max_value=2**53),
        # Plain-notation range: stdlib and orjson agree byte-for-byte
        # on every float that repr() renders without an exponent (the
        # documented out-of-contract divergence is exponent spelling
        # only, e.g. 1e+16 vs 1e16).
        st.floats(
            min_value=-1e15, max_value=1e15, allow_nan=False
        ).filter(lambda v: v == 0.0 or abs(v) >= 1e-4),
        st.text(max_size=20),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            json_scalars,
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=8), children, max_size=4),
            ),
            max_leaves=20,
        )
    )
    def test_random_payloads_byte_identical(self, payload):
        assert dumps_canonical(payload) == dumps_canonical_stdlib(payload)

    def test_sorted_keys_compact_separators_utf8(self):
        body = dumps_canonical({"b": 1, "a": [1, 2], "ü": "é"})
        assert body == '{"a":[1,2],"b":1,"ü":"é"}'.encode("utf-8")


# -- 3. mapped bin cache -----------------------------------------------------


class TestMappedBinCache:
    @pytest.fixture(scope="class")
    def cache_path(self, campaign, tmp_path_factory):
        root = tmp_path_factory.mktemp("mapped-binc")
        jsonl = root / "campaign.jsonl"
        write_traceroutes(jsonl, campaign)
        cache = root / "campaign.binc"
        write_bincache(cache, decode_traceroutes(jsonl))
        return cache

    def test_mapped_columns_equal_copied(self, cache_path):
        copied = read_bincache(cache_path)
        mapped = read_bincache(cache_path, mapped=True)
        assert len(mapped) == len(copied)
        assert mapped.interner.strings == copied.interner.strings
        for name in (
            "timestamp", "prb_id", "src_id", "dst_id", "from_asn",
            "hop_offsets", "hop_ttl", "reply_offsets",
            "reply_ip", "reply_rtt",
        ):
            assert list(getattr(mapped, name)) == list(getattr(copied, name))
        assert mapped.to_traceroutes() == copied.to_traceroutes()

    def test_mapped_engine_run_identical(
        self, cache_path, serial_results
    ):
        serial, results = serial_results
        mapped = read_bincache(cache_path, mapped=True)
        engine = Engine()
        assert engine.run(mapped) == results
        assert engine.stats() == serial.stats()

    def test_load_or_build_mapped_hit(self, cache_path, campaign):
        jsonl = cache_path.parent / "campaign.jsonl"
        batch, hit = load_or_build(jsonl, cache_path=cache_path, mapped=True)
        assert hit
        assert len(batch) == len(campaign)
        from array import array

        # Cache hits are served as zero-copy views, not array copies.
        assert not isinstance(batch.timestamp, array)

    def test_mapped_batch_is_read_only(self, cache_path, campaign):
        mapped = read_bincache(cache_path, mapped=True)
        with pytest.raises((AttributeError, TypeError)):
            mapped.append(campaign[0])
