"""Engine-vs-serial equivalence: the engine's core guarantee.

The engine must be a *drop-in* for the serial reference pipeline: same
alarms, same statistics, same tracked-link series — bit for bit, for
any workload.  These
tests drive both implementations over synthetic campaigns rich enough to
exercise every code path (diversity rejection *and* entropy rebalancing,
delay alarms in both directions, forwarding churn, tracked links with
gaps) and assert full structural equality.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atlas import (
    TracerouteBatch,
    decode_traceroutes,
    make_traceroute,
    read_bincache,
    write_bincache,
    write_traceroutes,
)
from repro.atlas.columnar import NO_INT
from repro.atlas.stream import binned_payloads
from repro.core import (
    UNRESPONSIVE,
    LinkObservations,
    Engine,
    PipelineConfig,
    create_pipeline,
    extract_bin_fused,
    save_snapshot,
    string_ranks,
)
from repro.reference import Pipeline, differential_rtts, forwarding_patterns

# -- synthetic campaign generator -------------------------------------------


def _campaign(n_links=12, n_probes=9, n_bins=10, seed=3):
    """A deterministic multi-link campaign with events.

    Includes: a mid-campaign delay shift on some links (delay alarms), a
    next-hop flip on one destination (forwarding alarms), a heavily
    skewed AS distribution on one link (entropy rebalancing), a
    single-AS link (diversity rejection), and a link that vanishes for
    two bins (tracked-link gap points).
    """
    rng = np.random.default_rng(seed)
    traceroutes = []
    for bin_index in range(n_bins):
        timestamp = bin_index * 3600
        for link_index in range(n_links):
            near = f"10.{link_index}.0.1"
            far = f"10.{link_index}.0.2"
            if link_index == 1 and bin_index in (6, 7):
                continue  # tracked-link gap
            shift = 20.0 if bin_index >= 7 and link_index % 3 == 0 else 0.0
            for probe in range(n_probes):
                if link_index == 2:
                    asn = 65001  # single AS: diversity-rejected
                elif link_index == 3:
                    # 7 probes in one AS, one each in two others: skewed
                    # enough to trigger entropy rebalancing.
                    asn = 65001 if probe < 7 else 65002 + (probe % 2)
                else:
                    asn = 65001 + probe % 4
                base = 10.0 + probe
                near_rtts = base + rng.normal(0.0, 0.2, 2)
                far_rtts = base + 6.0 + shift + rng.normal(0.0, 0.2, 2)
                next_hop = far
                if link_index == 4 and bin_index >= 6:
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


TRACKED = {
    ("10.0.0.1", "10.0.0.2"),  # alarmed link
    ("10.1.0.1", "10.1.0.2"),  # link with a two-bin gap
    ("10.2.0.1", "10.2.0.2"),  # diversity-rejected link
    ("192.0.2.1", "192.0.2.2"),  # never observed at all
}


def _config(**kwargs):
    return PipelineConfig(track_links=set(TRACKED), **kwargs)


@lru_cache(maxsize=None)
def _serial(seed):
    """The serial reference pipeline run over ``_campaign(seed=seed)``.

    Cached per seed and shared read-only by the tests.
    """
    pipeline = Pipeline(_config())
    results = pipeline.run(_campaign(seed=seed))
    return pipeline, results


@pytest.fixture(scope="module")
def campaign():
    return _campaign()


@pytest.fixture(scope="module")
def serial_results(campaign):
    return _serial(3)


# -- the equivalence properties ---------------------------------------------


class TestShardedEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_identical_results_stats_and_tracked(self, seed):
        serial, results = _serial(seed)
        engine = Engine(_config())
        engine_results = engine.run(_campaign(seed=seed))
        assert engine_results == results
        assert engine.stats() == serial.stats()
        assert engine.tracked == serial.tracked

    def test_campaign_exercises_every_path(self, serial_results):
        """Guard against vacuous equivalence: the synthetic campaign
        must actually produce alarms and rebalancing."""
        serial, results = serial_results
        assert sum(len(r.delay_alarms) for r in results) > 0
        assert sum(len(r.forwarding_alarms) for r in results) > 0
        stats = serial.stats()
        assert stats.links_alarmed > 0
        assert stats.links_analyzed < stats.links_observed  # rejection
        gap_link = ("10.1.0.1", "10.1.0.2")
        observed = [p.observed is None for p in serial.tracked[gap_link]]
        assert any(observed)  # the gap produced hole points


class TestColumnarEquivalence:
    """The columnar ingestion fast path is bit-identical to objects.

    ``Engine`` consuming a :class:`TracerouteBatch` (built from
    objects, decoded from JSONL, or loaded from the bin cache) must
    produce exactly the object path's results — every alarm, statistic
    and tracked point.
    """

    @pytest.fixture(scope="class")
    def batch(self, campaign):
        return TracerouteBatch.from_traceroutes(campaign)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_batch_input_identical(self, seed):
        serial, results = _serial(seed)
        engine = Engine(_config())
        assert engine.run(
            TracerouteBatch.from_traceroutes(_campaign(seed=seed))
        ) == results
        assert engine.stats() == serial.stats()
        assert engine.tracked == serial.tracked

    def test_jsonl_and_bincache_input_identical(
        self, campaign, serial_results, tmp_path
    ):
        """disk → decoder → engine and disk → cache → engine both match
        the serial object pipeline exactly."""
        serial, results = serial_results
        jsonl = tmp_path / "campaign.jsonl"
        write_traceroutes(jsonl, campaign)
        decoded = decode_traceroutes(jsonl)
        cache = tmp_path / "campaign.binc"
        write_bincache(cache, decoded)
        for source in (decoded, read_bincache(cache)):
            engine = Engine(_config())
            assert engine.run(source) == results
            assert engine.stats() == serial.stats()
            assert engine.tracked == serial.tracked

    def test_serial_pipeline_accepts_columnar_input(
        self, serial_results, batch
    ):
        """The reference Pipeline materialises views per bin (fallback
        path) and still produces identical output."""
        serial, results = serial_results
        pipeline = Pipeline(_config())
        assert pipeline.run(batch) == results
        assert pipeline.stats() == serial.stats()


class TestObjectDoor:
    """Object-model bins are encoded into columns at ``process_bin`` and
    take the same fused path as columnar bins: same results, statistics
    and tracked series as the serial reference pipeline, and the same
    snapshot bytes as a :class:`BatchView` feed."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_objects_views_and_alternation_identical(self, seed, tmp_path):
        serial, results = _serial(seed)
        campaign = _campaign(seed=seed)
        object_bins = list(binned_payloads(campaign))
        view_bins = list(
            binned_payloads(TracerouteBatch.from_traceroutes(campaign))
        )
        assert isinstance(object_bins[0][1], list)
        # Odd bins as objects, even bins as views: every bin switches
        # the engine between its own interner and the batch's, so the
        # id-keyed caches reset each time.
        mixed_bins = [
            pair[index % 2]
            for index, pair in enumerate(zip(view_bins, object_bins))
        ]
        snapshots = []
        for bins in (object_bins, view_bins, mixed_bins):
            engine = Engine(_config())
            assert [
                engine.process_bin(start, payload)
                for start, payload in bins
            ] == results
            assert engine.stats() == serial.stats()
            assert engine.tracked == serial.tracked
            path = tmp_path / "state.ckpt"
            save_snapshot(path, engine.snapshot(results=results))
            snapshots.append(path.read_bytes())
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_object_input_takes_the_columnar_contract(self):
        """A negative ``from_asn`` raises instead of silently becoming
        the "absent" sentinel (``TracerouteBatch.append``'s rule)."""
        traceroute = make_traceroute(
            1, "s", "d", 0, [[("A", 1.0)], [("B", 2.0)]], from_asn=-5
        )
        engine = Engine(_config())
        with pytest.raises(ValueError, match="non-negative"):
            engine.process_bin(0, [traceroute])


class TestCreatePipeline:
    def test_default_is_the_engine(self):
        """The library's defaults build the production engine; the
        reference is only ever named."""
        from repro.core import analyze_campaign
        from repro.net import AsMapper

        assert isinstance(create_pipeline(PipelineConfig()), Engine)
        assert isinstance(create_pipeline(None), Engine)
        analysis = analyze_campaign([], AsMapper([("0.0.0.0", 0, 64999)]))
        assert isinstance(analysis.pipeline, Engine)

    def test_sharded_when_requested(self):
        """``n_shards`` is accepted and changes nothing."""
        engine = create_pipeline(PipelineConfig(n_shards=2))
        assert isinstance(engine, Engine)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(n_shards=0)
        with pytest.raises(TypeError, match="n_jobs"):
            PipelineConfig(n_shards=2, n_jobs=2)

    def test_thread_executor_is_rejected(self):
        """The engine has one in-process executor and no knob for it."""
        for executor in ("thread", "process", "serial", "auto"):
            with pytest.raises(TypeError, match="executor"):
                PipelineConfig(executor=executor)


class TestAnalyzeCampaignDispatch:
    def test_sharded_analyze_campaign_matches_serial(self, campaign):
        from repro.core import analyze_campaign
        from repro.net import AsMapper

        mapper = AsMapper([("0.0.0.0", 0, 64999)])
        serial = analyze_campaign(
            campaign, mapper, pipeline=Pipeline(PipelineConfig())
        )
        engine = analyze_campaign(
            campaign, mapper, config=PipelineConfig(n_shards=4)
        )
        assert engine.bin_results == serial.bin_results
        assert engine.stats() == serial.stats()
        assert isinstance(engine.pipeline, Engine)


# -- fused extraction equivalence -------------------------------------------

# "*" is deliberately included: a literal "*" responder string must
# merge with the lost-packet bucket exactly as the reference functions
# merge them (an interned "*" has an id >= 0, lost packets use NO_IP).
ip_strategy = st.sampled_from(
    ["10.0.0.1", "10.0.0.2", "10.0.1.1", "10.1.0.1", "10.1.0.2", "*"]
)
rtt_strategy = st.floats(min_value=0.1, max_value=200.0, allow_nan=False)


@st.composite
def traceroute_strategy(draw):
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
        timestamp=0,
        hop_replies=hop_replies,
        from_asn=draw(st.sampled_from([65001, 65002, 65003, None])),
    )


def _by_probe(observations):
    """Each probe's samples, in insertion order."""
    return {
        probe: observations.all_samples([probe])
        for probe in observations.probe_ids()
    }


def _fused_as_dicts(source):
    """:func:`extract_bin_fused` output in the reference dict shapes.

    Rebuilds ``{link: LinkObservations}`` and ``{model: pattern}`` from
    a :class:`FusedBin`'s CSR arrays — segments replayed in array order
    through ``LinkObservations.add``, next hops in array order with the
    lost-packet id and a literal ``"*"`` responder merged under
    ``UNRESPONSIVE`` — so the kernel is compared to
    ``differential_rtts``/``forwarding_patterns`` on their own terms.
    """
    batch = source.batch if hasattr(source, "batch") else source
    strings = batch.interner.strings
    fused = extract_bin_fused(source, string_ranks(strings))
    seg_offsets = fused.link_seg_offsets.tolist()
    sample_offsets = fused.seg_sample_offsets.tolist()
    observations = {}
    for index in range(fused.n_links):
        link = (
            strings[fused.link_near[index]],
            strings[fused.link_far[index]],
        )
        link_obs = observations[link] = LinkObservations(link)
        for seg in range(seg_offsets[index], seg_offsets[index + 1]):
            asn = int(fused.seg_asn[seg])
            link_obs.add(
                int(fused.seg_probe[seg]),
                None if asn == NO_INT else asn,
                fused.samples[
                    sample_offsets[seg] : sample_offsets[seg + 1]
                ].tolist(),
            )
    hop_offsets = fused.model_hop_offsets.tolist()
    patterns = {}
    for index in range(fused.n_models):
        pattern = patterns[
            (
                strings[fused.model_router[index]],
                strings[fused.model_dst[index]],
            )
        ] = {}
        for hop in range(hop_offsets[index], hop_offsets[index + 1]):
            ident = int(fused.hop_ids[hop])
            name = strings[ident] if ident >= 0 else UNRESPONSIVE
            pattern[name] = pattern.get(name, 0.0) + float(
                fused.hop_counts[hop]
            )
    return observations, patterns


class TestExtractBinEquivalence:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(traceroute_strategy(), max_size=15))
    def test_matches_reference_extractors(self, traceroutes):
        """extract_bin_fused == (differential_rtts, forwarding_patterns),
        including per-probe sample order and AS attribution order, with
        links in sorted string order — for a batch and a view of it."""
        reference_obs = differential_rtts(traceroutes)
        reference_pat = forwarding_patterns(traceroutes)
        batch = TracerouteBatch.from_traceroutes(traceroutes)
        for source in (batch, batch.view()):
            observations, patterns = _fused_as_dicts(source)
            assert list(observations) == sorted(reference_obs)
            for link, reference in reference_obs.items():
                fused = observations[link]
                assert fused.all_samples() == reference.all_samples()
                assert _by_probe(fused) == _by_probe(reference)
                assert list(fused.probe_asn.items()) == list(
                    reference.probe_asn.items()
                )
            assert patterns == reference_pat
            assert list(patterns) == sorted(reference_pat)

    def test_literal_star_responder_merges_with_lost_bucket(self):
        """A reply from a literal "*" IP and a lost packet in the same
        far hop land in one UNRESPONSIVE bucket."""
        traceroute = make_traceroute(
            1, "s", "d", 0,
            [
                [("R", 1.0)],
                [("*", 2.0), (None, None), ("11.0.0.1", 2.5)],
            ],
            from_asn=65001,
        )
        reference = forwarding_patterns([traceroute])
        assert reference[("R", "d")] == {"*": 2.0, "11.0.0.1": 1.0}
        batch = TracerouteBatch.from_traceroutes([traceroute])
        for source in (batch, batch.view()):
            _, patterns = _fused_as_dicts(source)
            assert patterns == reference

    def test_gap_ttls_and_uniform_fast_path(self):
        """Mixed uniform/non-uniform hops and a TTL gap in one trace."""
        traceroute = make_traceroute(
            1, "s", "d", 0,
            [
                [("A", 1.0), ("A", 1.2), ("A", 1.1)],  # uniform
                [("B", 2.0), ("C", 2.5), (None, None)],  # mixed
                [("D", 3.0)],
            ],
            from_asn=65001,
        )
        observations, patterns = _fused_as_dicts(
            TracerouteBatch.from_traceroutes([traceroute])
        )
        assert observations.keys() == differential_rtts([traceroute]).keys()
        assert patterns == forwarding_patterns([traceroute])


class TestRankRefresh:
    """A growing interner's ranks, refreshed from the new strings only,
    equal a full :func:`string_ranks` sort of the whole table."""

    @given(
        st.lists(st.text(max_size=6), unique=True, max_size=40),
        st.lists(st.integers(0, 40), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_extended_ranks_equal_a_full_sort(self, strings, cuts):
        from repro.core.fused import extend_ranks

        ranks = np.empty(0, dtype=np.int64)
        for cut in sorted(cuts) + [len(strings)]:
            ranks = extend_ranks(ranks, strings[: max(cut, len(ranks))])
            assert ranks.tolist() == string_ranks(
                strings[: len(ranks)]
            ).tolist()

    def test_new_strings_land_between_old_ones(self):
        from repro.core.fused import extend_ranks

        # Old: "b" < "d" < "f" (ranks 1, 0, 2 for d, b, f); new "e",
        # "a", "c" slot in as a=0 b=1 c=2 d=3 e=4 f=5.
        old = ["d", "b", "f"]
        ranks = extend_ranks(string_ranks(old), old + ["e", "a", "c"])
        assert ranks.tolist() == [3, 1, 5, 4, 0, 2]
