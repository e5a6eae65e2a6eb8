"""Tests for consistent shard assignment (`repro.core.sharding`)."""

import pytest

from repro.atlas import TracerouteBatch, make_traceroute
from repro.core.fused import extract_bin_fused, partition_fused, string_ranks
from repro.core.sharding import shard_of, stable_hash64


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash64("10.0.0.1") == stable_hash64("10.0.0.1")

    def test_distinct_inputs_differ(self):
        assert stable_hash64("10.0.0.1") != stable_hash64("10.0.0.2")

    def test_pinned_values(self):
        """Regression pins: assignments must never change between
        releases, or resumed campaigns would re-shard their state."""
        assert stable_hash64("10.0.0.1") == 0x75A4FEE35DD3BA4C
        assert stable_hash64("a|b") == 0x0D187ED6AE563ED7


class TestShardOf:
    def test_range_and_stability(self):
        links = [(f"10.0.{i}.1", f"10.0.{i}.2") for i in range(300)]
        for n_shards in (1, 2, 4, 8):
            first = [shard_of(link, n_shards) for link in links]
            second = [shard_of(link, n_shards) for link in links]
            assert first == second
            assert all(0 <= shard < n_shards for shard in first)

    def test_single_shard_is_zero(self):
        assert shard_of(("a", "b"), 1) == 0
        assert shard_of("router", 1) == 0

    def test_roughly_balanced(self):
        links = [(f"10.{i // 250}.{i % 250}.1", "x") for i in range(2000)]
        counts = [0] * 4
        for link in links:
            counts[shard_of(link, 4)] += 1
        assert min(counts) > 2000 / 4 * 0.7

    def test_string_and_tuple_keys_supported(self):
        assert isinstance(shard_of("192.0.2.1", 8), int)
        assert isinstance(shard_of(("192.0.2.1", "192.0.2.2"), 8), int)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_of("x", 0)


def _links_of(fused, strings):
    """``{link: (segment probe ids, samples)}`` of a fused bin."""
    seg = fused.link_seg_offsets.tolist()
    off = fused.seg_sample_offsets.tolist()
    return {
        (strings[near], strings[far]): (
            fused.seg_probe[seg[i] : seg[i + 1]].tolist(),
            fused.samples[off[seg[i]] : off[seg[i + 1]]].tolist(),
        )
        for i, (near, far) in enumerate(
            zip(fused.link_near.tolist(), fused.link_far.tolist())
        )
    }


def _models_of(fused, strings):
    """``{(router, destination): [(next-hop id, count), ...]}``."""
    off = fused.model_hop_offsets.tolist()
    return {
        (strings[router], strings[dst]): list(
            zip(
                fused.hop_ids[off[i] : off[i + 1]].tolist(),
                fused.hop_counts[off[i] : off[i + 1]].tolist(),
            )
        )
        for i, (router, dst) in enumerate(
            zip(fused.model_router.tolist(), fused.model_dst.tolist())
        )
    }


class TestPartitions:
    N_SHARDS = 4

    @pytest.fixture(scope="class")
    def partitioned(self):
        """70 links over 7 routers and 35 (router, destination) models."""
        batch = TracerouteBatch.from_traceroutes(
            make_traceroute(
                i, "src", f"d{i % 5}", i,
                [[(f"r{i % 7}", 1.0)], [(f"n{i}", 2.0 + i)]],
                from_asn=65001,
            )
            for i in range(70)
        )
        strings = batch.interner.strings
        fused = extract_bin_fused(batch, string_ranks(strings))
        assert (fused.n_links, fused.n_models) == (70, 35)
        parts = partition_fused(fused, self.N_SHARDS, strings, {}, {})
        return fused, parts, strings

    def test_links_disjoint_complete_and_placed_by_string_hash(
        self, partitioned
    ):
        fused, parts, strings = partitioned
        assert len(parts) == self.N_SHARDS
        merged = {}
        for shard, part in enumerate(parts):
            links = _links_of(part, strings)
            assert not set(links) & set(merged)
            assert list(links) == sorted(links)
            for link in links:
                assert shard_of(link, self.N_SHARDS) == shard
            merged.update(links)
        assert merged == _links_of(fused, strings)

    def test_models_sharded_by_router(self, partitioned):
        """All of a router's models must land on the same shard — the
        one ``shard_of`` gives its IP string — so router-level
        statistics merge by addition."""
        fused, parts, strings = partitioned
        merged = {}
        for shard, part in enumerate(parts):
            models = _models_of(part, strings)
            for router, _ in models:
                assert shard_of(router, self.N_SHARDS) == shard
            assert not set(models) & set(merged)
            merged.update(models)
        assert merged == _models_of(fused, strings)


    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 8])
    def test_every_shard_count_partitions_exactly(self, n_shards):
        """At any shard count the parts tile the bin: every link and
        model lands on exactly the shard ``shard_of`` names."""
        batch = TracerouteBatch.from_traceroutes(
            make_traceroute(
                i, "src", f"d{i % 3}", i,
                [[(f"r{i % 4}", 1.0)], [(f"n{i}", 2.0 + i)]],
                from_asn=65001,
            )
            for i in range(24)
        )
        strings = batch.interner.strings
        fused = extract_bin_fused(batch, string_ranks(strings))
        parts = partition_fused(fused, n_shards, strings, {}, {})
        assert len(parts) == n_shards
        links, models = {}, {}
        for shard, part in enumerate(parts):
            for link in _links_of(part, strings):
                assert shard_of(link, n_shards) == shard
            for router, _ in _models_of(part, strings):
                assert shard_of(router, n_shards) == shard
            links.update(_links_of(part, strings))
            models.update(_models_of(part, strings))
        assert links == _links_of(fused, strings)
        assert models == _models_of(fused, strings)
