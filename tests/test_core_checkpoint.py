"""Checkpoint/resume: snapshot round-trips, crash/resume equivalence,
and snapshot-format corruption handling.

Three guarantees are pinned here:

1. ``snapshot()`` → ``restore()`` reproduces detector state
   **bit-identically** — every arena array, warm-up buffer, smoother
   value, counter, diversity round and tracked point — at 1/2/4 shards
   and for the serial reference pipeline (hypothesis property);
2. a run interrupted after any bin and resumed in a fresh engine (any
   shard count, even a *different* one) produces exactly
   the uninterrupted run's alarms, campaign aggregates and tracked-link
   series;
3. the binary snapshot format never silently serves a truncated,
   foreign, stale or corrupt file — every such file raises
   :class:`SnapshotError`, and the resumable driver rebuilds from
   scratch instead of trusting it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atlas import TimeBinner, make_traceroute
from repro.core import (
    EngineSnapshot,
    Pipeline,
    PipelineConfig,
    ShardedPipeline,
    SnapshotError,
    config_fingerprint,
    load_snapshot,
    run_checkpointed,
    save_snapshot,
)
from repro.core.checkpoint import (
    MAGIC,
    SNAPSHOT_VERSION,
    _encode_payload,
)

# -- synthetic campaign generator -------------------------------------------


def _campaign(n_links=8, n_probes=8, n_bins=9, seed=3):
    """A compact multi-link campaign exercising every detector path.

    Mid-campaign delay shifts (delay alarms after warm-up), a next-hop
    flip (forwarding alarms), a skewed AS distribution (entropy
    rebalancing — the diversity RNG path a checkpoint must preserve), a
    single-AS link (diversity rejection) and a vanishing link (tracked
    gap points).
    """
    rng = np.random.default_rng(seed)
    traceroutes = []
    for bin_index in range(n_bins):
        timestamp = bin_index * 3600
        for link_index in range(n_links):
            near = f"10.{link_index}.0.1"
            far = f"10.{link_index}.0.2"
            if link_index == 1 and bin_index in (5, 6):
                continue  # tracked-link gap
            shift = 25.0 if bin_index >= 6 and link_index % 3 == 0 else 0.0
            for probe in range(n_probes):
                if link_index == 2:
                    asn = 65001  # single AS: diversity-rejected
                elif link_index == 3:
                    # Heavily skewed: triggers entropy rebalancing.
                    asn = 65001 if probe < n_probes - 2 else 65002 + probe % 2
                else:
                    asn = 65001 + probe % 4
                base = 10.0 + probe
                near_rtts = base + rng.normal(0.0, 0.2, 2)
                far_rtts = base + 6.0 + shift + rng.normal(0.0, 0.2, 2)
                next_hop = far
                if link_index == 4 and bin_index >= 5:
                    next_hop = f"10.{link_index}.9.9"  # forwarding flip
                traceroutes.append(
                    make_traceroute(
                        probe + link_index * 100,
                        f"src{probe}",
                        f"dst{link_index}",
                        timestamp + probe,
                        [
                            [(near, float(v)) for v in near_rtts],
                            [(next_hop, float(v)) for v in far_rtts],
                        ],
                        from_asn=asn,
                    )
                )
    return traceroutes


TRACKED = {
    ("10.0.0.1", "10.0.0.2"),  # alarmed link
    ("10.1.0.1", "10.1.0.2"),  # link with a gap
    ("10.2.0.1", "10.2.0.2"),  # diversity-rejected link
    ("192.0.2.1", "192.0.2.2"),  # never observed
}


def _config(**kwargs):
    return PipelineConfig(track_links=set(TRACKED), **kwargs)


def _bins(campaign, bin_s=3600):
    binner = TimeBinner(bin_s=bin_s, dense=True)
    return [(start, list(payload)) for start, payload in binner.bins(campaign)]


@pytest.fixture(scope="module")
def campaign():
    return _campaign()


@pytest.fixture(scope="module")
def campaign_bins(campaign):
    return _bins(campaign)


@pytest.fixture(scope="module")
def serial_reference(campaign):
    pipeline = Pipeline(_config())
    results = pipeline.run(campaign)
    return pipeline, results


# -- bit-identical state round-trips ----------------------------------------


def _assert_arena_state_identical(original, restored):
    """Compare two ShardedPipelines' full internal state, bit for bit."""
    assert original.n_shards == restored.n_shards
    for core_a, core_b in zip(
        original._cores, restored._cores
    ):
        da, db = core_a.delay_arena, core_b.delay_arena
        assert da.interner.keys == db.interner.keys
        n = len(da.interner)
        for name in ("_median", "_lower", "_upper"):
            assert np.array_equal(
                getattr(da, name)[:n], getattr(db, name)[:n], equal_nan=True
            ), name
        for name in (
            "_warm_count",
            "_bins_seen",
            "_alarms_raised",
            "_max_probes",
        ):
            assert np.array_equal(
                getattr(da, name)[:n], getattr(db, name)[:n]
            ), name
        # Warm-up buffers matter (bit for bit) only while a link is
        # still warming; ready rows are dead storage.
        for ident in range(n):
            if np.isnan(da._median[ident]):
                count = int(da._warm_count[ident])
                assert np.array_equal(
                    da._warm[ident, :, :count], db._warm[ident, :, :count]
                )
        fa, fb = core_a.forwarding_arena, core_b.forwarding_arena
        assert fa.interner.keys == fb.interner.keys
        assert fa._references == fb._references
        assert fa._bins_seen == fb._bins_seen
        assert fa._alarms_raised == fb._alarms_raised
        assert fa._routers == fb._routers
        assert core_a.diversity._rounds == core_b.diversity._rounds
        assert core_a.tracked == core_b.tracked
    assert original._links_seen == restored._links_seen
    assert original._bins == restored._bins
    assert original._traceroutes == restored._traceroutes


class TestRoundTripProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_links=st.integers(3, 6),
        n_bins=st.integers(1, 6),
        seed=st.integers(0, 5),
        n_shards=st.sampled_from([1, 2, 4]),
    )
    def test_snapshot_restore_is_bit_identical(
        self, n_links, n_bins, seed, n_shards
    ):
        """For arbitrary campaigns, snapshot → restore reproduces the
        arenas, interners, warm-up buffers and counters bit for bit."""
        campaign = _campaign(
            n_links=n_links, n_probes=6, n_bins=n_bins, seed=seed
        )
        engine = ShardedPipeline(_config(n_shards=n_shards))
        engine.run(campaign)
        snapshot = engine.snapshot()
        restored = ShardedPipeline(
            _config(n_shards=n_shards)
        )
        restored.restore(snapshot)
        _assert_arena_state_identical(engine, restored)
        assert restored.stats() == engine.stats()
        assert restored.tracked == engine.tracked

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(n_bins=st.integers(1, 6), seed=st.integers(0, 3))
    def test_serial_pipeline_roundtrip_smoother_state(self, n_bins, seed):
        """The scalar pipeline's smoothers (values *and* warm-up
        buffers) survive a snapshot round-trip bit-identically."""
        campaign = _campaign(n_links=5, n_probes=6, n_bins=n_bins, seed=seed)
        pipeline = Pipeline(_config())
        pipeline.run(campaign)
        restored = Pipeline(_config())
        restored.restore(pipeline.snapshot())
        states_a = pipeline.delay_detector._states
        states_b = restored.delay_detector._states
        assert states_a.keys() == states_b.keys()
        for link, state_a in states_a.items():
            state_b = states_b[link]
            for name in ("median", "lower", "upper"):
                smoother_a = getattr(state_a, name)
                smoother_b = getattr(state_b, name)
                assert smoother_a._value == smoother_b._value
                assert smoother_a._warmup == smoother_b._warmup
            assert state_a.bins_seen == state_b.bins_seen
            assert state_a.alarms_raised == state_b.alarms_raised
        fwd_a = pipeline.forwarding_detector._states
        fwd_b = restored.forwarding_detector._states
        assert fwd_a.keys() == fwd_b.keys()
        for key, state_a in fwd_a.items():
            state_b = fwd_b[key]
            assert state_a.smoother._weights == state_b.smoother._weights
            assert state_a.smoother._updates == state_b.smoother._updates
            assert state_a.alarms_raised == state_b.alarms_raised
        assert pipeline.diversity._rounds == restored.diversity._rounds
        assert pipeline.tracked == restored.tracked
        assert pipeline._probes_per_link == restored._probes_per_link
        assert pipeline.stats() == restored.stats()

    def test_disk_roundtrip_preserves_everything(self, campaign, tmp_path):
        """save → load reproduces the snapshot including results and
        float bit patterns."""
        engine = ShardedPipeline(_config(n_shards=2))
        results = engine.run(campaign)
        snapshot = engine.snapshot(results=results)
        path = tmp_path / "state.ckpt"
        save_snapshot(path, snapshot)
        loaded = load_snapshot(path, config=_config())
        assert loaded.fingerprint == snapshot.fingerprint
        assert loaded.bins_processed == snapshot.bins_processed
        assert loaded.traceroutes_processed == snapshot.traceroutes_processed
        assert loaded.last_timestamp == snapshot.last_timestamp
        assert loaded.links_seen == snapshot.links_seen
        assert loaded.rounds == snapshot.rounds
        assert loaded.delay.links == snapshot.delay.links
        for name in ("median", "lower", "upper", "warm_values"):
            assert np.array_equal(
                getattr(loaded.delay, name),
                getattr(snapshot.delay, name),
                equal_nan=True,
            )
        for name in (
            "warm_count",
            "bins_seen",
            "alarms_raised",
            "max_probes",
            "warm_offsets",
        ):
            assert np.array_equal(
                getattr(loaded.delay, name), getattr(snapshot.delay, name)
            )
        assert loaded.forwarding.keys == snapshot.forwarding.keys
        assert loaded.forwarding.ref_hops == snapshot.forwarding.ref_hops
        assert np.array_equal(
            loaded.forwarding.ref_weights, snapshot.forwarding.ref_weights
        )
        assert loaded.tracked == snapshot.tracked
        assert loaded.results == snapshot.results

    def test_snapshot_bytes_are_deterministic(self, campaign, tmp_path):
        """Two identical runs write byte-identical snapshot files."""
        paths = []
        for index in range(2):
            engine = ShardedPipeline(_config(n_shards=2))
            results = engine.run(campaign)
            path = tmp_path / f"state{index}.ckpt"
            save_snapshot(path, engine.snapshot(results=results))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


# -- crash/resume equivalence ------------------------------------------------


def _sharded(n_shards):
    return ShardedPipeline(_config(n_shards=n_shards))


class TestCrashResumeEquivalence:
    @pytest.mark.parametrize("k", [1, 3, 6, 8])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_interrupted_equals_uninterrupted(
        self, campaign, campaign_bins, serial_reference, k, n_shards, tmp_path
    ):
        """Run bins 0..k-1, checkpoint through disk, restore in a fresh
        engine, run the rest: alarms, aggregates and tracked series are
        identical to the uninterrupted serial run."""
        serial, full = serial_reference
        first_engine = _sharded(n_shards)
        first = [
            first_engine.process_bin(start, payload)
            for start, payload in campaign_bins[:k]
        ]
        path = tmp_path / "state.ckpt"
        save_snapshot(path, first_engine.snapshot(results=first))
        resumed = _sharded(n_shards)
        results = resumed.run(campaign, resume_from=load_snapshot(path))
        assert results == full
        assert resumed.stats() == serial.stats()
        assert resumed.tracked == serial.tracked

    @pytest.mark.parametrize("k", [2, 7])
    def test_serial_pipeline_resume(
        self, campaign, campaign_bins, serial_reference, k, tmp_path
    ):
        serial, full = serial_reference
        first_pipeline = Pipeline(_config())
        first = [
            first_pipeline.process_bin(start, payload)
            for start, payload in campaign_bins[:k]
        ]
        path = tmp_path / "state.ckpt"
        save_snapshot(path, first_pipeline.snapshot(results=first))
        resumed = Pipeline(_config())
        results = resumed.run(campaign, resume_from=load_snapshot(path))
        assert results == full
        assert resumed.stats() == serial.stats()
        assert resumed.tracked == serial.tracked

    def test_cross_shard_count_resume(
        self, campaign, campaign_bins, serial_reference, tmp_path
    ):
        """A checkpoint taken at 3 shards resumes at 2: restore
        repartitions the canonical state by the consistent hash."""
        serial, full = serial_reference
        path = tmp_path / "state.ckpt"
        engine = _sharded(3)
        first = [
            engine.process_bin(start, payload)
            for start, payload in campaign_bins[:4]
        ]
        save_snapshot(path, engine.snapshot(results=first))
        resumed = _sharded(2)
        assert resumed.run(campaign, resume_from=load_snapshot(path)) == full
        assert resumed.stats() == serial.stats()
        assert resumed.tracked == serial.tracked

    def test_serial_snapshot_resumes_in_sharded_engine(
        self, campaign, campaign_bins, serial_reference, tmp_path
    ):
        """Snapshots are engine-agnostic: a serial-pipeline checkpoint
        resumes inside the sharded engine."""
        serial, full = serial_reference
        path = tmp_path / "state.ckpt"
        first_pipeline = Pipeline(_config())
        first = [
            first_pipeline.process_bin(start, payload)
            for start, payload in campaign_bins[:3]
        ]
        save_snapshot(path, first_pipeline.snapshot(results=first))
        resumed = _sharded(4)
        out = resumed.run(campaign, resume_from=load_snapshot(path))
        assert out == full
        assert resumed.stats() == serial.stats()
        assert resumed.tracked == serial.tracked

    def test_resume_on_nonfresh_engine_rejected(
        self, campaign_bins, tmp_path
    ):
        engine = _sharded(2)
        first = [
            engine.process_bin(start, payload)
            for start, payload in campaign_bins[:2]
        ]
        path = tmp_path / "state.ckpt"
        save_snapshot(path, engine.snapshot(results=first))
        snapshot = load_snapshot(path)
        busy = _sharded(2)
        busy.process_bin(*campaign_bins[0])
        with pytest.raises(SnapshotError):
            busy.restore(snapshot)
        serial = Pipeline(_config())
        serial.process_bin(*campaign_bins[0])
        with pytest.raises(SnapshotError):
            serial.restore(snapshot)

    def test_run_checkpointed_crash_resume(
        self, campaign, serial_reference, tmp_path
    ):
        """The driver end to end: fresh run writes checkpoints; a rerun
        resumes and returns the complete, identical result list."""
        serial, full = serial_reference
        path = tmp_path / "state.ckpt"
        fresh = Pipeline(_config())
        results, resumed = run_checkpointed(
            fresh, campaign, path, every_bins=2
        )
        assert not resumed
        assert results == full
        rerun = _sharded(2)
        results, resumed = run_checkpointed(
            rerun, campaign, path, every_bins=2
        )
        assert resumed
        assert results == full
        assert rerun.stats() == serial.stats()

    def test_run_checkpointed_partial_then_resume(
        self, campaign, campaign_bins, serial_reference, tmp_path
    ):
        """Simulated crash: checkpoint covers a prefix; the rerun
        processes only the remaining bins yet returns the full list."""
        serial, full = serial_reference
        path = tmp_path / "state.ckpt"
        partial = Pipeline(_config())
        first = [
            partial.process_bin(start, payload)
            for start, payload in campaign_bins[:4]
        ]
        save_snapshot(path, partial.snapshot(results=first))
        resumed_pipeline = Pipeline(_config())
        results, resumed = run_checkpointed(
            resumed_pipeline, campaign, path, every_bins=3
        )
        assert resumed
        assert results == full
        assert resumed_pipeline._bins == len(full)


# -- format corruption and staleness ----------------------------------------


@pytest.fixture()
def valid_checkpoint(campaign_bins, tmp_path):
    engine = ShardedPipeline(_config(n_shards=2))
    results = [
        engine.process_bin(start, payload)
        for start, payload in campaign_bins[:5]
    ]
    path = tmp_path / "valid.ckpt"
    save_snapshot(path, engine.snapshot(results=results))
    return path


class TestSnapshotFormatVetting:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "nope.ckpt")

    def test_flipped_magic(self, valid_checkpoint):
        raw = bytearray(valid_checkpoint.read_bytes())
        raw[0] ^= 0xFF
        valid_checkpoint.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="magic"):
            load_snapshot(valid_checkpoint)

    def test_flipped_version(self, valid_checkpoint):
        raw = bytearray(valid_checkpoint.read_bytes())
        raw[len(MAGIC)] = SNAPSHOT_VERSION + 1
        valid_checkpoint.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(valid_checkpoint)

    def test_payload_bit_flip_fails_digest(self, valid_checkpoint):
        raw = bytearray(valid_checkpoint.read_bytes())
        raw[-10] ^= 0x01
        valid_checkpoint.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="digest"):
            load_snapshot(valid_checkpoint)

    def test_fingerprint_mismatch_is_stale(self, valid_checkpoint):
        # Loaded unpinned it is fine; pinned to a different alpha it is
        # stale and must be rejected.
        load_snapshot(valid_checkpoint)
        with pytest.raises(SnapshotError, match="fingerprint"):
            load_snapshot(valid_checkpoint, config=_config(alpha=0.05))

    def test_restore_rejects_foreign_fingerprint(self, valid_checkpoint):
        snapshot = load_snapshot(valid_checkpoint)
        engine = ShardedPipeline(_config(alpha=0.05, n_shards=2))
        with pytest.raises(SnapshotError, match="fingerprint"):
            engine.restore(snapshot)
        pipeline = Pipeline(_config(alpha=0.05))
        with pytest.raises(SnapshotError, match="fingerprint"):
            pipeline.restore(snapshot)

    @pytest.mark.parametrize("table", ["warm_offsets", "ref_offsets"])
    def test_non_monotonic_offsets_rejected(self, valid_checkpoint, table):
        """A digest-valid file whose offset tables step backwards must
        still be rejected by structural vetting."""
        snapshot = load_snapshot(valid_checkpoint)
        if table == "warm_offsets":
            offsets = snapshot.delay.warm_offsets
        else:
            offsets = snapshot.forwarding.ref_offsets
        assert offsets.size >= 2
        offsets[-1] += 8  # unanchored tail
        target = valid_checkpoint.with_name("bad-offsets.ckpt")
        save_snapshot(target, snapshot)  # recomputes a valid digest
        with pytest.raises(SnapshotError):
            load_snapshot(target)

    def test_warm_count_out_of_range_rejected(self, valid_checkpoint):
        snapshot = load_snapshot(valid_checkpoint)
        assert snapshot.delay.warm_count.size
        snapshot.delay.warm_count[0] = snapshot.delay.seed_bins + 7
        target = valid_checkpoint.with_name("bad-warm.ckpt")
        save_snapshot(target, snapshot)
        with pytest.raises(SnapshotError):
            load_snapshot(target)

    def test_trailing_bytes_rejected(self, valid_checkpoint):
        raw = valid_checkpoint.read_bytes()
        valid_checkpoint.write_bytes(raw + b"junk")
        with pytest.raises(SnapshotError):
            load_snapshot(valid_checkpoint)

    def test_driver_rebuilds_from_corrupt_checkpoint(
        self, campaign, serial_reference, valid_checkpoint
    ):
        """run_checkpointed never trusts a corrupt file: it rebuilds the
        campaign from scratch and overwrites the checkpoint."""
        serial, full = serial_reference
        raw = bytearray(valid_checkpoint.read_bytes())
        raw[-1] ^= 0xFF
        valid_checkpoint.write_bytes(bytes(raw))
        pipeline = Pipeline(_config())
        results, resumed = run_checkpointed(
            pipeline, campaign, valid_checkpoint, every_bins=4
        )
        assert not resumed
        assert results == full
        # The rebuilt checkpoint is valid again.
        assert load_snapshot(valid_checkpoint).bins_processed == len(full)

    def test_driver_rebuilds_from_results_less_snapshot(
        self, campaign, campaign_bins, serial_reference, tmp_path
    ):
        """A state-only snapshot (the monitor's kind) embeds no per-bin
        results; resuming from it would silently report a campaign
        missing its first bins, so the driver must rebuild instead."""
        serial, full = serial_reference
        monitor_pipeline = Pipeline(_config())
        for start, payload in campaign_bins[:5]:
            monitor_pipeline.process_bin(start, payload)
        path = tmp_path / "monitor.ckpt"
        save_snapshot(path, monitor_pipeline.snapshot())  # no results
        pipeline = Pipeline(_config())
        results, resumed = run_checkpointed(
            pipeline, campaign, path, every_bins=4
        )
        assert not resumed
        assert results == full  # complete output, not a truncated one

    def test_driver_rebuilds_from_stale_checkpoint(
        self, campaign, valid_checkpoint
    ):
        """A checkpoint written under another configuration is ignored."""
        config = _config(alpha=0.05)
        pipeline = Pipeline(config)
        results, resumed = run_checkpointed(
            pipeline, campaign, valid_checkpoint, every_bins=4
        )
        assert not resumed
        reference = Pipeline(_config(alpha=0.05))
        assert results == reference.run(campaign)

    def test_driver_refuses_checkpoint_of_different_campaign(
        self, campaign, serial_reference, tmp_path
    ):
        """A checkpoint path reused against a different campaign file
        must rebuild, never merge the two campaigns' results."""
        from repro.atlas import write_traceroutes

        serial, full = serial_reference
        campaign_a = tmp_path / "a.jsonl"
        campaign_b = tmp_path / "b.jsonl"
        write_traceroutes(campaign_a, _campaign(seed=11))
        write_traceroutes(campaign_b, campaign)
        ckpt = tmp_path / "state.ckpt"
        first = Pipeline(_config())
        run_checkpointed(
            first, _campaign(seed=11), ckpt, every_bins=2,
            source_path=campaign_a,
        )
        # Same checkpoint path, different campaign: must start over.
        pipeline = Pipeline(_config())
        results, resumed = run_checkpointed(
            pipeline, campaign, ckpt, every_bins=2, source_path=campaign_b,
        )
        assert not resumed
        assert results == full
        # And with the matching source it resumes as usual.
        pipeline = Pipeline(_config())
        results, resumed = run_checkpointed(
            pipeline, campaign, ckpt, every_bins=2, source_path=campaign_b,
        )
        assert resumed
        assert results == full

    def test_deeply_nested_payload_rejected(self, tmp_path):
        """A digest-valid payload of pathological nesting raises
        SnapshotError (depth limit) — never RecursionError."""
        from repro import binfmt
        from repro.core.checkpoint import CHECKPOINT

        nested = b"l\x01\x00\x00\x00" * 5000 + b"N"
        path = tmp_path / "deep.ckpt"
        binfmt.atomic_write(path, CHECKPOINT, [b"\x00" * 16, nested])
        with pytest.raises(SnapshotError, match="nesting"):
            load_snapshot(path)

    def test_atomic_write_leaves_no_temp(self, valid_checkpoint):
        siblings = list(valid_checkpoint.parent.glob("*.tmp*"))
        assert siblings == []

    def test_save_rejects_bad_fingerprint_length(self, tmp_path):
        snapshot = Pipeline(_config()).snapshot()
        snapshot.fingerprint = b"short"
        with pytest.raises(SnapshotError, match="fingerprint"):
            save_snapshot(tmp_path / "x.ckpt", snapshot)

    def test_fingerprint_covers_detection_params_only(self):
        base = _config()
        assert config_fingerprint(base) == config_fingerprint(
            _config(n_shards=8)
        )
        assert config_fingerprint(base) != config_fingerprint(
            _config(alpha=0.05)
        )
        assert config_fingerprint(base) != config_fingerprint(
            PipelineConfig()  # different tracked links
        )

    def test_fingerprint_pins(self):
        """Literal fingerprints, as written into every checkpoint so
        far: a change to the digest inputs would orphan them all."""
        assert config_fingerprint(PipelineConfig()).hex() == (
            "12d75c8e5e6f88184215d3a678534f59"
        )
        custom = PipelineConfig(
            bin_s=1800, alpha=0.05, z=2.576, min_shift_ms=2.0, min_asns=2,
            min_entropy=0.4, tau=-0.3, forwarding_warmup=5,
            winsorize=False, seed=7,
            track_links={("10.0.0.1", "10.0.0.2")},
        )
        assert config_fingerprint(custom).hex() == (
            "aa9ac975bb04b4aaf762998c30b683ca"
        )

    def test_run_checkpointed_validates_every_bins(self, campaign, tmp_path):
        with pytest.raises(ValueError):
            run_checkpointed(
                Pipeline(_config()), campaign, tmp_path / "x.ckpt",
                every_bins=0,
            )


# -- live path: stream feeding the incremental engine ------------------------


class TestStreamFeedsIncrementalEngine:
    def test_dense_stream_equals_batch_run(self, campaign, serial_reference):
        """Pushing the (shuffled) campaign through a dense
        TracerouteStream and processing each closed bin incrementally
        reproduces the batch run exactly — including the empty bins the
        gap produces."""
        from repro.atlas import TracerouteStream

        serial, full = serial_reference
        rng = np.random.default_rng(0)
        shuffled = list(campaign)
        for index in range(0, len(shuffled) - 40, 40):
            window = shuffled[index : index + 40]
            rng.shuffle(window)
            shuffled[index : index + 40] = window
        pipeline = Pipeline(_config())
        stream = TracerouteStream(bin_s=3600, lateness_bins=1, dense=True)
        results = []
        for traceroute in shuffled:
            for start, payload in stream.push(traceroute):
                results.append(pipeline.process_bin(start, payload))
        for start, payload in stream.drain():
            results.append(pipeline.process_bin(start, payload))
        assert results == full
        assert pipeline.stats() == serial.stats()

    def test_resumed_stream_continues_the_clock(
        self, campaign, campaign_bins, serial_reference, tmp_path
    ):
        """Checkpoint mid-stream, rebuild pipeline + stream (with
        start_after), replay the whole feed: the resumed monitor's bins
        complete the uninterrupted sequence."""
        from repro.atlas import TracerouteStream

        serial, full = serial_reference
        k = 4
        first_pipeline = Pipeline(_config())
        first = [
            first_pipeline.process_bin(start, payload)
            for start, payload in campaign_bins[:k]
        ]
        path = tmp_path / "mon.ckpt"
        save_snapshot(path, first_pipeline.snapshot(results=first))
        snapshot = load_snapshot(path, config=_config())
        pipeline = Pipeline(_config())
        pipeline.restore(snapshot)
        stream = TracerouteStream(
            bin_s=3600,
            lateness_bins=1,
            dense=True,
            start_after=snapshot.last_timestamp,
        )
        results = list(snapshot.results)
        for traceroute in campaign:
            for start, payload in stream.push(traceroute):
                results.append(pipeline.process_bin(start, payload))
        for start, payload in stream.drain():
            results.append(pipeline.process_bin(start, payload))
        assert results == full
        assert pipeline.stats() == serial.stats()
        assert stream.dropped_replayed > 0
        assert stream.dropped_late == 0


# -- misc API behaviour ------------------------------------------------------


class TestSnapshotApi:
    def test_empty_engine_snapshot_roundtrip(self, tmp_path):
        """A snapshot of a fresh engine is valid and restorable."""
        engine = ShardedPipeline(_config(n_shards=2))
        path = tmp_path / "empty.ckpt"
        save_snapshot(path, engine.snapshot())
        loaded = load_snapshot(path, config=_config())
        assert isinstance(loaded, EngineSnapshot)
        restored = Pipeline(_config())
        restored.restore(loaded)
        assert restored.stats().bins_processed == 0

    def test_payload_encoder_is_importable_for_tests(self):
        """_encode_payload exists for corruption-crafting tests."""
        snapshot = Pipeline(_config()).snapshot()
        assert isinstance(_encode_payload(snapshot), bytes)
