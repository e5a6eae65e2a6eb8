"""Checkpoint/resume: snapshot round-trips, crash/resume equivalence,
and snapshot-format corruption handling.

Four guarantees are pinned here:

1. ``snapshot()`` → ``restore()`` reproduces detector state
   **bit-identically** — every arena array, warm-up buffer, smoother
   value, counter, diversity round and tracked point — for the engine
   and for the serial reference pipeline, and the engine's snapshot
   bytes equal the serial pipeline's after every bin (hypothesis
   properties);
2. a run interrupted after any bin and resumed in a fresh engine
   (including from a checkpoint an older engine wrote with its rows in
   shard order) produces exactly the uninterrupted run's alarms,
   campaign aggregates and tracked-link series;
3. the binary snapshot format never silently serves a truncated,
   foreign, stale or corrupt file — every such file raises
   :class:`SnapshotError`, and the resumable driver rebuilds from
   scratch instead of trusting it;
4. save → load keeps every float's bits, every dict's order and plain
   Python scalar types, and a payload that loads re-encodes to its own
   bytes (hypothesis properties over synthetic snapshots and hostile
   payloads).
"""

import dataclasses
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import binfmt
from repro.atlas import (
    TimeBinner,
    decode_traceroutes,
    make_traceroute,
    read_traceroutes,
)
from repro.cli import main
from repro.core import (
    Engine,
    EngineSnapshot,
    Pipeline,
    PipelineConfig,
    SnapshotError,
    config_fingerprint,
    load_snapshot,
    run_checkpointed,
    save_snapshot,
)
from repro.core.alarms import DelayAlarm, ForwardingAlarm
from repro.core.checkpoint import (
    _COUNT_BLOCK,
    _COUNTS,
    _HEAD,
    _OFFSETS,
    _SCHEMA,
    CHECKPOINT,
    MAGIC,
    SNAPSHOT_VERSION,
    DelayTable,
    ForwardingTable,
    _encode_payload,
)
from repro.core.pipeline import BinResult, TrackedLinkPoint
from repro.stats import WilsonInterval

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
    """Compare two engines' full internal state, key by key, bit for bit.

    Arena rows are matched by key: a restored arena holds its rows in
    the snapshot's sorted order, not the original's first-seen order.
    """
    da, db = original.delay_arena, restored.delay_arena
    links = sorted(da.interner.keys)
    assert links == sorted(db.interner.keys)
    rows_a = np.array([da.interner.get(link) for link in links], dtype=int)
    rows_b = np.array([db.interner.get(link) for link in links], dtype=int)
    for name in ("_median", "_lower", "_upper"):
        assert np.array_equal(
            getattr(da, name)[rows_a], getattr(db, name)[rows_b],
            equal_nan=True,
        ), name
    for name in ("_warm_count", "_bins_seen", "_alarms_raised", "_max_probes"):
        assert np.array_equal(
            getattr(da, name)[rows_a], getattr(db, name)[rows_b]
        ), name
    # Warm-up buffers matter (bit for bit) only while a link is still
    # warming; ready rows are dead storage.
    for row_a, row_b in zip(rows_a, rows_b):
        if np.isnan(da._median[row_a]):
            count = int(da._warm_count[row_a])
            assert np.array_equal(
                da._warm[row_a, :, :count], db._warm[row_b, :, :count]
            )
    fa, fb = original.forwarding_arena, restored.forwarding_arena
    keys = sorted(fa.interner.keys)
    assert keys == sorted(fb.interner.keys)
    for key in keys:
        ia, ib = fa.interner.get(key), fb.interner.get(key)
        assert fa._references[ia] == fb._references[ib]
        assert fa._bins_seen[ia] == fb._bins_seen[ib]
        assert fa._alarms_raised[ia] == fb._alarms_raised[ib]
    assert fa._routers == fb._routers
    assert original.diversity._rounds == restored.diversity._rounds
    assert original.tracked == restored.tracked
    assert original._links_seen == restored._links_seen
    assert original._bins == restored._bins
    assert original._traceroutes == restored._traceroutes


def _staggered(campaign, n_links):
    """*campaign* with link *i* first seen in bin ``n_links - 1 - i``.

    Links and forwarding models then first appear in the reverse of
    their sorted order, so an engine that kept first-seen row order
    would write different snapshot bytes from the serial pipeline.
    """
    return [
        t for t in campaign
        if t.timestamp // 3600 >= n_links - 1 - int(t.dst_addr[3:])
    ]


def _file_bytes(snapshot):
    """What :func:`save_snapshot` writes for *snapshot*."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "state.ckpt"
        save_snapshot(path, snapshot)
        return path.read_bytes()


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
    )
    def test_snapshot_restore_is_bit_identical(self, n_links, n_bins, seed):
        """For arbitrary campaigns, snapshot → restore reproduces the
        arenas, interners, warm-up buffers and counters bit for bit."""
        campaign = _campaign(
            n_links=n_links, n_probes=6, n_bins=n_bins, seed=seed
        )
        engine = Engine(_config())
        engine.run(campaign)
        snapshot = engine.snapshot()
        restored = Engine(_config())
        restored.restore(snapshot)
        _assert_arena_state_identical(engine, restored)
        assert restored.stats() == engine.stats()
        assert restored.tracked == engine.tracked

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_links=st.integers(3, 6),
        n_bins=st.integers(2, 7),
        seed=st.integers(0, 5),
    )
    def test_engine_snapshot_bytes_equal_the_oracle(
        self, n_links, n_bins, seed
    ):
        """After every bin the engine's checkpoint file is the serial
        pipeline's, byte for byte — on campaigns whose links and models
        first appear in later bins, in the reverse of sorted order."""
        campaign = _staggered(
            _campaign(n_links=n_links, n_probes=6, n_bins=n_bins, seed=seed),
            n_links,
        )
        engine, oracle = Engine(_config()), Pipeline(_config())
        engine_results, oracle_results = [], []
        for start, payload in _bins(campaign):
            engine_results.append(engine.process_bin(start, payload))
            oracle_results.append(oracle.process_bin(start, payload))
            assert _file_bytes(
                engine.snapshot(results=engine_results)
            ) == _file_bytes(oracle.snapshot(results=oracle_results))

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
        engine = Engine(_config())
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
            engine = Engine(_config())
            results = engine.run(campaign)
            path = tmp_path / f"state{index}.ckpt"
            save_snapshot(path, engine.snapshot(results=results))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


# -- crash/resume equivalence ------------------------------------------------


class _Crash(Exception):
    """The simulated crash: raised instead of processing a bin."""


#: Checkpoints an older engine wrote at 1, 2 and 4 shards, rows in shard
#: order (see ``test_cross_shard_count_resume``).
PARENT_CHECKPOINTS = Path(__file__).parent / "fixtures" / "checkpoint.v3"


class TestCrashResumeEquivalence:
    @pytest.mark.parametrize("k", [1, 3, 6, 8])
    @pytest.mark.parametrize("every_bins", [1, 2, 4])
    def test_interrupted_equals_uninterrupted(
        self, campaign, serial_reference, k, every_bins, tmp_path
    ):
        """Crash the checkpointing driver before bin k, rerun it in a
        fresh engine: alarms, aggregates and tracked series are
        identical to the uninterrupted serial run, whichever bin the
        last checkpoint (every *every_bins* bins) covered."""
        serial, full = serial_reference
        path = tmp_path / "state.ckpt"
        crashing = Engine(_config())
        process_bin = crashing.process_bin

        def crash_at_k(start, payload):
            if crashing._bins == k:
                raise _Crash
            return process_bin(start, payload)

        crashing.process_bin = crash_at_k
        with pytest.raises(_Crash):
            run_checkpointed(crashing, campaign, path, every_bins=every_bins)
        resumed = Engine(_config())
        results, was_resumed = run_checkpointed(
            resumed, campaign, path, every_bins=every_bins
        )
        assert was_resumed == (k >= every_bins)
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

    def test_cross_shard_count_resume(self, tmp_path_factory):
        """Checkpoints an older engine wrote at 1, 2 and 4 shards — rows
        in shard order — restore into the engine and resume to the
        uninterrupted run, and re-saving any of them gives the serial
        pipeline's bytes.

        Written at that engine with::

            python -m repro generate --hours 6 --seed 3 --probes 12 \\
                --scenario outage --no-anchoring --out feed.jsonl
            # head.jsonl: the feed's lines with timestamp < 3 * 3600
            python -m repro analyze head.jsonl --seed 3 --probes 12 \\
                --checkpoint shards-N.ckpt --shards N   # N = 1, 2, 4
        """
        feed = tmp_path_factory.mktemp("parent-ckpt") / "feed.jsonl"
        assert main([
            "generate", "--hours", "6", "--seed", "3", "--probes", "12",
            "--scenario", "outage", "--no-anchoring", "--out", str(feed),
        ]) == 0
        traceroutes = list(read_traceroutes(feed))
        oracle = Pipeline(PipelineConfig())
        full = oracle.run(traceroutes)
        assert any(
            r.delay_alarms or r.forwarding_alarms for r in full[3:]
        ), "vacuous resume"
        resaved = set()
        for shards in (1, 2, 4):
            loaded = load_snapshot(
                PARENT_CHECKPOINTS / f"shards-{shards}.ckpt",
                config=PipelineConfig(),
            )
            assert loaded.bins_processed == len(loaded.results) == 3
            engine = Engine(PipelineConfig())
            engine.restore(loaded)
            state = engine.snapshot(results=loaded.results)
            state.source_digest = loaded.source_digest
            resaved.add(_file_bytes(state))
            resumed = engine.run(decode_traceroutes(feed), resume_from=loaded)
            assert resumed == full
            assert engine.stats() == oracle.stats()
        head = Pipeline(PipelineConfig())
        state = head.snapshot(results=head.run(
            [t for t in traceroutes if t.timestamp < 3 * 3600]
        ))
        state.source_digest = loaded.source_digest
        assert resaved == {_file_bytes(state)}

    def test_serial_snapshot_resumes_in_sharded_engine(
        self, campaign, campaign_bins, serial_reference, tmp_path
    ):
        """Snapshots are engine-agnostic: a serial-pipeline checkpoint
        resumes inside the engine."""
        serial, full = serial_reference
        path = tmp_path / "state.ckpt"
        first_pipeline = Pipeline(_config())
        first = [
            first_pipeline.process_bin(start, payload)
            for start, payload in campaign_bins[:3]
        ]
        save_snapshot(path, first_pipeline.snapshot(results=first))
        resumed = Engine(_config())
        out = resumed.run(campaign, resume_from=load_snapshot(path))
        assert out == full
        assert resumed.stats() == serial.stats()
        assert resumed.tracked == serial.tracked

    def test_resume_on_nonfresh_engine_rejected(
        self, campaign_bins, tmp_path
    ):
        engine = Engine(_config())
        first = [
            engine.process_bin(start, payload)
            for start, payload in campaign_bins[:2]
        ]
        path = tmp_path / "state.ckpt"
        save_snapshot(path, engine.snapshot(results=first))
        snapshot = load_snapshot(path)
        busy = Engine(_config())
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
        rerun = Engine(_config())
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
    engine = Engine(_config())
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
        engine = Engine(_config(alpha=0.05))
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

    def test_atomic_write_leaves_no_temp(self, valid_checkpoint):
        siblings = list(valid_checkpoint.parent.glob("*.tmp*"))
        assert siblings == []

    def test_save_rejects_bad_fingerprint_length(self, tmp_path):
        snapshot = Pipeline(_config()).snapshot()
        snapshot.fingerprint = b"short"
        with pytest.raises(SnapshotError, match="fingerprint"):
            save_snapshot(tmp_path / "x.ckpt", snapshot)
        # A source digest is empty (unbound) or 16 bytes; anything else
        # would write a file no load accepts.
        snapshot = Pipeline(_config()).snapshot()
        snapshot.source_digest = b"\x01" * 15
        with pytest.raises(SnapshotError, match="source digest"):
            save_snapshot(tmp_path / "x.ckpt", snapshot)
        assert not (tmp_path / "x.ckpt").exists()

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
        engine = Engine(_config())
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


# -- hostile payloads and bit-exact round trips ------------------------------


def _write_framed(path, payload):
    """Write *payload* behind a zero fingerprint, with a fresh digest."""
    body = bytes(16) + payload
    path.write_bytes(
        MAGIC
        + binfmt.HEADER.pack(SNAPSHOT_VERSION, len(body), binfmt.digest(body))
        + body
    )


def _frame_and_load(path, payload):
    """Frame and load *payload*: the snapshot, or ``None`` when it is
    refused.  A payload that loads must re-encode to its own bytes."""
    _write_framed(path, payload)
    try:
        snapshot = load_snapshot(path)
    except SnapshotError:
        return None
    assert _encode_payload(snapshot) == payload
    return snapshot


@pytest.fixture(scope="module")
def valid_payload():
    """A small payload with rows in every column: a tracked link's
    points and both alarm kinds, hop maps included."""
    pipeline = Pipeline(PipelineConfig(track_links={("10.0.0.1", "10.0.0.2")}))
    results = pipeline.run(_campaign(n_links=5, n_probes=4, n_bins=7))
    assert any(r.forwarding_alarms for r in results)
    assert any(r.delay_alarms for r in results)
    return _encode_payload(pipeline.snapshot(results=results))


_HOSTILE = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestHostilePayloads:
    """A digest-valid payload loads or raises SnapshotError — never
    IndexError, ValueError, OverflowError, MemoryError or struct.error."""

    @_HOSTILE
    @given(payload=st.binary(max_size=512))
    @example(payload=b"l\x01\x00\x00\x00" * 5000 + b"N")  # 5 000-deep nesting
    def test_arbitrary_bytes(self, tmp_path, payload):
        _frame_and_load(tmp_path / "hostile.ckpt", payload)

    @_HOSTILE
    @given(cut=st.integers(0, 1 << 16), tail=st.binary(max_size=64))
    def test_valid_prefix_then_arbitrary_bytes(
        self, tmp_path, valid_payload, cut, tail
    ):
        _frame_and_load(tmp_path / "hostile.ckpt", valid_payload[:cut] + tail)

    def test_every_single_byte_mutation(self, tmp_path, valid_payload):
        path = tmp_path / "hostile.ckpt"
        for offset in range(len(valid_payload)):
            mutated = bytearray(valid_payload)
            mutated[offset] ^= 0xFF
            _frame_and_load(path, bytes(mutated))

    def test_count_field_mutations(self, tmp_path, valid_payload):
        """Any changed count is refused: every row count moves the end
        of the column data."""
        reader = binfmt.Reader(memoryview(valid_payload), CHECKPOINT, "p")
        reader.strings()
        at = reader.offset + _HEAD.size
        counts = _COUNT_BLOCK.unpack_from(valid_payload, at)
        rest = valid_payload[at + _COUNT_BLOCK.size :]
        for index, count in enumerate(counts):
            for value in {0, 1, count - 1, count + 1, 2**32, 2**63, 2**64 - 1}:
                if value == count or value < 0:
                    continue
                mutated = list(counts)
                mutated[index] = value
                block = _COUNT_BLOCK.pack(*mutated)
                payload = valid_payload[:at] + block + rest
                assert _frame_and_load(tmp_path / "c.ckpt", payload) is None


def _column_at(payload):
    """The byte offset of the head and of every schema column."""
    reader = binfmt.Reader(memoryview(payload), CHECKPOINT, "p")
    reader.strings()
    at = {"head": reader.offset}
    reader.take(_HEAD.size)
    counts = dict(zip(_COUNTS, reader.unpack(_COUNT_BLOCK)))
    for name, dtype, rows, width in _SCHEMA:
        at[name] = reader.offset
        reader.column(dtype, counts[rows] * width + (name in _OFFSETS))
    return at


#: (field, byte offset in it, new byte): edits that decode to a valid
#: snapshot which re-encodes to other bytes.
_NON_CANONICAL = {
    "unknown flag bit": ("point_flags", 0, 0x08 | 0x40),  # 0x08: accepted
    "mean behind a zero flag": ("point_floats", 6 * 8 + 7, 0x80),  # -0.0
    "observed n behind a zero flag": ("point_ints", 2 * 8, 1),
    "digest behind a zero flag": ("head", 1, 1),
    "timestamp behind a zero flag": ("head", 1 + 16 + 8 + 8 + 1, 1),
    # "a" and "b" swapped in the table, and in the ids that use them.
    "strings out of first-use order": ("links_seen", 0, 1),
}


@pytest.mark.parametrize("edit", sorted(_NON_CANONICAL))
def test_non_canonical_payload_refused(tmp_path, edit):
    """One snapshot has exactly one encoding: any other is refused."""
    snapshot = Pipeline(PipelineConfig()).snapshot()
    snapshot.links_seen = [("a", "b")]
    snapshot.tracked = {
        ("a", "b"): [TrackedLinkPoint(7, None, None, False, True, 3)]
    }
    payload = bytearray(_encode_payload(snapshot))
    assert _frame_and_load(tmp_path / "ok.ckpt", bytes(payload))
    field, offset, value = _NON_CANONICAL[edit]
    at = _column_at(payload)
    payload[at[field] + offset] = value
    if field == "links_seen":
        payload[at[field] + 4] = 0
        payload[4:14] = payload[9:14] + payload[4:9]
    _write_framed(tmp_path / "c.ckpt", bytes(payload))
    with pytest.raises(SnapshotError, match="non-canonical"):
        load_snapshot(tmp_path / "c.ckpt")


_SPECIAL_FLOATS = [
    0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
    5e-324, -2.2250738585072e-308,  # subnormals
    struct.unpack("<d", bytes.fromhex("010000000000f87f"))[0],  # NaN payload
]
_floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())
_i64 = st.integers(-(2**63), 2**63 - 1)
_hops = st.one_of(
    st.sampled_from(["", "*", "10.0.0.1", "2001:db8::1", "rôuter-é", "☃"]),
    st.text(max_size=4),
)
_links = st.tuples(_hops, _hops)
_intervals = st.builds(WilsonInterval, _floats, _floats, _floats, _i64)
_hop_maps = st.dictionaries(_hops, _floats, max_size=3)
_points = st.builds(
    TrackedLinkPoint,
    timestamp=_i64,
    observed=st.none() | _intervals,
    reference=st.none() | _intervals,
    alarmed=st.booleans(),
    accepted=st.booleans(),
    n_probes=_i64,
    mean=st.sampled_from([None, 0.0]) | _floats,
    sample_std=st.sampled_from([None, 0.0]) | _floats,
)
_delay_alarms = st.builds(
    DelayAlarm, _i64, _links, _intervals, _intervals, _floats,
    st.sampled_from([-1, 1]), _i64, _i64,
)
_forwarding_alarms = st.builds(
    ForwardingAlarm, _i64, _hops, _hops, _floats, _hop_maps, _hop_maps,
    _hop_maps,
)
_results = st.builds(
    BinResult, _i64, _i64, _i64, _i64,
    st.lists(_delay_alarms, max_size=2),
    st.lists(_forwarding_alarms, max_size=2),
)


@st.composite
def _snapshots(draw):
    """Synthetic snapshots: every float column draws the special values,
    optional fields draw ``None`` beside ``0.0``."""
    seed_bins = draw(st.integers(1, 4))
    links = draw(st.lists(_links, max_size=4))
    n = len(links)
    median = [draw(_floats) for _ in range(n)]
    warm_count = [draw(st.integers(0, seed_bins)) for _ in range(n)]
    stored = [3 * c if m != m else 0 for m, c in zip(median, warm_count)]
    delay = DelayTable(
        links=links,
        median=np.array(median, dtype=np.float64),
        lower=np.array([draw(_floats) for _ in range(n)], dtype=np.float64),
        upper=np.array([draw(_floats) for _ in range(n)], dtype=np.float64),
        warm_count=np.array(warm_count, dtype=np.int64),
        bins_seen=np.array([draw(_i64) for _ in range(n)], dtype=np.int64),
        alarms_raised=np.array([draw(_i64) for _ in range(n)], dtype=np.int64),
        max_probes=np.array([draw(_i64) for _ in range(n)], dtype=np.int64),
        warm_offsets=np.cumsum([0, *stored], dtype=np.int64),
        warm_values=np.array(
            [draw(_floats) for _ in range(sum(stored))], dtype=np.float64
        ),
        seed_bins=seed_bins,
    )
    keys = draw(st.lists(_links, max_size=3))
    references = [draw(_hop_maps) for _ in keys]
    forwarding = ForwardingTable(
        keys=keys,
        bins_seen=np.array([draw(_i64) for _ in keys], dtype=np.int64),
        alarms_raised=np.array([draw(_i64) for _ in keys], dtype=np.int64),
        ref_offsets=np.cumsum([0, *map(len, references)], dtype=np.int64),
        ref_hops=[hop for ref in references for hop in ref],
        ref_weights=np.array(
            [w for ref in references for w in ref.values()], dtype=np.float64
        ),
    )
    return EngineSnapshot(
        fingerprint=draw(st.binary(min_size=16, max_size=16)),
        bins_processed=draw(_i64),
        traceroutes_processed=draw(_i64),
        last_timestamp=draw(st.none() | st.integers(-(2**63), -1) | _i64),
        links_seen=draw(st.lists(_links, max_size=4)),
        rounds=draw(st.dictionaries(_links, st.integers(0, 2**63 - 1),
                                    max_size=3)),
        delay=delay,
        forwarding=forwarding,
        tracked=draw(st.dictionaries(_links, st.lists(_points, max_size=3),
                                     max_size=3)),
        results=draw(st.lists(_results, max_size=3)),
        source_digest=draw(
            st.just(b"") | st.binary(min_size=16, max_size=16)
        ),
    )


def _exact(value):
    """*value* as nested tuples in which every float is its IEEE-754
    bytes and every dict keeps its order; anything but a plain Python
    scalar, a container, an array or a dataclass is refused."""
    kind = type(value)
    if kind is float:
        return struct.pack("<d", value)
    if value is None or kind in (bool, int, str, bytes):
        return (kind.__name__, value)
    if kind in (list, tuple):
        return (kind.__name__, *map(_exact, value))
    if kind is dict:
        return ("dict", *((_exact(k), _exact(v)) for k, v in value.items()))
    if kind is np.ndarray:
        return ("array", value.dtype.str, value.tobytes())
    assert dataclasses.is_dataclass(value), f"unexpected {kind!r}"
    return (kind.__name__, *(
        _exact(getattr(value, f.name)) for f in dataclasses.fields(value)
    ))


class TestBitExactRoundTrip:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
        ],
    )
    @given(snapshot=_snapshots())
    def test_save_load_preserves_bits_order_and_types(
        self, tmp_path, snapshot
    ):
        """Float bit patterns (−0.0, NaN payloads, ±inf, subnormals),
        dict order, ``None`` vs ``0.0`` and Python scalar types all
        survive save → load, and the loaded snapshot re-encodes to the
        same bytes."""
        path = tmp_path / "exact.ckpt"
        save_snapshot(path, snapshot)
        loaded = load_snapshot(path)
        assert _exact(loaded) == _exact(snapshot)
        assert _encode_payload(loaded) == _encode_payload(snapshot)
