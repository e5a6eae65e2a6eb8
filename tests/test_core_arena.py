"""Scalar-vs-arena equivalence: the detection kernels' core guarantee.

The structure-of-arrays arenas (``repro.core.arena``) must reproduce the
scalar detectors bit for bit: same alarms in the same order, same
smoothed references, same counters — for any bin sequence, with
winsorizing on or off, and past the
initial array capacity.  The hypothesis properties here drive both
implementations over random campaigns and assert full structural
equality; the unit tests cover the interner and the arena-specific
edges (growth, warm-up, empty bins).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DelayArena,
    DelayChangeDetector,
    ForwardingAnomalyDetector,
    ForwardingArena,
    LinkInterner,
)
from repro.stats.wilson import WilsonInterval

LINKS = [(f"10.0.{index}.1", f"10.0.{index}.2") for index in range(6)]

MODEL_KEYS = [
    ("192.0.2.1", "198.51.100.1"),
    ("192.0.2.1", "198.51.100.2"),
    ("192.0.2.2", "198.51.100.1"),
    ("192.0.2.3", "198.51.100.3"),
]

HOPS = ["203.0.113.1", "203.0.113.2", "203.0.113.3", "*"]


@st.composite
def interval_strategy(draw):
    """A valid observed interval: lower <= median <= upper, small n."""
    values = sorted(
        draw(
            st.lists(
                st.floats(
                    min_value=-20.0,
                    max_value=60.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=3,
                max_size=3,
            )
        )
    )
    n = draw(st.integers(min_value=1, max_value=50))
    return WilsonInterval(
        median=values[1], lower=values[0], upper=values[2], n=n
    )


@st.composite
def delay_campaign_strategy(draw):
    """A random sequence of bins: per bin, some links with intervals."""
    n_bins = draw(st.integers(min_value=1, max_value=12))
    bins = []
    for _ in range(n_bins):
        links = draw(
            st.lists(
                st.sampled_from(LINKS), unique=True, min_size=0, max_size=5
            )
        )
        bins.append(
            [
                (
                    link,
                    draw(interval_strategy()),
                    draw(st.integers(1, 9)),
                    draw(st.integers(1, 4)),
                )
                for link in sorted(links)
            ]
        )
    return bins


def _run_scalar_delay(bins, **kwargs):
    detector = DelayChangeDetector(**kwargs)
    alarms = []
    for timestamp, rows in enumerate(bins):
        for link, observed, n_probes, n_asns in rows:
            alarm = detector.observe_interval(
                timestamp * 3600,
                link,
                observed,
                n_probes=n_probes,
                n_asns=n_asns,
            )
            if alarm is not None:
                alarms.append(alarm)
    return alarms, detector


def _run_arena_delay(bins, **kwargs):
    arena = DelayArena(**kwargs)
    alarms = []
    for timestamp, rows in enumerate(bins):
        links = [row[0] for row in rows]
        alarms.extend(
            arena.observe_bin(
                timestamp * 3600,
                links,
                np.array([row[1].median for row in rows]),
                np.array([row[1].lower for row in rows]),
                np.array([row[1].upper for row in rows]),
                np.array([row[1].n for row in rows], dtype=np.int64),
                [row[2] for row in rows],
                [row[3] for row in rows],
            )
        )
    return alarms, arena


class TestDelayArenaEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        bins=delay_campaign_strategy(),
        winsorize=st.booleans(),
        min_shift_ms=st.sampled_from([0.0, 1.0, 5.0]),
        alpha=st.sampled_from([0.01, 0.5, 0.9]),
    )
    def test_identical_alarms_and_state(
        self, bins, winsorize, min_shift_ms, alpha
    ):
        """Arena == scalar on random campaigns, winsorize on and off."""
        scalar_alarms, detector = _run_scalar_delay(
            bins, alpha=alpha, min_shift_ms=min_shift_ms, winsorize=winsorize
        )
        arena_alarms, arena = _run_arena_delay(
            bins, alpha=alpha, min_shift_ms=min_shift_ms, winsorize=winsorize
        )
        assert arena_alarms == scalar_alarms
        assert set(arena.links()) == set(detector._states)
        for link, state in detector._states.items():
            assert arena.reference_of(link) == state.reference, link
            assert arena.bins_seen_of(link) == state.bins_seen, link
            assert arena.alarms_raised_of(link) == state.alarms_raised, link
        assert arena.alarmed_links() == {
            link
            for link, state in detector._states.items()
            if state.alarms_raised > 0
        }

    def test_alarm_fields_match_scalar_exactly(self):
        """A deterministic shift produces the same alarm, field by field."""
        bins = [
            [(LINKS[0], WilsonInterval(10.0, 9.5, 10.5, 20), 5, 3)]
            for _ in range(4)
        ]
        bins.append([(LINKS[0], WilsonInterval(30.0, 29.5, 30.5, 20), 5, 3)])
        scalar_alarms, _ = _run_scalar_delay(bins)
        arena_alarms, _ = _run_arena_delay(bins)
        assert len(scalar_alarms) == 1
        assert arena_alarms == scalar_alarms
        alarm = arena_alarms[0]
        assert alarm.direction == 1
        assert alarm.deviation > 0
        assert alarm.n_probes == 5 and alarm.n_asns == 3

    def test_growth_past_initial_capacity(self):
        """Interning more links than the initial capacity keeps state."""
        arena = DelayArena(alpha=0.5)
        n_links = 2100  # > 2x the initial 1024 capacity
        links = [(f"10.{i // 250}.{i % 250}.1", "10.255.255.2") for i in range(n_links)]
        interval = WilsonInterval(5.0, 4.0, 6.0, 10)
        ones = np.ones(n_links)
        for _ in range(3):
            arena.observe_bin(
                0,
                links,
                5.0 * ones,
                4.0 * ones,
                6.0 * ones,
                np.full(n_links, 10, dtype=np.int64),
                [1] * n_links,
                [1] * n_links,
            )
        assert arena.n_links == n_links
        assert arena.reference_of(links[-1]) == WilsonInterval(
            5.0, 4.0, 6.0, 3
        )
        assert arena.reference_of(links[0]) == arena.reference_of(links[-1])

    def test_empty_bin_is_a_no_op(self):
        arena = DelayArena()
        assert arena.observe_bin(0, [], np.empty(0), np.empty(0), np.empty(0), np.empty(0, dtype=np.int64), [], []) == []
        assert arena.n_links == 0

    def test_max_probes_tracks_per_link_maximum(self):
        bins = [
            [(LINKS[0], WilsonInterval(10.0, 9.0, 11.0, 5), probes, 2)]
            for probes in (3, 7, 5)
        ]
        _, arena = _run_arena_delay(bins)
        assert arena.max_probes_map() == {LINKS[0]: 7}

    def test_validation(self):
        with pytest.raises(ValueError):
            DelayArena(alpha=0.0)
        with pytest.raises(ValueError):
            DelayArena(min_shift_ms=-1.0)
        with pytest.raises(ValueError):
            DelayArena(seed_bins=0)


@st.composite
def pattern_strategy(draw):
    """A sparse next-hop pattern; may include zero-valued entries."""
    hops = draw(
        st.lists(st.sampled_from(HOPS), unique=True, min_size=0, max_size=4)
    )
    return {
        hop: draw(
            st.floats(min_value=0.0, max_value=30.0, allow_nan=False)
        )
        for hop in hops
    }


@st.composite
def forwarding_campaign_strategy(draw):
    """A random sequence of bins: per bin, some models with patterns."""
    n_bins = draw(st.integers(min_value=1, max_value=10))
    bins = []
    for _ in range(n_bins):
        keys = draw(
            st.lists(
                st.sampled_from(MODEL_KEYS),
                unique=True,
                min_size=0,
                max_size=4,
            )
        )
        bins.append({key: draw(pattern_strategy()) for key in keys})
    return bins


class TestForwardingArenaEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        bins=forwarding_campaign_strategy(),
        tau=st.sampled_from([0.0, -0.25]),
        alpha=st.sampled_from([0.01, 0.5]),
        warmup_bins=st.sampled_from([1, 3]),
    )
    def test_identical_alarms_and_state(self, bins, tau, alpha, warmup_bins):
        """Arena == scalar forwarding detection on random campaigns."""
        detector = ForwardingAnomalyDetector(
            tau=tau, alpha=alpha, warmup_bins=warmup_bins
        )
        arena = ForwardingArena(
            tau=tau, alpha=alpha, warmup_bins=warmup_bins
        )
        scalar_alarms = []
        arena_alarms = []
        for timestamp, patterns in enumerate(bins):
            scalar_alarms.extend(
                detector.observe_bin(timestamp * 3600, patterns)
            )
            arena_alarms.extend(
                arena.observe_bin(timestamp * 3600, patterns)
            )
        assert arena_alarms == scalar_alarms
        assert arena.n_models == detector.n_models
        assert arena.n_routers == detector.n_routers
        assert arena.next_hops_total() == detector.next_hops_total()
        for key, state in detector._states.items():
            assert arena.reference_of(key) == state.reference, key
            assert arena.bins_seen_of(key) == state.bins_seen, key
            assert arena.alarms_raised_of(key) == state.alarms_raised, key

    def test_flip_raises_identical_alarm(self):
        """A clean next-hop flip alarms identically on both paths."""
        key = MODEL_KEYS[0]
        bins = [{key: {"A": 10.0}} for _ in range(3)]
        bins.append({key: {"B": 10.0}})
        detector = ForwardingAnomalyDetector()
        arena = ForwardingArena()
        scalar_alarms = []
        arena_alarms = []
        for timestamp, patterns in enumerate(bins):
            scalar_alarms.extend(detector.observe_bin(timestamp, patterns))
            arena_alarms.extend(arena.observe_bin(timestamp, patterns))
        assert len(scalar_alarms) == 1
        assert arena_alarms == scalar_alarms
        assert arena_alarms[0].responsibilities["B"] > 0
        assert arena_alarms[0].responsibilities["A"] < 0

    def test_empty_patterns_create_no_state(self):
        arena = ForwardingArena()
        assert arena.observe_bin(0, {MODEL_KEYS[0]: {}}) == []
        assert arena.n_models == 0

    def test_negative_counts_rejected(self):
        arena = ForwardingArena()
        with pytest.raises(ValueError):
            arena.observe_bin(0, {MODEL_KEYS[0]: {"A": -1.0}})

    def test_pruning_matches_scalar(self):
        """Weights decaying below prune_below vanish on both paths."""
        key = MODEL_KEYS[0]
        detector = ForwardingAnomalyDetector(alpha=0.5)
        arena = ForwardingArena(alpha=0.5)
        bins = [{key: {"A": 1e-5, "B": 5.0}}] + [
            {key: {"B": 5.0}} for _ in range(4)
        ]
        for timestamp, patterns in enumerate(bins):
            detector.observe_bin(timestamp, patterns)
            arena.observe_bin(timestamp, patterns)
        assert arena.reference_of(key) == detector.reference_of(key)
        assert "A" not in arena.reference_of(key)

    def test_validation(self):
        with pytest.raises(ValueError):
            ForwardingArena(tau=0.5)
        with pytest.raises(ValueError):
            ForwardingArena(alpha=1.5)
        with pytest.raises(ValueError):
            ForwardingArena(warmup_bins=0)
        with pytest.raises(ValueError):
            ForwardingArena(prune_below=-1.0)


class TestLinkInterner:
    def test_dense_first_seen_ids(self):
        interner = LinkInterner()
        assert interner.intern(("a", "b")) == 0
        assert interner.intern(("c", "d")) == 1
        assert interner.intern(("a", "b")) == 0
        assert len(interner) == 2
        assert interner.keys == [("a", "b"), ("c", "d")]

    def test_lookup_and_get(self):
        interner = LinkInterner()
        ident = interner.intern(("a", "b"))
        assert interner.lookup(ident) == ("a", "b")
        assert interner.get(("a", "b")) == ident
        assert interner.get(("x", "y")) is None
        assert ("a", "b") in interner
        assert ("x", "y") not in interner
