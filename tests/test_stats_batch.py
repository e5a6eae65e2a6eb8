"""Bit-identity tests for the batched statistics hot paths.

The engine's equivalence guarantee rests on the batched Wilson
interval and batched Pearson correlation producing results **bit
identical** to their scalar counterparts — not merely approximately
equal.  These tests compare exact float values over adversarial random
inputs (tiny and large sample sets, duplicate values, constant and
degenerate patterns, key-set sizes crossing numpy's pairwise-summation
block boundaries).
"""

import numpy as np
import pytest

from repro.core.alarms import UNRESPONSIVE
from repro.stats import (
    WilsonInterval,
    align_patterns,
    median_confidence_interval,
    median_confidence_interval_arrays,
    pearson_correlation,
    pearson_correlation_pooled,
)


def _intervals(sample_sets, z=1.96):
    """The arrays form the engine consumes, boxed for ``==`` on floats."""
    columns = median_confidence_interval_arrays(sample_sets, z=z)
    return [
        WilsonInterval(float(m), float(lo), float(up), int(n))
        for m, lo, up, n in zip(*columns)
    ]


def _pooled(pairs):
    """Align each pair like the forwarding arena does, then pool."""
    xs, ys, offsets = [], [], [0]
    for current, reference in pairs:
        cur, ref, _ = align_patterns(current, reference)
        xs.extend(cur)
        ys.extend(ref)
        offsets.append(len(xs))
    return pearson_correlation_pooled(np.array(xs), np.array(ys), offsets)


class TestWilsonBatch:
    def test_bit_identical_to_scalar_random(self):
        rng = np.random.default_rng(42)
        sample_sets = []
        for _ in range(300):
            n = int(rng.integers(1, 500))
            values = rng.normal(50.0, 30.0, n)
            if rng.random() < 0.3:  # duplicates stress tie handling
                values = np.round(values)
            sample_sets.append(list(values))
        batch = _intervals(sample_sets)
        for values, batched in zip(sample_sets, batch):
            scalar = median_confidence_interval(values)
            assert scalar == batched  # dataclass eq -> exact floats

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 127, 128, 129])
    def test_boundary_sizes(self, n):
        rng = np.random.default_rng(n)
        values = list(rng.normal(0.0, 5.0, n))
        [batched] = _intervals([values])
        assert batched == median_confidence_interval(values)

    def test_custom_z(self):
        values = [5.0, 1.0, 3.0, 2.0, 8.0, 13.0]
        [batched] = _intervals([values], z=2.58)
        assert batched == median_confidence_interval(values, z=2.58)

    def test_mixed_lengths_padding_isolated(self):
        """A huge set next to a singleton must not leak padding."""
        big = list(np.random.default_rng(1).normal(0, 1, 400))
        batch = _intervals([big, [7.0], big[:3]])
        assert batch[1].median == 7.0
        assert batch[1].lower == 7.0
        assert batch[1].upper == 7.0
        assert batch[2] == median_confidence_interval(big[:3])

    def test_empty_batch(self):
        assert _intervals([]) == []

    def test_empty_sample_set_rejected(self):
        with pytest.raises(ValueError):
            _intervals([[1.0], []])

    def test_invalid_z(self):
        with pytest.raises(ValueError):
            _intervals([[1.0]], z=0.0)


def _random_pattern(rng, keys):
    return {
        key: float(rng.integers(0, 40))
        for key in keys
        if rng.random() < 0.8
    }


class TestPearsonBatch:
    def test_bit_identical_to_scalar_random(self):
        rng = np.random.default_rng(7)
        pairs = []
        for _ in range(400):
            n = int(rng.integers(1, 200))
            keys = [f"10.0.{i // 250}.{i % 250}" for i in range(n)]
            keys.append(UNRESPONSIVE)
            current = _random_pattern(rng, keys)
            reference = _random_pattern(rng, keys)
            if not current and not reference:
                current = {"fallback": 1.0}
            if rng.random() < 0.1:  # constant vectors (degenerate path)
                current = {key: 3.0 for key in (list(current) or ["a"])}
            if rng.random() < 0.1:  # identical patterns -> rho == 1
                reference = dict(current)
            pairs.append((current, reference))
        batch = _pooled(pairs)
        for (current, reference), batched in zip(pairs, batch):
            assert pearson_correlation(current, reference) == batched

    def test_degenerate_policies(self):
        # Both constant and proportional -> +1.
        [rho] = _pooled([({"a": 5.0}, {"a": 9.0})])
        assert rho == 1.0
        # One constant, one varying -> 0.
        [rho] = _pooled(
            [({"a": 5.0, "b": 5.0}, {"a": 1.0, "b": 9.0})]
        )
        assert rho == 0.0

    def test_empty_batch(self):
        assert _pooled([]) == []

    def test_empty_pair_rejected(self):
        with pytest.raises(ValueError):
            _pooled([({}, {})])
