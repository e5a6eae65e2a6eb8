"""``DelaySampler.hop_samples`` against the per-hop draws it replaced.

The traceroute engine used to call ``survives`` then ``rtt_noise`` once
per responding hop; ``hop_samples`` must make the same generator calls
in the same order and return the same values bit for bit, or every
simulated campaign changes.  The reference below is that per-hop loop.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.delays import DelaySampler, NoiseParams


def _per_hop_reference(rng, params, losses, count):
    """Survival flags and noise per hop, drawn one hop at a time."""
    alive, noise = [], []
    for loss in losses:
        if loss <= 0.0:
            survive = np.ones(count, dtype=bool)
        elif loss >= 1.0:
            survive = np.zeros(count, dtype=bool)
        else:
            survive = rng.random(count) >= loss
        hop_noise = rng.gamma(params.queue_shape, params.queue_scale_ms, size=count)
        hop_noise += rng.normal(
            params.last_mile_ms, params.last_mile_jitter_ms, size=count
        ).clip(min=0.0)
        outliers = rng.random(count) < params.outlier_probability
        if outliers.any():
            hop_noise[outliers] += rng.exponential(
                params.outlier_mean_ms, size=int(outliers.sum())
            )
        alive.append(survive)
        noise.append(hop_noise)
    return np.array(alive), np.array(noise)


LOSSES = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1e-4, 0.3, 0.999, 1.0]),
        st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    losses=LOSSES,
    count=st.integers(1, 5),
    outlier_probability=st.sampled_from([0.0, 0.015, 0.5, 1.0]),
)
def test_hop_samples_equal_the_per_hop_draws(
    seed, losses, count, outlier_probability
):
    params = NoiseParams(outlier_probability=outlier_probability)
    sampler = DelaySampler(params, seed=seed)
    reference = np.random.default_rng(seed)
    for _ in range(3):  # the generator state carries over between calls
        alive, noise = sampler.hop_samples(losses, count)
        ref_alive, ref_noise = _per_hop_reference(
            reference, params, losses, count
        )
        assert alive.tolist() == ref_alive.tolist()
        assert noise.tobytes() == ref_noise.tobytes()
    assert sampler._rng.random() == reference.random()


def test_rtt_noise_is_one_lossless_hop():
    params = NoiseParams(outlier_probability=0.3)
    noise = DelaySampler(params, seed=9).rtt_noise(50)
    _, reference = _per_hop_reference(
        np.random.default_rng(9), params, [0.0], 50
    )
    assert noise.tobytes() == reference[0].tobytes()
