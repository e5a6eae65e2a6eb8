"""Exponential smoothing used for the normal references (Eq. 7 and 8).

Both detection methods maintain their "usual behaviour" references with
simple exponential smoothing:

    m̄_t = α·m_t + (1-α)·m̄_{t-1}

A small α is preferred by the authors so that anomalous bins barely
contaminate the reference.  Because a small α makes the seed value
important, the delay method seeds the reference with the median of the
first three observed bins (§4.2.4).  The production arenas
(:mod:`repro.core.arena`) apply the step below to whole bins at once;
the scalar smoothers with the warm-up protocol are the reference's
(:mod:`repro.reference.pipeline`).  Both read their constants here.
"""

from __future__ import annotations

#: Default smoothing factor; "small" per the paper, configurable everywhere.
DEFAULT_ALPHA = 0.01

#: Number of initial bins used to seed the reference (§4.2.4).
SEED_BINS = 3

#: Default smoothed weight below which forwarding next hops are pruned.
#: Shared by :class:`~repro.reference.pipeline.VectorSmoother` and the
#: forwarding arena (:class:`repro.core.arena.ForwardingArena`) — their
#: bit-identity requires a single source of truth for this threshold.
PRUNE_BELOW = 1e-6


def exponential_smoothing(
    previous: float, observation: float, alpha: float
) -> float:
    """One smoothing step ``α·x + (1-α)·prev`` (paper Eq. 7).

    >>> exponential_smoothing(10.0, 20.0, 0.5)
    15.0
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1): {alpha}")
    return alpha * observation + (1.0 - alpha) * previous
