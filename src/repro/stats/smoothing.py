"""Exponential smoothing used for the normal references (Eq. 7 and 8).

Both detection methods maintain their "usual behaviour" references with
simple exponential smoothing:

    m̄_t = α·m_t + (1-α)·m̄_{t-1}

A small α is preferred by the authors so that anomalous bins barely
contaminate the reference.  Because a small α makes the seed value
important, the delay method seeds the reference with the median of the
first three observed bins (§4.2.4); :class:`ExponentialSmoother` implements
that warm-up protocol.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

#: Default smoothing factor; "small" per the paper, configurable everywhere.
DEFAULT_ALPHA = 0.01

#: Number of initial bins used to seed the reference (§4.2.4).
SEED_BINS = 3

#: Default smoothed weight below which forwarding next hops are pruned.
#: Shared by :class:`VectorSmoother` and the forwarding arena
#: (:class:`repro.core.arena.ForwardingArena`) — their bit-identity
#: requires a single source of truth for this threshold.
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


class ExponentialSmoother:
    """Stateful smoother with the paper's three-bin median warm-up.

    During warm-up (< ``seed_bins`` observations) :attr:`value` is None and
    the detector must not raise alarms; once the seed median is formed the
    smoother behaves as plain exponential smoothing.

    >>> smoother = ExponentialSmoother(alpha=0.5)
    >>> [smoother.update(x) for x in (1.0, 2.0, 3.0)]
    [None, None, 2.0]
    >>> smoother.update(4.0)
    3.0
    """

    def __init__(
        self, alpha: float = DEFAULT_ALPHA, seed_bins: int = SEED_BINS
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1): {alpha}")
        if seed_bins < 1:
            raise ValueError(f"seed_bins must be >= 1: {seed_bins}")
        self.alpha = alpha
        self.seed_bins = seed_bins
        self._warmup: List[float] = []
        self._value: Optional[float] = None

    @property
    def value(self) -> Optional[float]:
        """Current reference value, or None while warming up."""
        return self._value

    @property
    def ready(self) -> bool:
        """True once the warm-up median has been formed."""
        return self._value is not None

    def update(self, observation: float) -> Optional[float]:
        """Feed one observation; return the updated reference (or None).

        The warm-up buffer is bounded to ``seed_bins`` entries: should
        ``seed_bins`` be lowered mid-warm-up, only the newest
        ``seed_bins`` observations seed the median and older ones are
        discarded, so the buffer can never grow without bound.
        """
        if self._value is None:
            warmup = self._warmup
            warmup.append(float(observation))
            if len(warmup) > self.seed_bins:
                del warmup[: len(warmup) - self.seed_bins]
            if len(warmup) >= self.seed_bins:
                self._value = float(np.median(warmup))
                warmup.clear()
            return self._value
        self._value = exponential_smoothing(
            self._value, float(observation), self.alpha
        )
        return self._value

    def preview(self, observation: float) -> Optional[float]:
        """Value :meth:`update` would produce, without mutating state."""
        if self._value is None:
            warmup = self._warmup + [float(observation)]
            if len(warmup) > self.seed_bins:
                del warmup[: len(warmup) - self.seed_bins]
            if len(warmup) >= self.seed_bins:
                return float(np.median(warmup))
            return None
        return exponential_smoothing(self._value, float(observation), self.alpha)


class VectorSmoother:
    """Exponential smoothing of a sparse non-negative vector (paper Eq. 8).

    Used by the forwarding model: keys are next-hop identifiers and values
    packet counts.  A hop unseen in the new observation decays towards
    zero; a hop first seen now enters with reference ``α·p`` (i.e. its
    previous reference was 0), exactly as Eq. 8 prescribes.

    Entries whose smoothed weight falls below *prune_below* are dropped to
    keep long-running references compact.
    """

    def __init__(
        self, alpha: float = DEFAULT_ALPHA, prune_below: float = PRUNE_BELOW
    ):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1): {alpha}")
        if prune_below < 0:
            raise ValueError(f"prune_below must be >= 0: {prune_below}")
        self.alpha = alpha
        self.prune_below = prune_below
        self._weights: dict = {}
        self._updates = 0

    @property
    def weights(self) -> dict:
        """Current smoothed vector as a key→weight mapping (copy)."""
        return dict(self._weights)

    @property
    def updates(self) -> int:
        """How many observations have been folded in."""
        return self._updates

    def __bool__(self) -> bool:
        return bool(self._weights)

    def update(self, observation: dict) -> dict:
        """Fold a key→count *observation* into the reference (Eq. 8)."""
        for value in observation.values():
            if value < 0:
                raise ValueError("forwarding pattern counts must be >= 0")
        if self._updates == 0:
            # First pattern becomes the reference verbatim; smoothing a
            # zero vector would otherwise suppress every hop by (1-α).
            self._weights = {k: float(v) for k, v in observation.items() if v > 0}
            self._updates = 1
            return self.weights
        # Sorted, not set order: the reference dict's key order reaches
        # alarm payloads and store bytes, which must not depend on
        # PYTHONHASHSEED.  Per-key arithmetic is independent.
        keys = sorted(self._weights.keys() | observation.keys(), key=str)
        updated = {}
        for key in keys:
            smoothed = exponential_smoothing(
                self._weights.get(key, 0.0),
                float(observation.get(key, 0.0)),
                self.alpha,
            )
            if smoothed >= self.prune_below:
                updated[key] = smoothed
        self._weights = updated
        self._updates += 1
        return self.weights
