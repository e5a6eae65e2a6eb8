"""Per-packet delay and loss sampling.

RTT samples in real traceroute data are "contaminated by various noise
sources" (§3, Challenge 2): queueing, slow-path ICMP generation in
routers, middleboxes.  The model here produces the same statistical
texture the paper reports for the Cogent link of Figure 2 — raw
differential RTTs whose standard deviation is a multiple of their mean,
caused by a small fraction of large outliers — while the hourly medians
stay stable to within a fraction of a millisecond.

Each packet's RTT is::

    base_forward + base_return + last_mile + queueing_noise [+ outlier]

with queueing noise Gamma-distributed (small mean) and outliers drawn
from an exponential tail with a small probability per packet (router
slow-path and measurement artefacts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class NoiseParams:
    """Parameters of the per-packet noise model."""

    queue_shape: float = 2.0  # Gamma shape of queueing noise
    queue_scale_ms: float = 0.12  # Gamma scale -> mean 0.24 ms
    outlier_probability: float = 0.015
    outlier_mean_ms: float = 25.0
    last_mile_ms: float = 1.0
    last_mile_jitter_ms: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 <= self.outlier_probability <= 1.0:
            raise ValueError(
                f"outlier probability must be in [0,1]: {self.outlier_probability}"
            )
        if self.queue_shape <= 0 or self.queue_scale_ms < 0:
            raise ValueError("queueing noise parameters must be positive")


class DelaySampler:
    """Vectorised sampler of per-packet RTT noise and loss draws."""

    def __init__(self, params: NoiseParams = None, seed: int = 0) -> None:
        self.params = params or NoiseParams()
        self._rng = np.random.default_rng(seed)

    def rtt_noise(self, count: int) -> np.ndarray:
        """Noise (ms) for *count* packets: queueing + rare heavy outliers."""
        return self.hop_samples([0.0], count)[1][0]

    def hop_samples(self, losses: Sequence[float], count: int) -> tuple:
        """Survival flags and RTT noise (ms) of *count* packets per hop.

        Hop by hop, the draws are those of :meth:`survives` then
        :meth:`rtt_noise`: survival uniforms, gamma, normal, uniform and
        the outliers' exponentials.  Only the arithmetic spans hops.
        """
        p = self.params
        rng = self._rng
        fixed = np.full(count, 0.5)  # >= loss iff loss <= 0, as survives()
        survival, queue, last_mile, outliers = [], [], [], []
        for hop, loss in enumerate(losses):
            survival.append(rng.random(count) if 0.0 < loss < 1.0 else fixed)
            queue.append(rng.gamma(p.queue_shape, p.queue_scale_ms, count))
            last_mile.append(
                rng.normal(p.last_mile_ms, p.last_mile_jitter_ms, count)
            )
            uniform = rng.random(count)  # list min() beats a numpy reduce
            if min(uniform.tolist(), default=1.0) < p.outlier_probability:
                mask = uniform < p.outlier_probability
                tail = rng.exponential(p.outlier_mean_ms, int(mask.sum()))
                outliers.append((hop, mask, tail))
        noise = np.array(queue) + np.maximum(np.array(last_mile), 0.0)
        for hop, mask, tail in outliers:
            noise[hop, mask] += tail
        return np.array(survival) >= np.array(losses)[:, None], noise

    def survives(self, count: int, loss_probability: float) -> np.ndarray:
        """Boolean array: which of *count* packets survive the given loss."""
        if loss_probability <= 0.0:
            return np.ones(count, dtype=bool)
        if loss_probability >= 1.0:
            return np.zeros(count, dtype=bool)
        return self._rng.random(count) >= loss_probability


def combined_loss(per_edge_losses) -> float:
    """Loss probability of a path given independent per-edge losses.

    >>> round(combined_loss([0.5, 0.5]), 3)
    0.75
    """
    survival = 1.0
    for loss in per_edge_losses:
        clipped = min(1.0, max(0.0, loss))
        survival *= 1.0 - clipped
    return 1.0 - survival
