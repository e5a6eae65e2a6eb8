"""Probe-diversity filtering (paper §4.3).

Differential RTTs only reveal link delay changes when the error terms of
the return paths are independent across probes.  Two criteria enforce
this:

1. links observed by probes from **fewer than 3 distinct ASes** are
   discarded entirely;
2. links whose per-AS probe distribution has normalized entropy
   **H(A) ≤ 0.5** are rebalanced by randomly discarding probes from the
   most-represented AS until H(A) > 0.5 (the link is *not* dropped).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Protocol, Set

import numpy as np

from repro.stats.entropy import normalized_entropy

#: Paper defaults.
MIN_ASNS = 3
MIN_ENTROPY = 0.5


class ProbeObservations(Protocol):
    """What the filter reads of one link's observations in one bin.

    The engine's per-link view over a bin's flat arrays and the
    reference's :class:`~repro.reference.diffrtt.LinkObservations` both
    provide it.
    """

    link: Hashable
    probe_asn: Dict[int, Optional[int]]

    def probe_ids(self) -> Iterable[int]:
        """Probe identifiers in first-observation order."""


@dataclass
class DiversityVerdict:
    """Outcome of the diversity filter for one link."""

    accepted: bool
    reason: str
    kept_probes: List[int]
    n_asns: int
    entropy: float
    discarded_probes: List[int]


class DiversityFilter:
    """Apply the two §4.3 criteria to per-link observations.

    The rebalancing discard is random per the paper; the generator for
    each evaluation is derived deterministically from ``(seed, link,
    evaluation round)`` rather than drawn from one shared stream.  This
    keeps runs reproducible *and* makes the draws independent of the
    order links are evaluated in — the property the batched engine needs
    so that it and the serial pipeline make identical rebalancing
    choices for every link.
    """

    def __init__(
        self,
        min_asns: int = MIN_ASNS,
        min_entropy: float = MIN_ENTROPY,
        seed: int = 0,
    ) -> None:
        if min_asns < 1:
            raise ValueError(f"min_asns must be >= 1: {min_asns}")
        if not 0.0 <= min_entropy < 1.0:
            raise ValueError(f"min_entropy must be in [0,1): {min_entropy}")
        self.min_asns = min_asns
        self.min_entropy = min_entropy
        self.seed = seed
        self._rounds: Dict[object, int] = {}

    def _rng_for(self, link: object, evaluation_round: int):
        """Generator seeded stably by (filter seed, link, round)."""
        key = f"{self.seed}|{link!r}|{evaluation_round}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return np.random.default_rng(int.from_bytes(digest, "big"))

    def export_rounds(self) -> Dict[object, int]:
        """Copy of the per-link evaluation-round counters.

        The counters seed the rebalancing RNG streams, so a checkpoint
        must carry them: a resumed run re-evaluating a link must draw
        from the *next* round's stream, exactly as the uninterrupted run
        would.
        """
        return dict(self._rounds)

    def restore_rounds(self, rounds: Dict[object, int]) -> None:
        """Replace the round counters (checkpoint restore)."""
        self._rounds = dict(rounds)

    def evaluate(self, observations: ProbeObservations) -> DiversityVerdict:
        """Filter one link's observations; never mutates the input."""
        link = observations.link
        evaluation_round = self._rounds.get(link, 0)
        self._rounds[link] = evaluation_round + 1
        by_asn: Dict[int, List[int]] = {}
        for probe_id in observations.probe_ids():
            asn = observations.probe_asn.get(probe_id)
            if asn is None:
                continue  # unmappable probes cannot attest diversity
            by_asn.setdefault(asn, []).append(probe_id)

        n_asns = len(by_asn)
        if n_asns < self.min_asns:
            return DiversityVerdict(
                accepted=False,
                reason=f"only {n_asns} ASes (< {self.min_asns})",
                kept_probes=[],
                n_asns=n_asns,
                entropy=0.0,
                discarded_probes=[],
            )

        # Criterion 2: rebalance until H(A) > min_entropy by discarding
        # random probes from the most-represented AS.
        working = {asn: list(probes) for asn, probes in by_asn.items()}
        discarded: List[int] = []
        rng = None
        while True:
            counts = {asn: len(probes) for asn, probes in working.items()}
            entropy = normalized_entropy(counts)
            if entropy > self.min_entropy:
                break
            if rng is None:  # only diverse-but-skewed links pay for an RNG
                rng = self._rng_for(link, evaluation_round)
            largest = max(counts, key=lambda a: counts[a])
            candidates = working[largest]
            index = int(rng.integers(0, len(candidates)))
            discarded.append(candidates.pop(index))
            if not candidates:
                del working[largest]
            if len(working) < self.min_asns:
                # Rebalancing ate a whole AS: diversity can no longer be
                # attested.  (Cannot happen with > min_asns classes but
                # guards degenerate inputs.)
                return DiversityVerdict(
                    accepted=False,
                    reason="rebalancing exhausted an AS",
                    kept_probes=[],
                    n_asns=len(working),
                    entropy=entropy,
                    discarded_probes=discarded,
                )

        kept = sorted(
            probe_id for probes in working.values() for probe_id in probes
        )
        return DiversityVerdict(
            accepted=True,
            reason="ok",
            kept_probes=kept,
            n_asns=len(working),
            entropy=entropy,
            discarded_probes=discarded,
        )
