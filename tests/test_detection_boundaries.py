"""Literal-valued tests on the detection boundaries.

The identity suites hold the engine to ``repro.reference`` bit for bit,
but a comparison both sides write the same way (``>=`` against ``>``)
is pinned only when some datum lands exactly on it, and code both sides
share (the §4.3 diversity filter) is checked by no identity suite at
all.  Each test here puts one value exactly on one boundary, with the
expected numbers derived by hand in a comment, and asserts the outcome
on the engine's arenas and on the reference where it has the same check.
"""

from fractions import Fraction

from repro.core.arena import DelayArena, ForwardingArena
from repro.core.delaydetector import MIN_SHIFT_MS
from repro.core.diversity import DiversityFilter
from repro.reference import DelayChangeDetector, LinkObservations
from repro.reference.pipeline import VectorSmoother
from repro.stats.entropy import normalized_entropy
from repro.stats.smoothing import PRUNE_BELOW
from repro.stats.wilson import WilsonInterval

LINK = ("10.0.0.1", "10.0.0.2")

# Eq. 6 / §4.2.3 inputs.  With one seed bin the first interval becomes
# the reference verbatim: median 10, CI [9.5, 10.5].  The second bin's
# CI [10.75, 11.25] lies wholly above it, so Eq. 6 scores the increase
#   (obs.lower - ref.upper) / (ref.upper - ref.median)
#   = (43/4 - 21/2) / (21/2 - 10) = (1/4) / (1/2) = 1/2,
# and its median shifted by |11 - 10| = 1 ms = MIN_SHIFT_MS exactly.
# Every value is a dyadic rational, so the float64 arithmetic is exact.
REFERENCE = (10.0, 9.5, 10.5)
AT_MIN_SHIFT = (11.0, 10.75, 11.25)
DEVIATION = Fraction(43, 4) - Fraction(21, 2)
DEVIATION /= Fraction(21, 2) - 10
SHIFT = Fraction(11) - Fraction(10)


def test_eq6_shift_of_exactly_min_shift_raises_an_alarm():
    """A significant change whose median moved by exactly
    ``MIN_SHIFT_MS`` is reported (the paper's minimum is inclusive)."""
    assert SHIFT == Fraction(MIN_SHIFT_MS) == 1
    assert DEVIATION == Fraction(1, 2)

    arena = DelayArena(alpha=0.5, seed_bins=1)
    ids = arena.intern_links([LINK])

    def observe(interval):
        median, lower, upper = interval
        return arena.observe_bin_rows(
            ids, [median], [lower], [upper], [9], [3], [3]
        )

    assert len(observe(REFERENCE).positions) == 0  # seeds the reference
    rows = observe(AT_MIN_SHIFT)
    assert rows.positions.tolist() == [0]
    assert rows.deviation.tolist() == [float(DEVIATION)]
    assert rows.direction.tolist() == [1]
    assert arena.alarms_raised_of(LINK) == 1

    detector = DelayChangeDetector(alpha=0.5, seed_bins=1)
    assert detector.observe_interval(
        0, LINK, WilsonInterval(*REFERENCE, n=9)
    ) is None
    alarm = detector.observe_interval(
        3600, LINK, WilsonInterval(*AT_MIN_SHIFT, n=9)
    )
    assert alarm is not None
    assert alarm.deviation == float(DEVIATION)
    assert alarm.direction == 1


def test_eq8_weight_of_exactly_prune_below_is_kept():
    """A next hop whose smoothed weight lands exactly on ``prune_below``
    stays in the reference (only weights *below* it are pruned)."""
    # The first pattern is the reference verbatim: {h1: 2p, h2: 10}
    # with p = PRUNE_BELOW.  The second pattern has no h1, so Eq. 8 with
    # alpha = 1/2 gives h1 the weight
    #   alpha * 0 + (1 - alpha) * 2p = (1/2)(2p) = p,
    # exact in float64 (halving and doubling only move the exponent),
    # and h2 the weight (1/2)(10) + (1/2)(10) = 10.
    p = PRUNE_BELOW
    first = {"h1": 2 * p, "h2": 10.0}
    second = {"h2": 10.0}
    h1 = Fraction(1, 2) * 0 + (1 - Fraction(1, 2)) * (2 * Fraction(p))
    assert h1 == Fraction(p)
    expected = {"h1": p, "h2": 10.0}

    arena = ForwardingArena(alpha=0.5)
    key = ("10.0.0.1", "192.0.2.9")
    assert arena.prune_below == p
    arena.observe_bin_sorted(0, [(key, first)])
    arena.observe_bin_sorted(3600, [(key, second)])
    assert arena.reference_of(key) == expected

    smoother = VectorSmoother(alpha=0.5)
    assert smoother.prune_below == p
    smoother.update(first)
    assert smoother.update(second) == expected


def test_diversity_entropy_of_exactly_min_entropy_rebalances():
    """A link whose per-AS probe spread has normalised entropy exactly
    ``min_entropy`` is rebalanced (§4.3 asks for H(A) *above* it)."""
    # Probes per AS (1, 3, 8) of 12: P = (1/12, 1/4, 2/3), and
    #   H = (1/12) ln 12 + (1/4) ln 4 + (2/3) ln(3/2)
    #     = (1/6 + 1/2 - 2/3) ln 2 + (1/12 + 2/3) ln 3 = (3/4) ln 3,
    # so H(A) = H / ln 3 = 3/4 — and float64 computes exactly 0.75.
    assert Fraction(1, 6) + Fraction(1, 2) - Fraction(2, 3) == 0
    assert Fraction(1, 12) + Fraction(2, 3) == Fraction(3, 4)
    assert normalized_entropy([1, 3, 8]) == 0.75
    # Dropping one probe of the largest AS gives (1, 3, 7), whose
    # entropy is above 3/4: the loop discards exactly one probe.
    assert normalized_entropy([1, 3, 7]) > 0.75

    observations = LinkObservations(LINK)
    layout = {64500: [1], 64501: [2, 3, 4], 64502: list(range(5, 13))}
    for asn, probes in layout.items():
        for probe in probes:
            observations.add(probe, asn, [1.0])
    verdict = DiversityFilter(min_asns=3, min_entropy=0.75).evaluate(
        observations
    )
    assert verdict.accepted
    assert len(verdict.discarded_probes) == 1
    assert verdict.discarded_probes[0] in layout[64502]
    assert len(verdict.kept_probes) == 11
    assert verdict.entropy == normalized_entropy([1, 3, 7])
