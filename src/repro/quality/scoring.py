"""Detection-quality scoring: match pipeline alarms against ground truth.

Given the :class:`~repro.quality.labels.GroundTruth` a scenario emitted
and the alarms the pipeline raised, :func:`score_alarms` computes the
regression metrics guarded by ``benchmarks/bench_quality.py``:

* **precision** — matched alarms / (matched + out-of-window alarms).
  Unmatched alarms whose bin falls *inside* a labeled window (within
  tolerance) are **ignored** by default rather than counted as false
  positives: a route leak legitimately disturbs patterns beyond the
  enumerated divergence routers, and punishing event-caused collateral
  would make precision meaningless.  Set ``MatchConfig(strict=True)``
  to count them.  Precision therefore measures quiet-period false
  alarms; the separate ``false_alarm_rate`` reports them per bin.
* **recall** — covered (event, method, bin) units / labeled units.  A
  unit counts as covered when at least one alarm matched a label of
  that event and method within ``tolerance_bins`` of the bin.  Recall
  is event-time coverage, not per-link coverage: the campaign does not
  guarantee every perturbed link is even observed, but a detected event
  should be detected in (almost) every labeled bin.  The informational
  ``n_labels_matched`` counter tracks per-label coverage.
* **F1** — harmonic mean of the two.
* **time-to-detection** — per event, first matching alarm bin minus the
  first labeled bin (clamped at zero: with tolerance an alarm may
  legally precede the window).

Matching is IP-based, mirroring how an operator would triage an alarm: a
delay alarm matches a :class:`DelayLabel` when either link endpoint is
the label's interface IP; a forwarding alarm matches a
:class:`ForwardingLabel` when the label IP is the alarm's router or one
of its responsibility next hops (and the destination agrees, when the
label pins one).

All inputs and outputs are plain data; scoring two bit-identical alarm
streams yields ``==``-equal reports, which lifts the engine's
engine/checkpoint bit-identity guarantee to the quality layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.quality.labels import GroundTruth

#: Unit key: (event, method, bin index).
_Unit = Tuple[str, str, int]


@dataclass(frozen=True)
class MatchConfig:
    """How alarms are matched against labels."""

    #: bin width used to discretise label windows and alarm timestamps;
    #: must equal the pipeline's ``bin_s``.
    bin_s: int = 3600
    #: an alarm within this many bins of a labeled bin still matches
    #: (detectors confirm at bin granularity; 1 is a fair default).
    tolerance_bins: int = 1
    #: count in-window unmatched alarms as false positives instead of
    #: ignoring them as event-caused collateral.
    strict: bool = False

    def __post_init__(self) -> None:
        if self.bin_s <= 0:
            raise ValueError(f"bin_s must be positive: {self.bin_s}")
        if self.tolerance_bins < 0:
            raise ValueError(
                f"tolerance_bins must be >= 0: {self.tolerance_bins}"
            )


def _label_bins(start: int, end: int, bin_s: int) -> range:
    """Bin indices whose [bin, bin+1) span intersects [start, end)."""
    return range(start // bin_s, (end - 1) // bin_s + 1)


@dataclass(frozen=True)
class EventQuality:
    """Per-event detection quality (one scenario event, e.g. one DDoS)."""

    event: str
    n_units: int
    n_covered: int
    n_labels: int
    n_labels_matched: int
    first_label_bin: int
    ttd_bins: Optional[int]

    @property
    def recall(self) -> float:
        """Covered fraction of the event's labeled units (1.0 if none)."""
        if self.n_units == 0:
            return 1.0
        return self.n_covered / self.n_units

    @property
    def detected(self) -> bool:
        """True when at least one alarm matched the event."""
        return self.ttd_bins is not None


@dataclass(frozen=True)
class QualityReport:
    """Scenario-level detection-quality metrics.

    Frozen and tuple-valued so reports from bit-identical alarm streams
    compare ``==``; derived metrics are properties.
    """

    scenario: str
    bin_s: int
    tolerance_bins: int
    strict: bool
    n_alarms: int
    n_delay_alarms: int
    n_forwarding_alarms: int
    true_positives: int
    false_positives: int
    ignored: int
    n_units: int
    n_covered: int
    n_delay_units: int
    n_delay_covered: int
    n_forwarding_units: int
    n_forwarding_covered: int
    events: Tuple[EventQuality, ...]
    n_bins: Optional[int] = None

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 1.0 when no alarm was judged."""
        judged = self.true_positives + self.false_positives
        if judged == 0:
            return 1.0
        return self.true_positives / judged

    @property
    def recall(self) -> float:
        """Covered / labeled (event, method, bin) units; 1.0 when unlabeled."""
        if self.n_units == 0:
            return 1.0
        return self.n_covered / self.n_units

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        if p + r == 0.0:
            return 0.0
        return 2.0 * p * r / (p + r)

    @property
    def recall_delay(self) -> Optional[float]:
        """Recall over delay units only (None when none labeled)."""
        if self.n_delay_units == 0:
            return None
        return self.n_delay_covered / self.n_delay_units

    @property
    def recall_forwarding(self) -> Optional[float]:
        """Recall over forwarding units only (None when none labeled)."""
        if self.n_forwarding_units == 0:
            return None
        return self.n_forwarding_covered / self.n_forwarding_units

    @property
    def ttd_bins(self) -> Optional[float]:
        """Mean time-to-detection over detected events, in bins."""
        detected = [e.ttd_bins for e in self.events if e.ttd_bins is not None]
        if not detected:
            return None
        return sum(detected) / len(detected)

    @property
    def false_alarm_rate(self) -> Optional[float]:
        """False positives per campaign bin (None without ``n_bins``)."""
        if not self.n_bins:
            return None
        return self.false_positives / self.n_bins

    def to_dict(self) -> dict:
        """JSON-ready dict in the ``BENCH_quality.json`` shape."""
        return {
            "scenario": self.scenario,
            "precision": round(self.precision, 4),
            "recall": round(self.recall, 4),
            "f1": round(self.f1, 4),
            "ttd_bins": self.ttd_bins,
            "recall_delay": self.recall_delay,
            "recall_forwarding": self.recall_forwarding,
            "false_alarm_rate": self.false_alarm_rate,
            "n_alarms": self.n_alarms,
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "ignored": self.ignored,
            "n_units": self.n_units,
            "n_covered": self.n_covered,
            "events": [
                {
                    "event": e.event,
                    "recall": round(e.recall, 4),
                    "ttd_bins": e.ttd_bins,
                    "n_labels": e.n_labels,
                    "n_labels_matched": e.n_labels_matched,
                }
                for e in self.events
            ],
        }


def score_alarms(
    truth: GroundTruth,
    delay_alarms: Sequence,
    forwarding_alarms: Sequence,
    config: Optional[MatchConfig] = None,
    scenario: str = "",
    n_bins: Optional[int] = None,
) -> QualityReport:
    """Match alarms against *truth* and compute quality metrics.

    ``delay_alarms`` are :class:`~repro.core.alarms.DelayAlarm`-shaped
    (``timestamp``, ``link``), ``forwarding_alarms`` are
    :class:`~repro.core.alarms.ForwardingAlarm`-shaped (``timestamp``,
    ``router_ip``, ``destination``, ``responsibilities``); only those
    attributes are touched.  ``n_bins`` (campaign length in bins)
    enables the ``false_alarm_rate`` metric.
    """
    cfg = config or MatchConfig()
    bin_s, tol = cfg.bin_s, cfg.tolerance_bins

    delay_index = [
        (lbl, _label_bins(lbl.start, lbl.end, bin_s)) for lbl in truth.delay
    ]
    fwd_index = [
        (lbl, _label_bins(lbl.start, lbl.end, bin_s))
        for lbl in truth.forwarding
    ]
    # Tolerance-padded spans of *any* label, for the in-window test.
    spans = [
        (bins.start - tol, bins[-1] + tol)
        for _, bins in delay_index + fwd_index
    ]

    units: Set[_Unit] = set()
    for lbl, bins in delay_index:
        units |= {(lbl.event, "delay", b) for b in bins}
    for lbl, bins in fwd_index:
        units |= {(lbl.event, "forwarding", b) for b in bins}

    covered: Set[_Unit] = set()
    matched_labels: Set[Tuple[str, str, int, int]] = set()
    first_match_bin: Dict[str, int] = {}
    tp = fp = ignored = 0

    def _judge(alarm_bin: int, matches: List[Tuple]) -> None:
        nonlocal tp, fp, ignored
        if matches:
            tp += 1
            for method, lbl, bins in matches:
                for b in range(alarm_bin - tol, alarm_bin + tol + 1):
                    if bins.start <= b < bins.stop:
                        covered.add((lbl.event, method, b))
                matched_labels.add((method, lbl.ip, lbl.start, lbl.end))
                prev = first_match_bin.get(lbl.event)
                if prev is None or alarm_bin < prev:
                    first_match_bin[lbl.event] = alarm_bin
        elif cfg.strict:
            fp += 1
        elif any(lo <= alarm_bin <= hi for lo, hi in spans):
            ignored += 1
        else:
            fp += 1

    for alarm in delay_alarms:
        alarm_bin = alarm.timestamp // bin_s
        near, far = alarm.link
        matches = [
            ("delay", lbl, bins)
            for lbl, bins in delay_index
            if lbl.ip
            and lbl.ip in (near, far)
            and bins.start - tol <= alarm_bin <= bins[-1] + tol
        ]
        _judge(alarm_bin, matches)

    for alarm in forwarding_alarms:
        alarm_bin = alarm.timestamp // bin_s
        matches = [
            ("forwarding", lbl, bins)
            for lbl, bins in fwd_index
            if lbl.ip
            and (
                lbl.ip == alarm.router_ip or lbl.ip in alarm.responsibilities
            )
            and lbl.destination in ("", alarm.destination)
            and bins.start - tol <= alarm_bin <= bins[-1] + tol
        ]
        _judge(alarm_bin, matches)

    # Per-event rollup.
    event_rows: List[EventQuality] = []
    for event in truth.events():
        ev_units = {u for u in units if u[0] == event}
        ev_covered = {u for u in covered if u[0] == event}
        ev_labels = [
            ("delay", lbl) for lbl in truth.delay if lbl.event == event
        ] + [
            ("forwarding", lbl)
            for lbl in truth.forwarding
            if lbl.event == event
        ]
        n_matched = sum(
            1
            for method, lbl in ev_labels
            if (method, lbl.ip, lbl.start, lbl.end) in matched_labels
        )
        first_bin = min(u[2] for u in ev_units)
        match_bin = first_match_bin.get(event)
        ttd = None if match_bin is None else max(0, match_bin - first_bin)
        event_rows.append(
            EventQuality(
                event=event,
                n_units=len(ev_units),
                n_covered=len(ev_covered),
                n_labels=len(ev_labels),
                n_labels_matched=n_matched,
                first_label_bin=first_bin,
                ttd_bins=ttd,
            )
        )

    n_delay_units = sum(1 for u in units if u[1] == "delay")
    n_fwd_units = len(units) - n_delay_units
    return QualityReport(
        scenario=scenario,
        bin_s=bin_s,
        tolerance_bins=tol,
        strict=cfg.strict,
        n_alarms=len(delay_alarms) + len(forwarding_alarms),
        n_delay_alarms=len(delay_alarms),
        n_forwarding_alarms=len(forwarding_alarms),
        true_positives=tp,
        false_positives=fp,
        ignored=ignored,
        n_units=len(units),
        n_covered=len(covered),
        n_delay_units=n_delay_units,
        n_delay_covered=sum(1 for u in covered if u[1] == "delay"),
        n_forwarding_units=n_fwd_units,
        n_forwarding_covered=sum(1 for u in covered if u[1] == "forwarding"),
        events=tuple(event_rows),
        n_bins=n_bins,
    )


def score_bin_results(
    truth: GroundTruth,
    results: Iterable,
    config: Optional[MatchConfig] = None,
    scenario: str = "",
) -> QualityReport:
    """Score a pipeline run's ``BinResult`` sequence against *truth*.

    Accepts the ``List[BinResult]`` returned by ``Pipeline.run`` /
    ``Engine.run`` (or a ``CampaignAnalysis.results`` list) and
    derives ``n_bins`` from its length.
    """
    results = list(results)
    delay = [a for r in results for a in r.delay_alarms]
    forwarding = [a for r in results for a in r.forwarding_alarms]
    return score_alarms(
        truth,
        delay,
        forwarding,
        config=config,
        scenario=scenario,
        n_bins=len(results),
    )
