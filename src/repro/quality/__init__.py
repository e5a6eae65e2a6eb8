"""Detection-quality layer: ground-truth labels and alarm scoring.

The simulation's scenarios know exactly what they perturbed, so they can
emit :class:`GroundTruth` label sets (:mod:`repro.quality.labels`);
:mod:`repro.quality.scoring` matches pipeline alarms against those
labels with a configurable bin tolerance and computes per-scenario
precision, recall, F1 and time-to-detection.  ``benchmarks/
bench_quality.py`` runs the full scenario matrix through the sharded
engine and asserts per-scenario floors, writing ``BENCH_quality.json``.

Typical use::

    from repro.quality import MatchConfig, score_bin_results

    truth = scenario.ground_truth()
    results = pipeline.run(binned)
    report = score_bin_results(truth, results, MatchConfig(bin_s=3600))
    print(report.precision, report.recall, report.f1, report.ttd_bins)
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SCHEMA": "repro.quality.labels",
    "DelayLabel": "repro.quality.labels",
    "EventQuality": "repro.quality.scoring",
    "ForwardingLabel": "repro.quality.labels",
    "GroundTruth": "repro.quality.labels",
    "MatchConfig": "repro.quality.scoring",
    "QualityReport": "repro.quality.scoring",
    "score_alarms": "repro.quality.scoring",
    "score_bin_results": "repro.quality.scoring",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
