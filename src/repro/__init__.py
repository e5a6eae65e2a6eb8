"""repro — reproduction of Fontugne et al., "Pinpointing Delay and
Forwarding Anomalies Using Large-Scale Traceroute Measurements" (IMC 2017).

Public API layout:

* :mod:`repro.core` — the paper's detection methods (differential RTT
  delay-change detection, packet-forwarding anomaly detection, AS-level
  event aggregation), the end-to-end serial :class:`~repro.core.Pipeline`
  reference, and the sharded parallel
  :class:`~repro.core.ShardedPipeline` production engine.
* :mod:`repro.atlas` — RIPE-Atlas-style traceroute data model and IO.
* :mod:`repro.simulation` — the synthetic Internet and measurement
  platform used as an offline substitute for the Atlas platform.
* :mod:`repro.stats` — the robust statistics substrate (Wilson scores,
  exponential smoothing, entropy, sliding median/MAD, ...).  The hot
  paths have batched variants operating on whole bins at once —
  :func:`~repro.stats.median_confidence_interval_arrays` characterises
  every link of a bin with one padded 2-D sort and vectorized Wilson
  scores (bit-identical to the scalar
  :func:`~repro.stats.median_confidence_interval`), and
  :func:`~repro.stats.pearson_correlation_pooled` correlates all judged
  forwarding patterns in a handful of numpy calls.
* :mod:`repro.net` — IP/prefix utilities and longest-prefix IP→AS mapping.
* :mod:`repro.quality` — ground-truth labels and detection-quality
  scoring: every simulation scenario emits the labels of what it
  perturbed, and :func:`~repro.quality.score_alarms` turns raised
  alarms into per-event precision/recall/F1/time-to-detection
  (regression-checked by ``benchmarks/bench_quality.py``).
* :mod:`repro.reporting` — Internet-Health-Report-style summaries.
* :mod:`repro.service` — the §8 serving layer: a persistent columnar
  alarm store, a query engine answering IHR queries bit-identically
  from mmapped columns, and one asyncio HTTP JSON server with
  generation-keyed response caching (CLI: ``analyze/monitor --store``
  and ``serve``).

Quickstart::

    from repro import quick_campaign

    analysis, topology, mapper = quick_campaign(duration_hours=24, seed=1)
    print(analysis.stats())

Scaling out: set ``PipelineConfig(n_shards=8)`` (optionally ``executor``
/ ``n_jobs``) and :func:`analyze_campaign` — or the ``--shards`` CLI
flag — runs the campaign on :class:`~repro.core.ShardedPipeline`, whose
output is bit-identical to the serial pipeline's.

Running continuously: both engines expose an incremental API
(``process_bin`` / ``snapshot`` / ``restore`` / ``run(resume_from=...)``)
backed by :mod:`repro.core.checkpoint`'s durable snapshots, so a run can
stop after any bin and continue bit-identically — see the ``monitor``
CLI subcommand and :func:`run_checkpointed`.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__version__ = "1.2.0"

_EXPORTS = {
    "AlarmAggregator": "repro.core.events",
    "CampaignAnalysis": "repro.core.pipeline",
    "DelayAlarm": "repro.core.alarms",
    "DelayChangeDetector": "repro.core.delaydetector",
    "EngineSnapshot": "repro.core.checkpoint",
    "ForwardingAlarm": "repro.core.alarms",
    "ForwardingAnomalyDetector": "repro.core.forwarding",
    "Pipeline": "repro.core.pipeline",
    "PipelineConfig": "repro.core.pipeline",
    "ShardedPipeline": "repro.core.engine",
    "SnapshotError": "repro.core.checkpoint",
    "analyze_campaign": "repro.core.pipeline",
    "create_pipeline": "repro.core.engine",
    "load_snapshot": "repro.core.checkpoint",
    "run_checkpointed": "repro.core.checkpoint",
    "save_snapshot": "repro.core.checkpoint",
}

__all__ = [*_EXPORTS, "quick_campaign", "__version__"]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)


def quick_campaign(
    duration_hours: int = 24,
    seed: int = 0,
    scenario=None,
    config: PipelineConfig = None,
):
    """Generate a campaign on the default topology and analyze it.

    Returns ``(CampaignAnalysis, Topology, AsMapper)``.  Intended for
    quickstarts and tests; real studies compose the pieces directly.
    """
    from repro.core.pipeline import analyze_campaign
    from repro.simulation.platform import AtlasPlatform, CampaignConfig
    from repro.simulation.topology import build_topology

    topology = build_topology(seed=seed)
    platform = AtlasPlatform(topology, scenario=scenario, seed=seed)
    mapper = topology.as_mapper()
    campaign = CampaignConfig(duration_s=duration_hours * 3600)
    analysis = analyze_campaign(
        platform.run_campaign(campaign), mapper, config=config
    )
    return analysis, topology, mapper
