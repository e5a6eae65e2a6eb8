"""Quality metrics are engine-invariant.

The engine guarantees bit-identical alarms however its columnar input
is cut into batches and across checkpoint/resume splits; since
:class:`QualityReport`
is a pure function of those alarms and the (fixed) ground truth, the
scores must be *exactly* equal too.  This pins the quality bench's
meaning: a score cannot depend on how the pipeline was deployed.
"""

import pytest

from repro.atlas import TimeBinner, TracerouteBatch
from repro.core import (
    Engine,
    Pipeline,
    PipelineConfig,
    load_snapshot,
    save_snapshot,
)
from repro.quality import MatchConfig, score_bin_results
from repro.simulation import (
    AtlasPlatform,
    CampaignConfig,
    CompositeScenario,
    DdosScenario,
    IxpOutageScenario,
    build_topology,
)

WINDOW = (6 * 3600, 9 * 3600)
DURATION_S = 12 * 3600


@pytest.fixture(scope="module")
def workload():
    """(scenario, campaign) rich enough to raise both alarm kinds."""
    topo = build_topology(seed=21)
    kroot = topo.services["K-root"]
    scenario = CompositeScenario(
        [
            DdosScenario(
                topo,
                "K-root",
                [kroot.instances[0].node],
                [WINDOW],
                seed=3,
            ),
            IxpOutageScenario(topo, ixp_asn=1200, window=WINDOW),
        ]
    )
    platform = AtlasPlatform(topo, scenario=scenario, seed=2)
    config = CampaignConfig(
        start=0,
        duration_s=DURATION_S,
        anchor_names=[a.name for a in topo.anchors[:2]],
    )
    return scenario, list(platform.run_campaign(config))


@pytest.fixture(scope="module")
def campaign_bins(workload):
    _, campaign = workload
    binner = TimeBinner(bin_s=3600, dense=True)
    return [(start, list(payload)) for start, payload in binner.bins(campaign)]


def _score(scenario, results):
    return score_bin_results(
        scenario.ground_truth(),
        results,
        config=MatchConfig(bin_s=3600, tolerance_bins=1),
        scenario=scenario.name,
    )


@pytest.fixture(scope="module")
def reference(workload):
    scenario, campaign = workload
    results = Pipeline(PipelineConfig()).run(campaign)
    return _score(scenario, results)


def test_reference_is_not_vacuous(reference):
    """Guard: the workload must actually produce labels and alarms."""
    assert reference.n_units > 0
    assert reference.n_alarms > 0
    assert reference.recall > 0.0


@pytest.mark.parametrize("n_batches", [1, 2, 3, 4])
def test_shard_count_invariance(workload, campaign_bins, reference, n_batches):
    """The campaign's bins fed as *n_batches* separately encoded
    columnar batches score like the serial run: every new batch is a
    new id space, so the engine's id-keyed caches and rank table reset
    at each cut."""
    scenario, _ = workload
    engine = Engine()
    results = []
    size = -(-len(campaign_bins) // n_batches)
    for first in range(0, len(campaign_bins), size):
        bins = campaign_bins[first:first + size]
        batch = TracerouteBatch.from_traceroutes(
            [t for _, payload in bins for t in payload]
        )
        offset = 0
        for start, payload in bins:
            view = batch.view(range(offset, offset + len(payload)))
            results.append(engine.process_bin(start, view))
            offset += len(payload)
    assert _score(scenario, results) == reference


@pytest.mark.parametrize("split", [2, 7])
def test_checkpoint_resume_invariance(
    workload, campaign_bins, reference, split, tmp_path
):
    """Checkpoint after *split* bins, resume in a fresh engine: the
    quality report of the stitched run equals the uninterrupted one."""
    scenario, campaign = workload
    engine = Engine()
    first = [
        engine.process_bin(start, payload)
        for start, payload in campaign_bins[:split]
    ]
    path = tmp_path / "state.ckpt"
    save_snapshot(path, engine.snapshot(results=first))
    resumed = Engine()
    results = resumed.run(campaign, resume_from=load_snapshot(path))
    assert _score(scenario, results) == reference
