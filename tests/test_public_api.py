"""Tests for the top-level public API (repro.__init__)."""

import repro
from repro import quick_campaign
from repro.core import CampaignAnalysis


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        import repro.atlas
        import repro.core
        import repro.net
        import repro.quality
        import repro.reporting
        import repro.service
        import repro.simulation
        import repro.stats

    def test_subpackage_alls_resolve(self):
        import repro.atlas as atlas
        import repro.core as core
        import repro.net as net
        import repro.quality as quality
        import repro.reporting as reporting
        import repro.service as service
        import repro.simulation as simulation
        import repro.stats as stats

        modules = (atlas, core, net, quality, reporting, service, simulation, stats)
        for module in modules:
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestQuickCampaign:
    def test_returns_analysis_topology_mapper(self):
        analysis, topology, mapper = quick_campaign(duration_hours=2, seed=4)
        assert isinstance(analysis, CampaignAnalysis)
        assert len(topology.probes) > 0
        assert mapper.asn_of(topology.probes[0].ip) is not None
        stats = analysis.stats()
        assert stats.bins_processed == 2
        assert stats.traceroutes_processed > 0

    def test_deterministic(self):
        first, _, _ = quick_campaign(duration_hours=1, seed=9)
        second, _, _ = quick_campaign(duration_hours=1, seed=9)
        assert (
            first.stats().traceroutes_processed
            == second.stats().traceroutes_processed
        )
        assert first.stats().links_observed == second.stats().links_observed
