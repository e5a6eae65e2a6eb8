"""Measurement platform: schedules campaigns like RIPE Atlas does.

The paper consumes two repetitive measurement classes (§2): *builtin*
(every probe → the anycast DNS root services, each 30 minutes) and
*anchoring* (probes → anchors, each 15 minutes).  :class:`AtlasPlatform`
reproduces those schedules over the synthetic topology, staggering probes
inside the interval like the real scheduler, and yields results in
timestamp order ready for :class:`~repro.atlas.stream.TimeBinner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.atlas.measurements import ANCHORING, BUILTIN, MeasurementSpec
from repro.atlas.model import Traceroute
from repro.net.asmap import AsMapper
from repro.simulation.delays import NoiseParams
from repro.simulation.scenarios import Scenario
from repro.simulation.topology import Topology
from repro.simulation.tracer import TargetSpec, TracerouteEngine

#: msm_id bases mirroring Atlas conventions (builtin root measurements
#: have small ids, anchoring measurements large ones).
BUILTIN_MSM_BASE = 5000
ANCHORING_MSM_BASE = 1_000_000


@dataclass
class CampaignConfig:
    """What to measure and for how long."""

    start: int = 0
    duration_s: int = 24 * 3600
    include_builtin: bool = True
    include_anchoring: bool = True
    builtin_spec: MeasurementSpec = field(default_factory=lambda: BUILTIN)
    anchoring_spec: MeasurementSpec = field(default_factory=lambda: ANCHORING)
    #: optionally restrict probes / targets (None = all)
    probe_ids: Optional[Sequence[int]] = None
    service_names: Optional[Sequence[str]] = None
    anchor_names: Optional[Sequence[str]] = None
    #: address family of the measurements (4 or 6)
    address_family: int = 4

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive: {self.duration_s}")
        if not (self.include_builtin or self.include_anchoring):
            raise ValueError("campaign must include at least one measurement class")
        if self.address_family not in (4, 6):
            raise ValueError(f"address_family must be 4 or 6: {self.address_family}")

    @property
    def end(self) -> int:
        return self.start + self.duration_s


class AtlasPlatform:
    """Simulated measurement platform over a synthetic topology."""

    def __init__(
        self,
        topology: Topology,
        scenario: Optional[Scenario] = None,
        noise: Optional[NoiseParams] = None,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.engine = TracerouteEngine(
            topology, scenario=scenario, noise=noise, seed=seed
        )
        self.seed = seed
        self._rng = np.random.default_rng(seed ^ 0x5EED)

    # -- metadata ---------------------------------------------------------

    def as_mapper(self) -> AsMapper:
        """IP→AS mapper loaded with the topology's prefix table."""
        return self.topology.as_mapper()

    def builtin_targets(
        self, names: Optional[Sequence[str]] = None, af: int = 4
    ) -> List[TargetSpec]:
        services = self.topology.services
        selected = names if names is not None else sorted(services)
        return [
            TargetSpec.for_service(
                services[name], msm_id=BUILTIN_MSM_BASE + i, af=af
            )
            for i, name in enumerate(selected)
        ]

    def anchoring_targets(
        self, names: Optional[Sequence[str]] = None, af: int = 4
    ) -> List[TargetSpec]:
        anchors = {anchor.name: anchor for anchor in self.topology.anchors}
        selected = names if names is not None else sorted(anchors)
        return [
            TargetSpec.for_anchor(
                anchors[name], msm_id=ANCHORING_MSM_BASE + i, af=af
            )
            for i, name in enumerate(selected)
        ]

    def _probes(self, probe_ids: Optional[Sequence[int]]):
        if probe_ids is None:
            return list(self.topology.probes)
        wanted = set(probe_ids)
        return [p for p in self.topology.probes if p.probe_id in wanted]

    # -- campaign execution -------------------------------------------------

    def run_campaign(self, config: CampaignConfig) -> Iterator[Traceroute]:
        """Yield every traceroute of the campaign in timestamp order.

        Scheduled jobs whose probe is disconnected at launch time
        (:meth:`Scenario.probe_active`, e.g. under
        :class:`~repro.simulation.scenarios.ProbeChurnScenario`) are
        skipped, like a real probe missing its measurement slot.
        """
        probes = self._probes(config.probe_ids)
        if not probes:
            raise ValueError("campaign has no probes")
        jobs = []  # (timestamp, sequence, probe, target)
        if config.include_builtin:
            targets = self.builtin_targets(
                config.service_names, af=config.address_family
            )
            jobs.extend(
                self._schedule(probes, targets, config.builtin_spec, config)
            )
        if config.include_anchoring:
            targets = self.anchoring_targets(
                config.anchor_names, af=config.address_family
            )
            jobs.extend(
                self._schedule(probes, targets, config.anchoring_spec, config)
            )
        jobs.sort(key=lambda job: (job[0], job[1]))
        scenario = self.engine.scenario
        for timestamp, _, probe, target in jobs:
            if not scenario.probe_active(probe.probe_id, timestamp):
                continue
            yield self.engine.run(probe, target, timestamp)

    def _schedule(self, probes, targets, spec: MeasurementSpec, config):
        jobs = []
        sequence = 0
        for probe in probes:
            for target in targets:
                offset = int(self._rng.integers(0, spec.interval_s))
                for timestamp in spec.schedule(
                    config.start, config.end, offset=offset
                ):
                    jobs.append((timestamp, sequence, probe, target))
                    sequence += 1
        return jobs

    def campaign_size(self, config: CampaignConfig) -> int:
        """Number of traceroutes the campaign will produce (no execution).

        An upper bound when the scenario churns probes: jobs skipped for
        disconnected probes are still counted.
        """
        probes = len(self._probes(config.probe_ids))
        total = 0
        if config.include_builtin:
            n_targets = len(self.builtin_targets(config.service_names))
            per_pair = config.duration_s // config.builtin_spec.interval_s
            total += probes * n_targets * per_pair
        if config.include_anchoring:
            n_targets = len(self.anchoring_targets(config.anchor_names))
            per_pair = config.duration_s // config.anchoring_spec.interval_s
            total += probes * n_targets * per_pair
        return total
