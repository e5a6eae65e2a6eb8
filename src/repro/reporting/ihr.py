"""Internet-Health-Report answer types (paper §8).

The authors expose their results through the IHR website and API so that
operators can monitor ASes they care about.  This module defines what
those answers are — :class:`AsCondition` per AS, :class:`LinkHealth`
per link, and the :func:`summary_json` document — for the serving
layer's :class:`~repro.service.query.StoreQuery` (what ``analyze`` and
``serve`` answer from) and for its oracle,
:class:`~repro.reference.report.InternetHealthReport`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.alarms import Link

if TYPE_CHECKING:  # `serve` answers AsCondition/LinkHealth, no pipeline
    from repro.core.pipeline import CampaignStats


@dataclass(frozen=True)
class AsCondition:
    """One AS's health summary over the analyzed period.

    An AS the campaign never alarmed on — including every AS of an
    entirely alarm-free (or empty) campaign — yields the explicit
    healthy summary: zero counts, zero magnitudes, ``None`` hours.
    """

    asn: int
    delay_alarm_count: int
    forwarding_alarm_count: int
    peak_delay_magnitude: float
    peak_delay_hour: Optional[int]
    trough_forwarding_magnitude: float
    trough_forwarding_hour: Optional[int]

    @property
    def healthy(self) -> bool:
        """No pronounced magnitude excursions either way."""
        return (
            self.peak_delay_magnitude < 1.0
            and self.trough_forwarding_magnitude > -1.0
        )


@dataclass(frozen=True)
class LinkHealth:
    """Per-link delay-alarm drill-down for one AS (IHR link view)."""

    link: Link
    alarm_count: int
    peak_deviation: float
    total_deviation: float
    last_timestamp: int


def summary_json(source, empty: bool, stats: CampaignStats) -> str:
    """The per-AS summary as the IHR API would serialise it.

    *source* answers ``monitored_asns()`` and ``as_condition(asn)``: an
    :class:`~repro.reference.report.InternetHealthReport`, or the
    :class:`~repro.service.query.StoreQuery` that ``analyze`` prints
    from.  An alarm-free campaign (*empty*) is an explicit healthy
    report (``empty`` true, no conditions) rather than an error.
    """
    asns = source.monitored_asns()
    payload = {
        "empty": empty,
        "monitored_asns": asns,
        "stats": asdict(stats),
        "conditions": [
            {**asdict(condition), "healthy": condition.healthy}
            for condition in map(source.as_condition, asns)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
