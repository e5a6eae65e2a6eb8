"""``BENCHMARK.json`` as the single list of names, units and bounds.

Every module that emits or judges a metric reads the names from here,
so the file the driver validates and the numbers ``run.py`` prints
cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

_SPEC = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))

#: Workload names, in run order.
WORKLOADS: List[str] = [entry["name"] for entry in _SPEC["workloads"]]

#: End-to-end metric name -> {"unit", "better", "bound"}.
END_TO_END: Dict[str, dict] = {
    entry["name"]: entry for entry in _SPEC["end_to_end"]
}

#: Per-layer metric name -> {"unit", "better"}.
PER_LAYER: Dict[str, dict] = {
    entry["name"]: entry for entry in _SPEC["per_layer"]
}

RUN_SECONDS: int = _SPEC["run_seconds"]
