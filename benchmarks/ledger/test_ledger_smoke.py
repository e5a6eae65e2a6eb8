"""Smoke test of the perf ledger at ``--quick`` sizes: names, checks, counts.

No timing is asserted anywhere.  A full quick ledger (five workloads
untraced *and* traced) starts ~19 interpreters at ~1.3 s of imports
each, which does not fit a 20 s test, so this runs every workload
untraced once, re-runs one and traces another for the repeat-exactly
counts; the traced counts of the serve workloads are compared by
``run.py --compare`` between full ledgers instead.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path like the real command)
import loadgen  # noqa: E402
import spec  # noqa: E402
import synthstore  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SEED = 5


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    yield tmp_path_factory.mktemp("ledger")
    workloads.kill_children()


@pytest.fixture(scope="module")
def untraced(work):
    """One quick untraced measurement of every workload."""
    return {
        name: run.run_once(name, SEED, 0.0, False, workloads.QUICK, work)
        for name in spec.WORKLOADS
    }


def test_benchmark_json_is_well_formed():
    document = json.loads(spec.BENCHMARK_JSON.read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert document["paths"] == ["benchmarks/ledger"]
    assert document["command"][-1] == "benchmarks/ledger/run.py"
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in document["workloads"]:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
    for entry in document["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in document["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = spec.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(
        entry["bound"] for entry in document["end_to_end"]
    )


def test_every_workload_is_correct_and_emits_the_declared_names(untraced):
    assert list(untraced) == list(workloads.WORKLOADS) == spec.WORKLOADS
    for name, outcome in untraced.items():
        assert outcome.errors == [] and outcome.failed == 0, name
        assert outcome.attempted >= 1, name
        line = json.loads(run.contract_line(outcome, trace=False))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert set(line["metrics"]) == set(spec.END_TO_END)
        assert all(
            metric["value"] > 0 for metric in line["metrics"].values()
        ), name


def test_counts_repeat_exactly(untraced, work):
    again = run.run_once(
        "serve_churn", SEED, 0.0, False, workloads.QUICK, work
    )
    assert again.failed == 0
    assert again.counts == untraced["serve_churn"].counts
    assert again.attempted == untraced["serve_churn"].attempted
    scale = workloads.QUICK
    asns = synthstore.asn_list(scale.churn_as)
    assert loadgen.schedule_digest(
        loadgen.churn_schedule(SEED, asns, scale.churn_window)
    ) != loadgen.schedule_digest(
        loadgen.churn_schedule(SEED + 1, asns, scale.churn_window)
    )
    assert synthstore.synth_bins(SEED, scale.churn_as, 2, 5, 2) != \
        synthstore.synth_bins(SEED + 1, scale.churn_as, 2, 5, 2)


def test_traced_run_emits_the_declared_names(untraced, work):
    outcome = run.run_once(
        "replay_cold", SEED, 0.0, True, workloads.QUICK, work
    )
    assert outcome.errors == [] and outcome.failed == 0
    line = json.loads(run.contract_line(outcome, trace=True))
    assert set(line["metrics"]) == set(spec.PER_LAYER)
    values = {name: m["value"] for name, m in line["metrics"].items()}
    counts = untraced["replay_cold"].counts
    # A second process, the same seed: the same store, byte for byte in
    # size and alarm for alarm in content (check_analyze compared it).
    assert values["store_bytes"] == counts["store_bytes"]
    assert values["atlas.columnar.traceroutes"] == counts["traceroutes"]
    assert values["core.engine.bins"] == counts["bins"] == outcome.attempted
    assert values["atlas.bincache.hit"] == 0
    assert values["atlas.model.decode_s"] == 0  # not this workload's layer


def test_a_corrupted_oracle_bin_is_reported_as_failed(work):
    prepared = workloads.prepare_live_monitor(
        work / "corrupt", SEED, workloads.QUICK
    )
    try:
        assert sum(
            len(result.delay_alarms) + len(result.forwarding_alarms)
            for result in prepared.oracle
        ) > 0, "vacuous base block: the oracle raised no alarm"
        out = prepared.directory / "out"
        out.mkdir()
        cli = workloads.run_cli(
            workloads.monitor_args(prepared, out), out
        )
        clean = workloads.Outcome()
        workloads.check_monitor(prepared, cli, out, clean)
        assert (clean.attempted, clean.failed) == (prepared.n_bins, 0)
        alarmed = next(
            index for index, result in enumerate(prepared.oracle)
            if result.delay_alarms
        )
        prepared.oracle[alarmed] = dataclasses.replace(
            prepared.oracle[alarmed], delay_alarms=[]
        )
        corrupted = workloads.Outcome()
        workloads.check_monitor(prepared, cli, out, corrupted)
        assert (corrupted.attempted, corrupted.failed) == (prepared.n_bins, 1)
    finally:
        prepared.close()
