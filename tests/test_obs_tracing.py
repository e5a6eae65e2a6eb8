"""Tests for stage accounting, span tracing, and stage-name coherence."""

import json

import pytest

from repro.cli import main
from repro.obs.tracing import (
    NULL_TIMER,
    NULL_TRACER,
    STAGE_NAMES,
    StageAccumulator,
    Tracer,
    stage_order,
)


class TestStageNames:
    def test_canonical_order(self):
        assert STAGE_NAMES == (
            "decode", "bin", "extract", "detect", "store", "compact"
        )

    def test_core_reexports_the_same_objects(self):
        """repro.core must re-export, not redefine, the stage list."""
        from repro import core

        assert core.STAGES is STAGE_NAMES
        assert core.StageTimer is StageAccumulator
        assert core.NULL_TIMER is NULL_TIMER

    def test_stage_order_known_first_extras_sorted(self):
        assert stage_order(["store", "decode", "zz", "aa"]) == [
            "decode", "store", "aa", "zz"
        ]


class TestStageAccumulator:
    def test_stage_context_charges_time_and_calls(self):
        acc = StageAccumulator()
        with acc.stage("detect"):
            pass
        timings = acc.timings()
        assert timings["detect"]["calls"] == 1
        assert timings["detect"]["seconds"] >= 0.0

    def test_add_and_merge(self):
        worker = StageAccumulator()
        worker.add("extract", 0.25, calls=3)
        parent = StageAccumulator()
        parent.add("extract", 0.5)
        parent.merge(worker.timings())
        entry = parent.timings()["extract"]
        assert entry == {"calls": 4, "seconds": 0.75}

    def test_timings_canonically_ordered(self):
        acc = StageAccumulator()
        for name in ("store", "custom", "decode"):
            acc.add(name, 0.1)
        assert list(acc.timings()) == ["decode", "store", "custom"]

    def test_reset(self):
        acc = StageAccumulator()
        acc.add("bin", 1.0)
        acc.reset()
        assert acc.timings() == {}

    def test_disabled_accumulator_records_nothing(self):
        acc = StageAccumulator(enabled=False)
        with acc.stage("detect"):
            pass
        acc.add("bin", 1.0)
        assert acc.timings() == {}
        assert NULL_TIMER.timings() == {}


class TestTracer:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("work", args={"n": 3}):
            pass
        [event] = tracer.events()
        assert event["ph"] == "X"
        assert event["name"] == "work"
        assert event["args"] == {"n": 3}
        assert event["dur"] >= 0.0

    def test_add_span_lays_explicit_timeline(self):
        tracer = Tracer()
        start = tracer.now()
        tracer.add_span("shard-1", start, 0.002, tid=2)
        tracer.add_span("shard-0", start, 0.004, tid=1)
        events = tracer.events()
        # Same ts: longer span first, then tid breaks the tie.
        assert [e["name"] for e in events] == ["shard-0", "shard-1"]

    def test_export_order_is_deterministic(self):
        tracer = Tracer()
        start = tracer.now()
        for tid in (3, 1, 2):
            tracer.add_span(f"s{tid}", start, 0.001, tid=tid)
        assert tracer.events() == tracer.events()
        assert [e["tid"] for e in tracer.events()] == [1, 2, 3]

    def test_to_chrome_document_shape(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        doc = tracer.to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 1

    def test_write_is_loadable_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][0]["name"] == "x"

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x"):
            pass
        tracer.add_span("y", 0.0, 1.0)
        assert tracer.events() == []
        assert NULL_TRACER.events() == []


@pytest.fixture(scope="module")
def campaign_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs-cli") / "campaign.jsonl"
    assert main(
        [
            "generate", "--hours", "3", "--seed", "3", "--probes", "12",
            "--no-anchoring", "--out", str(path),
        ]
    ) == 0
    return path


class TestTimingsSchemaCoherence:
    """Regression: every stage-keyed CLI surface spells stages the same."""

    def _timings_record(self, err: str) -> dict:
        record = json.loads(err.strip().splitlines()[-1])
        assert record["schema"] == "timings/v1"
        return record["timings"]

    def test_analyze_timings_stages_are_canonical(
        self, campaign_path, capsys
    ):
        assert main(
            ["analyze", str(campaign_path), "--seed", "3", "--probes", "12",
             "--json", "--timings"]
        ) == 0
        captured = capsys.readouterr()
        timings = self._timings_record(captured.err)
        assert timings  # something was recorded
        assert set(timings) <= set(STAGE_NAMES)
        for entry in timings.values():
            assert set(entry) == {"calls", "seconds"}

    def test_monitor_json_stages_are_canonical(self, campaign_path, capsys):
        assert main(["monitor", str(campaign_path), "--json"]) == 0
        captured = capsys.readouterr()
        timings = self._timings_record(captured.err)
        assert timings
        assert set(timings) <= set(STAGE_NAMES)

    def test_monitor_decode_is_per_chunk_and_engine_stages_are_metered(
        self, campaign_path, capsys
    ):
        """The live path charges ``decode`` once per tailed chunk (this
        feed fits one), and extract/bin/detect come from the engine's
        profiler hook, once per closed bin, at any ``--shards``."""
        for shards in ("1", "2"):
            assert main(
                ["monitor", str(campaign_path), "--json", "--shards", shards]
            ) == 0
            timings = self._timings_record(capsys.readouterr().err)
            assert timings["decode"]["calls"] == 1
            for stage in ("extract", "bin", "detect"):
                assert timings[stage]["calls"] == 3, (shards, stage)

    def test_monitor_ingest_counters_reach_the_registry(
        self, campaign_path, tmp_path, capsys
    ):
        """A monitor's decoded and skipped lines land in the same
        counters ``decode_traceroutes`` feeds, so they reach /metrics."""
        from repro.obs.metrics import MetricsRegistry, set_default_registry

        feed = tmp_path / "dirty.jsonl"
        clean = campaign_path.read_text()
        feed.write_text("not json\n\n" + clean + '{"half": true}\n')
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            assert main(["monitor", str(feed), "--json"]) == 0
        finally:
            set_default_registry(previous)
        capsys.readouterr()
        values = {
            family.name: family.children[0].value
            for family in registry.collect()
            if family.name.startswith("repro_ingest_")
        }
        assert values == {
            "repro_ingest_traceroutes_total": len(clean.splitlines()),
            "repro_ingest_decode_warnings_total": 2,
            "repro_ingest_feed_reopens_total": 0,
        }

    def test_default_analyze_moves_the_engine_and_ingest_counters(
        self, campaign_path, capsys
    ):
        """``analyze`` at ``--shards 1`` is the engine over decoded
        columns: the scrape reports the campaign's real totals."""
        from repro.obs.metrics import MetricsRegistry, set_default_registry

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            assert main(
                ["analyze", str(campaign_path), "--seed", "3",
                 "--probes", "12", "--json"]
            ) == 0
        finally:
            set_default_registry(previous)
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["bins_processed"] == 3
        values = {
            (family.name, child.labelvalues): child.value
            for family in registry.collect()
            for child in family.children
        }
        n_traceroutes = len(campaign_path.read_text().splitlines())
        assert stats["traceroutes_processed"] == n_traceroutes
        assert values["repro_engine_bins_total", ("fused",)] == 3
        assert values["repro_engine_traceroutes_total", ()] == n_traceroutes
        assert values["repro_ingest_traceroutes_total", ()] == n_traceroutes

    def test_monitor_and_analyze_agree_on_shared_stage_names(
        self, campaign_path, capsys
    ):
        assert main(
            ["analyze", str(campaign_path), "--seed", "3", "--probes", "12",
             "--json", "--timings"]
        ) == 0
        analyze_stages = set(self._timings_record(capsys.readouterr().err))
        assert main(["monitor", str(campaign_path), "--json"]) == 0
        monitor_stages = set(self._timings_record(capsys.readouterr().err))
        shared = analyze_stages & monitor_stages
        assert "decode" in shared and "detect" in shared

    def test_analyze_trace_spans_use_canonical_stage_names(
        self, campaign_path, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        assert main(
            ["analyze", str(campaign_path), "--seed", "3", "--probes", "12",
             "--shards", "2", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        events = json.loads(trace.read_text())["traceEvents"]
        names = {e["name"] for e in events}
        assert "campaign" in names
        stage_names = {
            n for n in names
            if n != "campaign" and not n.startswith("shard-")
        }
        assert stage_names <= set(STAGE_NAMES)
        # Shard spans ride their own tracks; the coordinator is tid 0.
        assert {e["tid"] for e in events if e["name"].startswith("shard-")} \
            == {1, 2}
