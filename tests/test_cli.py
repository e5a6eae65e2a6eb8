"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def _cli_env():
    """The environment for a ``python -m repro`` child: this ``src/`` first."""
    import os

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


class TestGenerateAnalyze:
    @pytest.fixture(scope="class")
    def campaign_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "campaign.jsonl"
        code = main(
            [
                "generate",
                "--hours", "2",
                "--seed", "3",
                "--probes", "12",
                "--no-anchoring",
                "--out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_generate_writes_jsonl(self, campaign_path):
        lines = campaign_path.read_text().strip().splitlines()
        assert len(lines) > 0
        record = json.loads(lines[0])
        assert "prb_id" in record and "result" in record

    def test_generate_scenario_writes_labels(self, tmp_path):
        from repro.quality import GroundTruth

        out = tmp_path / "campaign.jsonl"
        labels = tmp_path / "truth.json"
        code = main(
            [
                "generate",
                "--hours", "6",
                "--seed", "3",
                "--probes", "12",
                "--no-anchoring",
                "--scenario", "ddos",
                "--labels", str(labels),
                "--out", str(out),
            ]
        )
        assert code == 0
        truth = GroundTruth.from_json(labels.read_text())
        assert truth.delay
        assert truth.events() == ["ddos:K-root"]

    def test_generate_labels_require_scenario(self, tmp_path):
        code = main(
            [
                "generate",
                "--hours", "2",
                "--labels", str(tmp_path / "truth.json"),
                "--out", str(tmp_path / "campaign.jsonl"),
            ]
        )
        assert code == 2

    def test_analyze_table_output(self, campaign_path, capsys):
        code = main(
            ["analyze", str(campaign_path), "--seed", "3", "--probes", "12"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "links analyzed" in out
        assert "delay alarms" in out

    def test_analyze_json_output(self, campaign_path, capsys):
        code = main(
            [
                "analyze", str(campaign_path),
                "--seed", "3", "--probes", "12", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "stats" in payload
        assert payload["stats"]["traceroutes_processed"] > 0

    def test_analyze_with_alpha_override(self, campaign_path, capsys):
        code = main(
            [
                "analyze", str(campaign_path),
                "--seed", "3", "--probes", "12", "--alpha", "0.05",
            ]
        )
        assert code == 0

    def test_analyze_bin_cache_matches_plain_ingestion(
        self, campaign_path, capsys
    ):
        """--bin-cache builds the cache on first use, hits it on the
        second, and the JSON report is identical to plain ingestion."""
        from pathlib import Path

        base = ["analyze", str(campaign_path), "--seed", "3",
                "--probes", "12", "--json"]
        assert main(base) == 0
        plain = capsys.readouterr().out

        assert main(base + ["--bin-cache"]) == 0
        first = capsys.readouterr().out
        cache = Path(str(campaign_path) + ".binc")
        assert cache.exists()
        assert main(base + ["--bin-cache"]) == 0
        second = capsys.readouterr().out
        assert first == second == plain

    def test_analyze_bin_cache_custom_path_and_status_line(
        self, campaign_path, tmp_path, capsys
    ):
        cache = tmp_path / "custom.binc"
        argv = [
            "analyze", str(campaign_path), "--seed", "3", "--probes", "12",
            "--bin-cache", str(cache),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"bin cache rebuilt: {cache}" in out
        assert cache.exists()
        assert main(argv) == 0
        assert f"bin cache hit: {cache}" in capsys.readouterr().out


class TestAnalyzeCheckpoint:
    @pytest.fixture(scope="class")
    def campaign_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-ckpt") / "campaign.jsonl"
        assert main(
            [
                "generate", "--hours", "2", "--seed", "3", "--probes", "12",
                "--no-anchoring", "--out", str(path),
            ]
        ) == 0
        return path

    def test_checkpointed_analyze_matches_and_resumes(
        self, campaign_path, tmp_path, capsys
    ):
        """--checkpoint writes a resumable snapshot; the rerun resumes
        from it and prints the identical JSON report."""
        base = ["analyze", str(campaign_path), "--seed", "3",
                "--probes", "12", "--json"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        ckpt = tmp_path / "state.ckpt"
        argv = base + ["--checkpoint", str(ckpt), "--checkpoint-every", "1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert ckpt.exists()
        assert main(argv) == 0  # resumed run: every bin already covered
        second = capsys.readouterr().out
        assert first == second == plain

    def test_checkpoint_every_requires_checkpoint(self, campaign_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "analyze", str(campaign_path), "--seed", "3",
                    "--probes", "12", "--checkpoint-every", "2",
                ]
            )

    def test_jobs_flag_is_gone(self, campaign_path, capsys):
        """The engine runs in-process; there is no worker count to set."""
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(campaign_path), "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def _run(*argv):
    """``main(argv)`` in-process; returns (exit code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def _segment_bytes(store):
    """The store's segment files, in name order, as bytes."""
    segments = sorted(store.glob("*.seg"))
    assert segments
    return [path.read_bytes() for path in segments]


def _case_study_mapper(seed, probes):
    """The IP-to-AS table ``analyze --seed SEED --probes PROBES`` builds."""
    from repro.simulation import AtlasPlatform, TopologyParams, build_topology

    params = TopologyParams.case_study()
    params.n_probes = probes
    return AtlasPlatform(build_topology(params, seed=seed), seed=seed).as_mapper()


def _oracle_events(analysis):
    """Every event of both kinds, most severe first (ties: AS, time,
    kind), from the oracle: ``InternetHealthReport.top_events``."""
    from repro.reference import InternetHealthReport

    report = InternetHealthReport(analysis)
    events = report.top_events("delay", threshold=2.0, limit=None)
    events += report.top_events("forwarding", threshold=2.0, limit=None)
    return sorted(
        events, key=lambda e: (-abs(e.magnitude), e.asn, e.timestamp, e.kind)
    )


def _oracle_text(analysis, top):
    """``analyze``'s text stdout for *analysis*, rendered from the
    oracle's events."""
    from repro.reporting import format_table

    stats = analysis.stats()
    table = format_table(
        ["statistic", "value"],
        [
            ["traceroutes", stats.traceroutes_processed],
            ["bins", stats.bins_processed],
            ["links analyzed", stats.links_analyzed],
            ["delay alarms", len(analysis.delay_alarms)],
            ["forwarding alarms", len(analysis.forwarding_alarms)],
        ],
    )
    events = _oracle_events(analysis)
    if not events:
        return f"{table}\n\nno significant events\n"
    if not top:
        return f"{table}\n"
    rows = [
        [f"AS{e.asn}", e.timestamp // 3600, e.kind, f"{e.magnitude:+.1f}"]
        for e in events[:top]
    ]
    listing = format_table(["AS", "hour", "kind", "magnitude"], rows)
    return f"{table}\n\ntop events:\n{listing}\n"


class TestAnalyzeOneProductionPath:
    """``analyze`` has one ingest x engine path — columns into the
    engine — whatever ``--bin-cache`` says, and its bytes are the serial
    reference ``Pipeline``'s, run here by name (no CLI flag reaches it
    any more)."""

    ARGS = ("--seed", "3", "--probes", "12")

    @pytest.fixture(scope="class")
    def feed(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-matrix") / "leak.jsonl"
        assert main(
            [
                "generate", "--hours", "6", "--seed", "3", "--probes", "12",
                "--scenario", "leak", "--out", str(path),
            ]
        ) == 0
        return path

    @pytest.fixture(scope="class")
    def analysis(self, feed):
        """The oracle's campaign: objects -> serial ``Pipeline`` ->
        ``AlarmAggregator``."""
        from repro.core import PipelineConfig, analyze_campaign
        from repro.reference import Pipeline, read_traceroutes

        analysis = analyze_campaign(
            read_traceroutes(feed),
            _case_study_mapper(3, 12),
            pipeline=Pipeline(PipelineConfig()),
        )
        assert analysis.delay_alarms and analysis.forwarding_alarms
        return analysis

    @pytest.fixture(scope="class")
    def oracle(self, analysis, tmp_path_factory):
        """(``--json`` stdout, ``--store`` segment bytes) of the oracle:
        IHR report + store export of :meth:`analysis`."""
        from repro.reference import InternetHealthReport
        from repro.service import append_analysis

        store = tmp_path_factory.mktemp("cli-oracle") / "oracle.store"
        append_analysis(store, analysis)
        stdout = InternetHealthReport(analysis).to_json() + "\n"
        return stdout, _segment_bytes(store)

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_identity_matrix(self, feed, oracle, tmp_path, suffix):
        """{no cache, cache cold, cache warm}: the same stdout and the
        same store bytes, equal to the oracle's."""
        import gzip

        source = tmp_path / f"feed{suffix}"
        data = feed.read_bytes()
        source.write_bytes(gzip.compress(data) if suffix.endswith(".gz") else data)
        cache = tmp_path / "feed.binc"
        for state in ("none", "cold", "warm"):
            store = tmp_path / f"{state}.store"
            extra = [] if state == "none" else ["--bin-cache", cache]
            assert cache.exists() == (state == "warm")
            code, out, _ = _run(
                "analyze", source, *self.ARGS, "--json", "--store", store,
                *extra,
            )
            assert code == 0
            assert out == oracle[0], (suffix, state)
            assert _segment_bytes(store) == oracle[1], (suffix, state)

    @pytest.mark.parametrize("top", [None, 3])
    def test_text_report_matches_the_oracle(self, feed, analysis, top):
        """Text stdout (statistics and top-events tables) is the
        oracle's, rendered from ``InternetHealthReport.top_events``."""
        extra = [] if top is None else ["--top", top]
        code, out, _ = _run("analyze", feed, *self.ARGS, *extra)
        assert code == 0
        expected = _oracle_text(analysis, 10 if top is None else top)
        assert "top events:" in expected
        assert out == expected

    def test_top_events_rank_both_kinds(self, feed, analysis):
        """One ranking across kinds: a forwarding event more severe than
        the fifth delay event is listed with ``--top 5`` (a delay-first
        table would list five delay events)."""
        events = _oracle_events(analysis)
        assert sum(e.kind == "delay" for e in events) >= 5
        assert "forwarding" in {e.kind for e in events[:5]}
        code, out, _ = _run("analyze", feed, *self.ARGS, "--top", 5)
        assert code == 0
        assert out == _oracle_text(analysis, 5)
        rows = out.split("top events:\n", 1)[1].splitlines()[2:]
        assert [row.split()[2] for row in rows].count("forwarding") >= 1

    def test_top_zero_lists_no_events_and_claims_none(
        self, feed, analysis, tmp_path
    ):
        """``--top 0`` lists nothing and does not claim that a campaign
        with events has none; "no significant events" means none."""
        code, out, _ = _run("analyze", feed, *self.ARGS, "--top", 0)
        assert code == 0
        assert out == _oracle_text(analysis, 0)
        assert "top events:" not in out
        assert "no significant events" not in out
        quiet = tmp_path / "quiet.jsonl"
        assert main(
            ["generate", "--hours", "3", *self.ARGS, "--out", str(quiet)]
        ) == 0
        for top in (0, 10):
            code, out, _ = _run("analyze", quiet, *self.ARGS, "--top", top)
            assert code == 0
            assert out.endswith("\n\nno significant events\n")

    def test_no_command_builds_the_oracle(
        self, feed, analysis, oracle, tmp_path, monkeypatch
    ):
        """Text, ``--json``, ``--store`` and a ``--checkpoint`` resume
        all print the oracle's report with ``AlarmAggregator`` and
        ``InternetHealthReport`` unconstructible."""
        from repro.core import PipelineConfig, run_checkpointed
        from repro.reference import (
            AlarmAggregator,
            InternetHealthReport,
            Pipeline,
            read_traceroutes,
        )

        ckpt = tmp_path / "state.ckpt"
        head = [t for t in read_traceroutes(feed) if t.timestamp < 3 * 3600]
        run_checkpointed(
            Pipeline(PipelineConfig()), head, ckpt, source_path=feed
        )

        text = _oracle_text(analysis, 10)

        def refuse(*args, **kwargs):
            raise AssertionError("a command built the oracle")

        monkeypatch.setattr(AlarmAggregator, "__init__", refuse)
        monkeypatch.setattr(InternetHealthReport, "__init__", refuse)
        code, out, _ = _run("analyze", feed, *self.ARGS)
        assert (code, out) == (0, text)
        code, out, _ = _run("analyze", feed, *self.ARGS, "--json")
        assert (code, out) == (0, oracle[0])
        store = tmp_path / "store"
        code, out, _ = _run("analyze", feed, *self.ARGS, "--store", store)
        assert code == 0
        banner, rest = out.split("\n", 1)
        assert banner.startswith(f"alarm store updated: {store} ")
        assert rest == text
        assert _segment_bytes(store) == oracle[1]
        code, out, _ = _run(
            "analyze", feed, *self.ARGS, "--json", "--checkpoint", ckpt
        )
        assert (code, out) == (0, oracle[0])

    def test_shards_flag_is_accepted_and_ignored(self, feed, tmp_path, capsys):
        """``--shards N`` is still parsed and checked, then ignored: the
        same stdout and store bytes as without it (the ledger's
        ``analyze --bin-cache --shards 2 --store`` command relies on
        it), and ``--shards 0`` is still a usage error."""
        runs = []
        store = tmp_path / "store"  # recreated by each run
        for extra in ([], ["--shards", "2"]):
            code, out, _ = _run(
                "analyze", feed, *self.ARGS, "--store", store, *extra
            )
            assert code == 0
            runs.append((out, _segment_bytes(store)))
        assert runs[0] == runs[1]
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(feed), "--shards", "0"])
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_serial_checkpoint_resumes_under_default_analyze(
        self, feed, oracle, tmp_path
    ):
        """Snapshots are engine-agnostic: a checkpoint the serial
        ``Pipeline`` wrote mid-campaign resumes on the engine to the
        uninterrupted output, processing only the bins it lacks."""
        from repro.core import PipelineConfig, run_checkpointed
        from repro.obs.metrics import MetricsRegistry, set_default_registry
        from repro.reference import Pipeline, read_traceroutes

        ckpt = tmp_path / "state.ckpt"
        head = [t for t in read_traceroutes(feed) if t.timestamp < 3 * 3600]
        results, resumed = run_checkpointed(
            Pipeline(PipelineConfig()), head, ckpt, source_path=feed
        )
        assert len(results) == 3 and not resumed
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            code, out, _ = _run(
                "analyze", feed, *self.ARGS, "--json", "--checkpoint", ckpt
            )
        finally:
            set_default_registry(previous)
        assert code == 0
        assert out == oracle[0]
        [bins] = [
            family for family in registry.collect()
            if family.name == "repro_engine_bins_total"
        ]
        assert [child.value for child in bins.children] == [3]

    def test_default_timings_and_trace_come_from_the_engine(
        self, feed, tmp_path
    ):
        """``--timings`` has the engine's stage rows under one
        ``decode``, ``--trace`` has bin and stage spans — and neither
        an engine ``bin`` stage nor a shard span."""
        trace = tmp_path / "trace.json"
        code, _, err = _run(
            "analyze", feed, *self.ARGS, "--json", "--timings",
            "--trace", trace,
        )
        assert code == 0
        timings = json.loads(err.strip().splitlines()[-1])["timings"]
        assert timings["decode"]["calls"] == 1
        for stage in ("extract", "detect"):
            assert timings[stage]["calls"] == 6, stage
        assert "bin" not in timings
        names = [e["name"] for e in json.loads(trace.read_text())["traceEvents"]]
        assert names.count("campaign") == 1
        # "bin" names the whole-bin span only.
        for span, count in (("bin", 6), ("extract", 6), ("detect", 6)):
            assert names.count(span) == count, span
        assert not [name for name in names if name.startswith("shard-")]

    @pytest.mark.parametrize("cache", [False, True])
    def test_bad_input_is_an_error_line_not_a_traceback(
        self, feed, tmp_path, cache
    ):
        """A missing feed, a malformed line (decode is strict) and a
        truncated gzip all exit 1 with ``repro: error: PATH: ...``."""
        import gzip

        extra = ["--bin-cache"] if cache else []
        lines = feed.read_bytes().splitlines(keepends=True)[:40]
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(b"".join(lines[:3]) + lines[3][:200] + b"\n")
        short = tmp_path / "short.jsonl.gz"
        short.write_bytes(gzip.compress(b"".join(lines))[:-20])
        for path, reason in (
            (tmp_path / "nope.jsonl", "No such file or directory"),
            (torn, "line 4: "),
            (short, "Compressed file ended"),
        ):
            code, out, err = _run("analyze", path, *self.ARGS, *extra)
            assert code == 1
            assert out == ""
            assert err.startswith(f"repro: error: {path}: {reason}"), err
            assert "Traceback" not in err
            assert not list(tmp_path.glob("*.binc*"))

    def test_unwritable_bin_cache_does_not_kill_the_analysis(
        self, feed, oracle, tmp_path
    ):
        """The cache's parent is a regular file (unwritable for root
        too): one warning, exit 0, the full report."""
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory")
        with pytest.warns(RuntimeWarning, match="bin cache not written"):
            code, out, _ = _run(
                "analyze", feed, *self.ARGS, "--json",
                "--bin-cache", blocker / "x.binc",
            )
        assert code == 0
        assert out == oracle[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


class TestMonitor:
    @pytest.fixture(scope="class")
    def feed_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-monitor") / "feed.jsonl"
        assert main(
            [
                "generate", "--hours", "3", "--seed", "3", "--probes", "12",
                "--no-anchoring", "--out", str(path),
            ]
        ) == 0
        return path

    def test_monitor_emits_closed_bins(self, feed_path, capsys):
        assert main(["monitor", str(feed_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("bin ") == 3
        assert "monitor done: 3 bins" in out

    def test_monitor_json_mode(self, feed_path, capsys):
        import json

        assert main(["monitor", str(feed_path), "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [record["bin"] for record in records] == [0, 3600, 7200]
        assert all("delay_alarms" in record for record in records)
        assert sum(record["n_traceroutes"] for record in records) > 0

    def test_monitor_checkpoint_and_resume(
        self, feed_path, tmp_path, capsys
    ):
        ckpt = tmp_path / "mon.ckpt"
        argv = ["monitor", str(feed_path), "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "monitor done: 3 bins" in first
        assert ckpt.exists()
        # Rerun over the same feed: everything is replay, nothing is
        # processed twice.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "resumed from checkpoint: 3 bins" in second
        assert "monitor done: 0 bins" in second
        assert "replayed results skipped" in second

    def test_monitor_checkpoint_resume_after_feed_grows(
        self, feed_path, tmp_path, capsys
    ):
        """New lines appended after the checkpoint are processed; the
        old prefix is dropped as replay."""
        import shutil

        feed = tmp_path / "grow.jsonl"
        lines = feed_path.read_text().strip().splitlines()
        # First two hours only.
        import json as _json

        first_part = [
            line for line in lines
            if _json.loads(line)["timestamp"] < 2 * 3600
        ]
        feed.write_text("\n".join(first_part) + "\n")
        ckpt = tmp_path / "mon.ckpt"
        argv = ["monitor", str(feed), "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        capsys.readouterr()
        shutil.copy(feed_path, feed)  # the feed grew to three hours
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint" in out
        # Bins 0 (only bin closed before drain in run 1) .. more bins now.
        assert "monitor done:" in out

    def test_monitor_skips_undecodable_lines(self, feed_path, tmp_path,
                                             capsys):
        feed = tmp_path / "dirty.jsonl"
        feed.write_text(
            "not json\n" + feed_path.read_text() + "{\"half\": true}\n"
        )
        assert main(["monitor", str(feed)]) == 0
        out = capsys.readouterr().out
        assert "2 undecodable lines skipped" in out

    def test_monitor_max_bins_stops_early(self, feed_path, capsys):
        assert main(["monitor", str(feed_path), "--max-bins", "1"]) == 0
        out = capsys.readouterr().out
        assert "monitor done: 1 bins" in out

    def test_monitor_corrupt_checkpoint_starts_fresh(
        self, feed_path, tmp_path, capsys
    ):
        ckpt = tmp_path / "mon.ckpt"
        ckpt.write_bytes(b"garbage that is not a checkpoint")
        assert main(
            ["monitor", str(feed_path), "--checkpoint", str(ckpt)]
        ) == 0
        captured = capsys.readouterr()
        assert "checkpoint ignored" in captured.err
        assert "monitor done: 3 bins" in captured.out

    def test_monitor_checkpoint_of_other_feed_ignored(
        self, feed_path, tmp_path, capsys
    ):
        """A checkpoint taken on one feed must not resume on another."""
        other = tmp_path / "other.jsonl"
        assert main(
            [
                "generate", "--hours", "2", "--seed", "9", "--probes", "12",
                "--no-anchoring", "--out", str(other),
            ]
        ) == 0
        ckpt = tmp_path / "mon.ckpt"
        assert main(
            ["monitor", str(other), "--checkpoint", str(ckpt)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["monitor", str(feed_path), "--checkpoint", str(ckpt)]
        ) == 0
        captured = capsys.readouterr()
        assert "different feed" in captured.err
        assert "monitor done: 3 bins" in captured.out

    def test_monitor_sharded_engine(self, feed_path, capsys):
        """``monitor --shards 2`` is accepted and changes nothing."""
        assert main(["monitor", str(feed_path), "--json"]) == 0
        plain = capsys.readouterr().out
        assert main(
            ["monitor", str(feed_path), "--json", "--shards", "2"]
        ) == 0
        assert capsys.readouterr().out == plain
        assert len(plain.splitlines()) == 3

    def test_compact_every_without_store_fails_before_any_work(
        self, feed_path, tmp_path, capsys
    ):
        """A usage error is reported before the checkpoint is restored
        (which would print "resumed from checkpoint") or rewritten."""
        ckpt = tmp_path / "mon.ckpt"
        assert main(
            ["monitor", str(feed_path), "--checkpoint", str(ckpt),
             "--max-bins", "1"]
        ) == 0
        capsys.readouterr()
        before = ckpt.read_bytes()
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["monitor", str(feed_path), "--checkpoint", str(ckpt),
                 "--compact-every", "2"]
            )
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro: error: --compact-every requires --store\n"
        )
        assert ckpt.read_bytes() == before


def _run_monitor(*argv):
    """``monitor --json`` in-process; returns its stdout (bin records)."""
    code, out, _ = _run("monitor", *argv, "--json")
    assert code == 0
    return out


def _store_state(path):
    """What a reader of the store sees, plus its append cadence."""
    from repro.service import StoreQuery

    query = StoreQuery(path)
    manifest = query.store.manifest
    bins = range(manifest.start, manifest.end + 1, manifest.bin_s)
    return (
        manifest.generation,
        [(s.name, s.n_delay, s.n_forwarding, s.n_events)
         for s in manifest.segments],
        [query.alarms_at(timestamp) for timestamp in bins],
    )


class TestMonitorCrashResume:
    """The live path is resumable at any bin: stdout, checkpoint bytes
    and the store of an interrupted-then-rerun monitor equal an
    uninterrupted run's, at any ``--lateness``."""

    ARGS = ("--seed", "5", "--probes", "24", "--compact-every", "3")

    @pytest.fixture(scope="class")
    def feed(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-resume") / "feed.jsonl"
        assert main(
            [
                "generate", "--hours", "8", "--seed", "5", "--probes", "24",
                "--scenario", "ddos", "--no-anchoring", "--out", str(path),
            ]
        ) == 0
        return path

    @pytest.fixture(scope="class", params=[1, 2])
    def lateness(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def reference(self, feed, lateness, tmp_path_factory):
        """One uninterrupted run at this lateness."""
        out = tmp_path_factory.mktemp("cli-resume-ref")
        stdout = _run_monitor(
            feed, *self.ARGS, "--lateness", lateness,
            "--store", out / "store", "--checkpoint", out / "ckpt",
        )
        records = [json.loads(line) for line in stdout.splitlines()]
        assert len(records) == 8
        assert any(record["delay_alarms"] for record in records), "vacuous"
        return stdout, (out / "ckpt").read_bytes(), _store_state(out / "store")

    @pytest.mark.parametrize("stop_after", [1, 5])
    def test_max_bins_then_rerun_equals_uninterrupted(
        self, feed, reference, tmp_path, lateness, stop_after
    ):
        argv = (
            feed, *self.ARGS, "--lateness", lateness,
            "--store", tmp_path / "store", "--checkpoint", tmp_path / "ckpt",
        )
        first = _run_monitor(*argv, "--max-bins", stop_after)
        assert len(first.splitlines()) == stop_after
        second = _run_monitor(*argv)
        stdout, checkpoint, store = reference
        assert first + second == stdout
        assert (tmp_path / "ckpt").read_bytes() == checkpoint
        assert _store_state(tmp_path / "store") == store

    def test_checkpoint_written_by_the_serial_pipeline_resumes(
        self, feed, reference, lateness, tmp_path
    ):
        """Checkpoints are engine-agnostic: one taken from the serial
        reference ``Pipeline`` resumes under ``monitor``'s engine and
        ends in the same checkpoint bytes."""
        from repro.core import PipelineConfig, save_snapshot, source_digest_of
        from repro.reference import Pipeline, read_traceroutes

        pipeline = Pipeline(PipelineConfig())
        pipeline.run(
            [t for t in read_traceroutes(feed) if t.timestamp < 3 * 3600]
        )
        state = pipeline.snapshot()
        state.source_digest = source_digest_of(feed)
        save_snapshot(tmp_path / "ckpt", state)
        resumed = _run_monitor(
            feed, "--lateness", lateness, "--checkpoint", tmp_path / "ckpt"
        )
        stdout, checkpoint, _store = reference
        assert resumed == "".join(stdout.splitlines(keepends=True)[3:])
        assert (tmp_path / "ckpt").read_bytes() == checkpoint


class TestAlarmStore:
    @pytest.fixture(scope="class")
    def campaign_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-store") / "campaign.jsonl"
        assert main(
            [
                "generate", "--hours", "3", "--seed", "3", "--probes", "12",
                "--no-anchoring", "--out", str(path),
            ]
        ) == 0
        return path

    def test_analyze_store_export(self, campaign_path, tmp_path, capsys):
        from repro.service import StoreQuery

        store = tmp_path / "alarms.store"
        assert main(
            [
                "analyze", str(campaign_path), "--seed", "3",
                "--probes", "12", "--store", str(store),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert f"alarm store updated: {store}" in out
        query = StoreQuery(store)
        assert query.store.manifest.n_bins == 3
        # Re-running recreates the store deterministically.
        assert main(
            [
                "analyze", str(campaign_path), "--seed", "3",
                "--probes", "12", "--store", str(store),
            ]
        ) == 0
        assert StoreQuery(store).store.manifest.n_bins == 3

    def test_monitor_store_appends_and_skips_replay(
        self, campaign_path, tmp_path, capsys
    ):
        from repro.service import StoreQuery

        store = tmp_path / "monitor.store"
        argv = [
            "monitor", str(campaign_path), "--seed", "3", "--probes", "12",
            "--store", str(store),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"alarm store: {store}" in out
        generation = StoreQuery(store).generation
        assert generation >= 1
        # A rerun replays the same feed; the store must not grow.
        assert main(argv) == 0
        assert StoreQuery(store).generation == generation
        assert StoreQuery(store).store.manifest.n_bins == 3

    def test_monitor_store_matches_analyze_store(
        self, campaign_path, tmp_path, capsys
    ):
        from repro.service import StoreQuery

        analyzed = tmp_path / "a.store"
        monitored = tmp_path / "m.store"
        assert main(
            [
                "analyze", str(campaign_path), "--seed", "3",
                "--probes", "12", "--store", str(analyzed),
            ]
        ) == 0
        assert main(
            [
                "monitor", str(campaign_path), "--seed", "3",
                "--probes", "12", "--store", str(monitored),
            ]
        ) == 0
        capsys.readouterr()
        one, two = StoreQuery(analyzed), StoreQuery(monitored)
        assert one.monitored_asns() == two.monitored_asns()
        for asn in one.monitored_asns():
            assert one.as_condition(asn) == two.as_condition(asn)

    def test_store_bytes_independent_of_hash_seed(self, tmp_path):
        """The serial reference ``Pipeline`` (library level: no CLI flag
        reaches it) exports the same segment bytes under any
        ``PYTHONHASHSEED``, and the same bytes as ``analyze --store``
        (regression: the serial forwarding references were once kept in
        set order)."""
        import subprocess
        import sys

        feed = tmp_path / "outage.jsonl"
        assert main(
            [
                "generate", "--hours", "6", "--seed", "3", "--probes", "12",
                "--no-anchoring", "--scenario", "outage", "--out", str(feed),
            ]
        ) == 0
        script = (
            "import sys\n"
            "from repro.core import PipelineConfig, analyze_campaign\n"
            "from repro.reference import Pipeline, read_traceroutes\n"
            "from repro.service import append_analysis\n"
            "from tests.test_cli import _case_study_mapper\n"
            "analysis = analyze_campaign(\n"
            "    read_traceroutes(sys.argv[1]), _case_study_mapper(3, 12),\n"
            "    pipeline=Pipeline(PipelineConfig()))\n"
            "assert analysis.forwarding_alarms\n"
            "append_analysis(sys.argv[2], analysis)\n"
        )
        env = _cli_env()

        def serial_segments(hash_seed):
            store = tmp_path / f"seed{hash_seed}.store"
            env["PYTHONHASHSEED"] = hash_seed
            subprocess.run(
                [sys.executable, "-c", script, str(feed), str(store)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            return _segment_bytes(store)

        serial = serial_segments("1")
        assert serial_segments("3") == serial
        store = tmp_path / "cli.store"
        assert main(
            [
                "analyze", str(feed), "--seed", "3", "--probes", "12",
                "--json", "--store", str(store),
            ]
        ) == 0
        assert _segment_bytes(store) == serial

    def test_serve_missing_store_fails_cleanly(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope.store")]) == 1
        assert "repro: error:" in capsys.readouterr().err


class TestServeCommand:
    """``serve`` as a real subprocess: banner, wire bytes, clean exit."""

    TARGETS = [
        "/", "/health/65001", "/health?asns=65001,65002", "/links/65001",
        "/events?kind=delay&threshold=0.5", "/top?kinds=delay,forwarding",
        "/nonsense",
    ]

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        from tests.test_service_store import (
            build_store,
            make_mapper,
            synthetic_bins,
        )

        directory = tmp_path_factory.mktemp("serve-cli") / "store"
        build_store(directory, synthetic_bins(6, seed=13), make_mapper())
        return directory

    @staticmethod
    def _serve(store, *extra):
        """Boot ``serve STORE --port 0 *extra``; returns (proc, banner)."""
        import select
        import subprocess
        import sys

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(store),
             "--port", "0", *extra],
            env=_cli_env(), stdout=subprocess.PIPE,
        )
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        banner = proc.stdout.readline().decode() if ready else ""
        return proc, banner

    @staticmethod
    def _stop(proc) -> int:
        import signal

        proc.send_signal(signal.SIGINT)
        try:
            return proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.stdout.close()

    @staticmethod
    def _fetch(port: int, target: str) -> bytes:
        """The full response bytes (status line, headers, body)."""
        import socket

        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(
                f"GET {target} HTTP/1.1\r\nHost: t\r\n"
                "Connection: close\r\n\r\n".encode()
            )
            with sock.makefile("rb") as stream:
                return stream.read()

    def test_async_flag_is_a_no_op(self, store):
        """Bare ``serve`` and ``serve --async``: one banner, one wire."""
        import re

        seen = []
        for extra in ([], ["--async"]):
            proc, banner = self._serve(store, *extra)
            try:
                match = re.fullmatch(
                    r"(serving \S+ on http://127\.0\.0\.1:)(\d+)( \(async\)\n)",
                    banner,
                )
                assert match is not None, banner
                port = int(match.group(2))
                responses = [self._fetch(port, t) for t in self.TARGETS]
            finally:
                code = self._stop(proc)
            assert code == 0
            seen.append((match.group(1), match.group(3), responses))
        assert seen[0] == seen[1]
        assert seen[0][2][1].startswith(b"HTTP/1.1 200 OK\r\n")

    def test_workers_is_not_an_option(self, store):
        """Serving is one process: ``--workers`` is a usage error."""
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", str(store),
             "--port", "0", "--workers", "2"],
            env=_cli_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "unrecognized arguments: --workers 2" in proc.stderr

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_bad_port_is_a_usage_error(self, store, capsys, port):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(store), "--port", port])
        assert excinfo.value.code == 2
        assert "argument --port" in capsys.readouterr().err

    def test_busy_port_fails_cleanly(self, store, capsys):
        """A bind failure is one ``repro: error:`` line and exit 1."""
        import socket

        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            assert main(["serve", str(store), "--port", str(port)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("repro: error: ")
        assert f"('127.0.0.1', {port})" in lines[0]
        assert "address already in use" in lines[0]

    def test_help_does_not_list_async(self, capsys):
        """Accepted-and-ignored flags stay out of ``--help``: ``serve
        --async`` and the analysis commands' ``--shards``."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        usage = capsys.readouterr().out
        assert "--async" not in usage
        assert "--workers" not in usage
        for command in ("analyze", "monitor"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            assert "--shards" not in capsys.readouterr().out, command


class TestReplay:
    def test_replay_is_not_a_command(self, capsys):
        """The case studies are ``generate --scenario`` + ``analyze``
        (``TestIxpOutageCase`` covers the outage one): ``replay`` is a
        usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "ddos"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'replay'" in capsys.readouterr().err

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["generate", "--out", "x.jsonl", "--hours", "0"], "--hours"),
        (["generate", "--out", "x.jsonl", "--hours", "-2"], "--hours"),
        (["generate", "--out", "x.jsonl", "--probes", "0"], "--probes"),
        (["analyze", "x.jsonl", "--alpha", "2"], "--alpha"),
        (["analyze", "x.jsonl", "--alpha", "0"], "--alpha"),
        (["analyze", "x.jsonl", "--top", "-1"], "--top"),
        (["monitor", "x.jsonl", "--poll", "-1"], "--poll"),
        (["monitor", "x.jsonl", "--poll", "0"], "--poll"),
        (["monitor", "x.jsonl", "--idle-timeout", "-1"], "--idle-timeout"),
    ],
)
def test_bad_number_is_a_usage_error(argv, flag, capsys):
    """Out-of-range numbers stop in the parser: exit 2 and one
    ``repro CMD: error:`` line, not a traceback from deep inside (or,
    for ``--top -1``, a report silently missing its last event)."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"repro {argv[0]}: error: argument {flag}: " in err
    assert "Traceback" not in err
