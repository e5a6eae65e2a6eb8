# Developer entry points.  Everything runs from the repository root and
# injects src/ onto PYTHONPATH, so no install step is required.

PYTHON      ?= python
PYTHONPATH  := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: help test bench bench-engine bench-ingest bench-detect bench-stream bench-serve bench-quality bench-fetch bench-e2e bench-obs benchstat fetch-smoke compact-smoke obs-smoke analyze-smoke import-budget ledger-pairs docs doclint

help:
	@echo "targets:"
	@echo "  test         tier-1 test suite (pytest -x -q)"
	@echo "  bench        full figure/table benchmark suite"
	@echo "  bench-engine engine-vs-serial scaling benchmark only"
	@echo "  bench-ingest columnar ingestion benchmark (BENCH_ingest.json)"
	@echo "  bench-detect detection-kernel benchmark (BENCH_detect.json)"
	@echo "  bench-stream checkpoint-overhead benchmark (BENCH_stream.json)"
	@echo "  bench-serve  alarm-store serving benchmark (BENCH_serve.json)"
	@echo "  bench-quality detection-quality regression bench (BENCH_quality.json)"
	@echo "  bench-fetch  connector-layer fetch benchmark (BENCH_fetch.json)"
	@echo "  bench-e2e    fused end-to-end throughput benchmark (BENCH_e2e.json)"
	@echo "  bench-obs    observability overhead benchmark (BENCH_obs.json)"
	@echo "  benchstat    diff BENCH_*.json against benchmarks/baselines/"
	@echo "  fetch-smoke  offline connector smoke: fixture fetch under faults"
	@echo "  compact-smoke store compaction smoke: CLI round trip + equivalence tests"
	@echo "  obs-smoke    boot the HTTP server, scrape /metrics + /statusz, validate"
	@echo "  analyze-smoke analyze 3 ways (bin cache off/cold/warm) x 3 input orders, cmp output + store bytes"
	@echo "  import-budget per command: modules loaded, import wall, peak RSS"
	@echo "  ledger-pairs parent/change ledger pairs: PARENT=rev WORKLOAD=w SEEDS=a-b [PAIRS=n]"
	@echo "  docs         docstring lint + pointers to docs/"
	@echo "  doclint      docstring lint only"

test:
	$(PYTHON) -m pytest -x -q tests

# bench_*.py does not match pytest's default test-file pattern, so the
# files are listed explicitly.
bench:
	$(PYTHON) -m pytest -q benchmarks/bench_*.py -s

bench-engine:
	$(PYTHON) -m pytest -q benchmarks/bench_engine_scaling.py -s

bench-ingest:
	$(PYTHON) -m pytest -q benchmarks/bench_ingest.py -s

bench-detect:
	$(PYTHON) -m pytest -q benchmarks/bench_detect.py -s

bench-stream:
	$(PYTHON) -m pytest -q benchmarks/bench_stream.py -s

bench-serve:
	$(PYTHON) -m pytest -q benchmarks/bench_serve.py -s

bench-quality:
	$(PYTHON) -m pytest -q benchmarks/bench_quality.py -s

bench-fetch:
	$(PYTHON) -m pytest -q benchmarks/bench_fetch.py -s

bench-e2e:
	$(PYTHON) -m pytest -q benchmarks/bench_e2e.py -s

bench-obs:
	$(PYTHON) -m pytest -q benchmarks/bench_obs.py -s

# Regression gate: compares the BENCH_*.json files at the repo root
# against the blessed copies in benchmarks/baselines/ (20 % threshold).
benchstat:
	$(PYTHON) tools/benchstat.py

# End-to-end connector smoke with zero network access: the CLI fetches a
# recorded fixture through a 30 % injected-fault schedule and the
# benchmark asserts byte-identity + exactly-once resume.
fetch-smoke:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest -q benchmarks/bench_fetch.py -s
	$(PYTHON) -m pytest -q tests/test_connector_fetch.py
	$(PYTHON) examples/fetch_and_monitor.py

# Store maintenance smoke with zero network: monitor a generated feed
# into a store (compacting between appends via --compact-every), run an
# explicit CLI compaction pass, then the full compaction-equivalence
# test file (bit-identical answers, hypothesis property included).
compact-smoke:
	rm -rf /tmp/compact.store
	$(PYTHON) -m repro generate --hours 8 --seed 3 --probes 24 --scenario ddos --out /tmp/compact_feed.jsonl
	$(PYTHON) -m repro monitor /tmp/compact_feed.jsonl --seed 3 --probes 24 --store /tmp/compact.store
	$(PYTHON) -m repro compact /tmp/compact.store --max-segments 1
	$(PYTHON) -m pytest -q tests/test_service_compact.py

# Observability smoke with zero network access: build a store via the
# CLI, boot `serve` as a subprocess, scrape /metrics + /statusz through
# the strict exposition parser, and check the request counter moves.
obs-smoke:
	$(PYTHON) tools/obs_smoke.py

# `analyze` has one production path: run it default, --bin-cache
# (cold) and the ledger's --bin-cache --shards 2 (warm) on a generated
# outage feed, cmp the three JSON reports and the three stores' segment
# files, then check a truncated feed exits 1 with one error line.
analyze-smoke:
	PYTHON=$(PYTHON) sh tools/analyze_smoke.sh

# What each CLI command loads, on a tiny generated feed/store: module
# count, the ten costliest imports (-X importtime) and ru_maxrss.  The
# budget itself is enforced by tests/test_import_budget.py.
import-budget:
	$(PYTHON) tools/import_budget.py

# Paired parent/change runs of the perf ledger (alternating which side
# runs first), judged by the gain rule and the BENCHMARK.json bounds.
ledger-pairs:
	$(PYTHON) tools/ledger_pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
		--seeds $(SEEDS) $(if $(PAIRS),--pairs $(PAIRS))

doclint:
	$(PYTHON) tools/doclint.py

docs: doclint
	@echo "docs/architecture.md   - dataflow and the engine"
	@echo "docs/paper_mapping.md  - paper section/figure -> module map"
