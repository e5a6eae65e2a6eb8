"""Property and conformance tests for Prometheus text exposition."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.expo import (
    CONTENT_TYPE,
    ExpositionError,
    format_value,
    parse_text,
    render_text,
    validate,
)
from repro.obs.metrics import MetricsRegistry, exponential_buckets
from repro.obs.process import process_families

# Label values must survive the three escaped characters plus anything
# printable; metric/label names follow the Prometheus grammar.
label_value = st.text(
    alphabet=st.sampled_from(list("abcXYZ09 \\\"\n{},=")), max_size=8
)
metric_name = st.from_regex(r"[a-z][a-z0-9_]{0,14}", fullmatch=True)
help_text = st.text(
    alphabet=st.sampled_from(list("help text\\\nwith escapes")), max_size=20
)


@st.composite
def registry_strategy(draw):
    """A randomly populated enabled registry (1-4 families)."""
    registry = MetricsRegistry()
    names = draw(
        st.lists(metric_name, min_size=1, max_size=4, unique=True)
    )
    for name in names:
        kind = draw(st.sampled_from(["counter", "gauge", "histogram"]))
        n_labels = draw(st.integers(0, 2))
        labelnames = tuple(f"l{i}" for i in range(n_labels))
        help_ = draw(help_text)
        if kind == "counter":
            family = registry.counter(name, help_, labelnames)
        elif kind == "gauge":
            family = registry.gauge(name, help_, labelnames)
        else:
            family = registry.histogram(
                name, help_, labelnames,
                buckets=exponential_buckets(0.001, 4.0, draw(st.integers(1, 5))),
            )
        for _ in range(draw(st.integers(0, 3))):
            values = tuple(draw(label_value) for _ in labelnames)
            child = family.labels(*values) if labelnames else family
            if kind == "counter":
                child.inc(draw(st.floats(0, 1e6, allow_nan=False)))
            elif kind == "gauge":
                child.set(
                    draw(st.floats(-1e6, 1e6, allow_nan=False,
                                   allow_infinity=False))
                )
            else:
                for _ in range(draw(st.integers(1, 4))):
                    child.observe(draw(st.floats(0, 10, allow_nan=False)))
    return registry


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(registry_strategy())
    def test_render_parse_validate(self, registry):
        """Rendered text parses back losslessly and passes validation."""
        blob = render_text(registry)
        families = parse_text(blob)
        validate(families)
        snapshots = {f.name: f for f in registry.collect()}
        assert set(families) == set(snapshots)
        for name, entry in families.items():
            snap = snapshots[name]
            assert entry["type"] == snap.type
            assert entry["help"] == snap.help
            if snap.type == "histogram":
                continue  # bucket coherence is validate()'s job
            parsed = {
                tuple(labels[k] for k in snap.labelnames): value
                for _, labels, value in entry["samples"]
            }
            expected = {
                c.labelvalues: pytest.approx(c.value)
                for c in snap.children
            }
            assert parsed == expected

    @settings(max_examples=30, deadline=None)
    @given(registry_strategy())
    def test_rendering_is_deterministic(self, registry):
        assert render_text(registry) == render_text(registry)


class TestRendering:
    def test_empty_registry_renders_empty(self):
        assert render_text(MetricsRegistry()) == b""
        assert render_text(MetricsRegistry(enabled=False)) == b""

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c", "h", ("k",)).labels('a\\b"c\nd').inc()
        blob = render_text(registry).decode()
        assert 'k="a\\\\b\\"c\\nd"' in blob
        families = parse_text(blob.encode())
        [(_, labels, value)] = families["c"]["samples"]
        assert labels == {"k": 'a\\b"c\nd'}
        assert value == 1.0

    def test_help_newline_escaped(self):
        registry = MetricsRegistry()
        registry.gauge("g", "line one\nline two").set(1)
        blob = render_text(registry)
        assert b"# HELP g line one\\nline two" in blob
        assert parse_text(blob)["g"]["help"] == "line one\nline two"

    def test_histogram_series_shape(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "help", buckets=(0.5, 2.0))
        hist.observe(1.0)
        lines = render_text(registry).decode().strip().split("\n")
        assert lines == [
            "# HELP h help",
            "# TYPE h histogram",
            'h_bucket{le="0.5"} 0',
            'h_bucket{le="2"} 1',
            'h_bucket{le="+Inf"} 1',
            "h_sum 1",
            "h_count 1",
        ]

    def test_content_type_is_v004(self):
        assert "version=0.0.4" in CONTENT_TYPE


class TestFormatValue:
    def test_integral_floats_lose_fraction(self):
        assert format_value(17.0) == "17"
        assert format_value(-3.0) == "-3"

    def test_fractional_values_keep_precision(self):
        assert float(format_value(0.1)) == 0.1
        assert float(format_value(1e-9)) == 1e-9

    def test_special_values(self):
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(float("nan")) == "NaN"


class TestParserStrictness:
    def test_sample_before_type_rejected(self):
        with pytest.raises(ExpositionError):
            parse_text(b"orphan 1\n")

    def test_unknown_type_rejected(self):
        with pytest.raises(ExpositionError):
            parse_text(b"# TYPE m summary\nm 1\n")

    def test_bad_escape_rejected(self):
        with pytest.raises(ExpositionError):
            parse_text(b'# TYPE m counter\nm{l="a\\qb"} 1\n')

    def test_unterminated_label_rejected(self):
        with pytest.raises(ExpositionError):
            parse_text(b'# TYPE m counter\nm{l="open 1\n')

    def test_bad_value_rejected(self):
        with pytest.raises(ExpositionError):
            parse_text(b"# TYPE m counter\nm not-a-number\n")


class TestValidate:
    def _histogram_entry(self, samples):
        return {"h": {"type": "histogram", "help": "", "samples": samples}}

    def test_missing_inf_bucket_rejected(self):
        entry = self._histogram_entry(
            [("h_bucket", {"le": "1"}, 1.0), ("h_sum", {}, 1.0),
             ("h_count", {}, 1.0)]
        )
        with pytest.raises(ExpositionError, match=r"\+Inf"):
            validate(entry)

    def test_non_monotone_counts_rejected(self):
        entry = self._histogram_entry(
            [("h_bucket", {"le": "1"}, 5.0),
             ("h_bucket", {"le": "+Inf"}, 3.0),
             ("h_sum", {}, 1.0), ("h_count", {}, 3.0)]
        )
        with pytest.raises(ExpositionError, match="monotone"):
            validate(entry)

    def test_inf_bucket_must_equal_count(self):
        entry = self._histogram_entry(
            [("h_bucket", {"le": "+Inf"}, 3.0),
             ("h_sum", {}, 1.0), ("h_count", {}, 4.0)]
        )
        with pytest.raises(ExpositionError, match="_count"):
            validate(entry)

    def test_missing_sum_rejected(self):
        entry = self._histogram_entry(
            [("h_bucket", {"le": "+Inf"}, 3.0), ("h_count", {}, 3.0)]
        )
        with pytest.raises(ExpositionError, match="_sum"):
            validate(entry)

    def test_negative_counter_rejected(self):
        entry = {"c": {"type": "counter", "help": "",
                       "samples": [("c", {}, -1.0)]}}
        with pytest.raises(ExpositionError):
            validate(entry)

    def test_nan_and_inf_counters_rejected(self):
        for bad in (float("nan"), float("inf")):
            entry = {"c": {"type": "counter", "help": "",
                           "samples": [("c", {}, bad)]}}
            with pytest.raises(ExpositionError):
                validate(entry)

    def test_valid_document_passes(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "h").inc(2)
        hist = registry.histogram("lat", "h", ("route",), buckets=(0.1, 1.0))
        hist.labels("/top").observe(0.05)
        hist.labels("/top").observe(5.0)
        validate(parse_text(render_text(registry)))


class TestProcessFamilies:
    """The scrape-time ``process_*`` snapshot (``repro.obs.process``)."""

    KINDS = {
        "process_cpu_seconds_total": "counter",
        "process_open_fds": "gauge",
        "process_resident_memory_bytes": "gauge",
        "process_start_time_seconds": "gauge",
        "process_virtual_memory_bytes": "gauge",
    }

    def test_standard_names_kinds_and_sane_values(self):
        registry = MetricsRegistry()
        registry.counter("zz_total", "h").inc()
        registry.counter("aa_total", "h").inc()
        body = render_text(registry, process_families())
        families = parse_text(body)
        validate(families)
        kinds = {name: entry["type"] for name, entry in families.items()}
        assert {k: kinds.get(k) for k in self.KINDS} == self.KINDS
        # Merged by name, not appended after the registry's families.
        assert list(families) == sorted(families)
        value = {
            name: families[name]["samples"][0][2] for name in self.KINDS
        }
        rss = value["process_resident_memory_bytes"]
        assert 1 << 20 < rss <= value["process_virtual_memory_bytes"]
        assert value["process_open_fds"] >= 3
        assert value["process_cpu_seconds_total"] > 0
        assert 0 < value["process_start_time_seconds"] <= time.time()

    def test_read_at_scrape_time(self):
        ballast = bytearray(32 << 20)  # touched: zero-filled pages
        grown = process_families()
        del ballast
        by_name = {family.name: family for family in grown}
        rss = by_name["process_resident_memory_bytes"].children[0].value
        assert rss > 32 << 20

    def test_registry_only_render_is_unchanged(self):
        registry = MetricsRegistry()
        registry.gauge("g", "h").set(1)
        assert b"process_" not in render_text(registry)
