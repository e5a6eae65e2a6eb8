"""Prometheus text-format v0.0.4 exposition: render and verify.

:func:`render_text` turns a :class:`~repro.obs.metrics.MetricsRegistry`
into the classic text format (``# HELP`` / ``# TYPE`` headers, escaped
label values, cumulative ``_bucket``/``_sum``/``_count`` histogram
series).  Rendering is deterministic for a fixed registry state:
families sort by name, children by label values, label names keep
declaration order — so both HTTP tiers produce byte-identical bodies
modulo live counter values.

:func:`parse_text` is the minimal conformance parser used by the
property tests, ``tools/obs_smoke.py`` and ``bench_obs.py``: it undoes
the escaping, groups samples by family and re-checks the invariants a
real Prometheus scraper relies on (:func:`validate`): bucket counts
monotone, ``+Inf`` bucket equal to ``_count``, ``_sum`` present.  It is
intentionally strict — an unknown line shape is an error, not a skip.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

from .metrics import FamilySnapshot, MetricsRegistry

__all__ = [
    "CONTENT_TYPE",
    "ExpositionError",
    "format_value",
    "parse_text",
    "render_text",
    "validate",
]

#: The scrape Content-Type for text format v0.0.4.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ExpositionError(ValueError):
    """Raised when exposition text violates the format or its invariants."""


def format_value(value: float) -> str:
    """Render a sample value or bucket bound deterministically.

    Integral floats render without a fractional part (``17`` not
    ``17.0``), infinities as ``+Inf``/``-Inf`` — matching what
    Prometheus client libraries emit and what :func:`parse_text`
    round-trips.
    """
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _labels(names: Tuple[str, ...], values: Tuple[str, ...],
            extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = [(n, v) for n, v in zip(names, values)]
    pairs.extend(extra)
    if not pairs:
        return ""
    body = ",".join(f'{n}="{_escape_label(v)}"' for n, v in pairs)
    return "{" + body + "}"


def _render_family(family: FamilySnapshot, lines: List[str]) -> None:
    lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
    lines.append(f"# TYPE {family.name} {family.type}")
    for child in family.children:
        if family.type == "histogram":
            for bound, count in child.buckets:
                labels = _labels(family.labelnames, child.labelvalues,
                                 (("le", format_value(bound)),))
                lines.append(f"{family.name}_bucket{labels} {count}")
            labels = _labels(family.labelnames, child.labelvalues)
            lines.append(f"{family.name}_sum{labels} {format_value(child.sum)}")
            lines.append(f"{family.name}_count{labels} {child.count}")
        else:
            labels = _labels(family.labelnames, child.labelvalues)
            lines.append(f"{family.name}{labels} {format_value(child.value)}")


def render_text(
    registry: MetricsRegistry, extra: Sequence[FamilySnapshot] = ()
) -> bytes:
    """Render the registry as Prometheus text-format v0.0.4 bytes.

    *extra* families (the scrape-time ``process_*`` snapshot) are merged
    in by name, keeping the output sorted.
    """
    lines: List[str] = []
    families = [*registry.collect(), *extra]
    for family in sorted(families, key=attrgetter("name")):
        _render_family(family, lines)
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def _unescape_help(text: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text) and text[i + 1] in ("\\", "n"):
            out.append("\\" if text[i + 1] == "\\" else "\n")
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def _unescape_label(text: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise ExpositionError("dangling escape in label value")
            nxt = text[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "n":
                out.append("\n")
            elif nxt == '"':
                out.append('"')
            else:
                raise ExpositionError(f"bad escape \\{nxt} in label value")
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(blob: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(blob):
        eq = blob.index("=", i)
        name = blob[i:eq].strip()
        if not name:
            raise ExpositionError(f"empty label name in {blob!r}")
        if blob[eq + 1] != '"':
            raise ExpositionError(f"unquoted label value in {blob!r}")
        j = eq + 2
        raw: List[str] = []
        while True:
            if j >= len(blob):
                raise ExpositionError(f"unterminated label value in {blob!r}")
            ch = blob[j]
            if ch == "\\":
                raw.append(blob[j:j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        labels[name] = _unescape_label("".join(raw))
        i = j + 1
        if i < len(blob):
            if blob[i] != ",":
                raise ExpositionError(f"expected ',' after label in {blob!r}")
            i += 1
    return labels


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    try:
        return float(text)
    except ValueError as exc:
        raise ExpositionError(f"bad sample value {text!r}") from exc


def parse_text(blob: bytes) -> Dict[str, Dict[str, object]]:
    """Parse exposition text into ``{family: {type, help, samples}}``.

    ``samples`` is a list of ``(sample_name, labels_dict, value)``
    tuples in document order; histogram series stay attached to their
    base family name.  Raises :class:`ExpositionError` on any line the
    format does not allow.
    """
    families: Dict[str, Dict[str, object]] = {}
    current: List[str] = [""]

    def family_for(sample_name: str) -> Dict[str, object]:
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if stripped and stripped in families and families[stripped]["type"] == "histogram":
                base = stripped
                break
        if base not in families:
            raise ExpositionError(f"sample {sample_name!r} before its # TYPE line")
        return families[base]

    for raw_line in blob.decode("utf-8").split("\n"):
        line = raw_line.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            entry = families.setdefault(
                name, {"type": None, "help": "", "samples": []}
            )
            entry["help"] = _unescape_help(help_text)
            current[0] = name
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram"):
                raise ExpositionError(f"unknown metric type {kind!r}")
            entry = families.setdefault(
                name, {"type": None, "help": "", "samples": []}
            )
            entry["type"] = kind
            current[0] = name
            continue
        if line.startswith("#"):
            continue
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise ExpositionError(f"unterminated label set: {line!r}")
            sample_name = line[:brace]
            labels = _parse_labels(line[brace + 1:close])
            value_text = line[close + 1:].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            labels = {}
            value_text = value_text.strip()
        if not sample_name:
            raise ExpositionError(f"sample line without a name: {line!r}")
        entry = family_for(sample_name)
        entry["samples"].append((sample_name, labels, _parse_value(value_text)))
    return families


def validate(families: Dict[str, Dict[str, object]]) -> None:
    """Re-check scrape invariants; raises :class:`ExpositionError`.

    For every histogram child (grouped by its non-``le`` labels):
    bucket bounds strictly increase, cumulative counts are monotone,
    the ``+Inf`` bucket exists and equals ``_count``, and ``_sum`` is
    present.  Counters must be finite and non-negative.
    """
    for name, entry in families.items():
        kind = entry["type"]
        if kind is None:
            raise ExpositionError(f"{name}: missing # TYPE line")
        if kind == "counter":
            for sample_name, _, value in entry["samples"]:
                if not (value >= 0) or math.isinf(value):
                    raise ExpositionError(f"{name}: counter value {value} invalid")
            continue
        if kind != "histogram":
            continue
        groups: Dict[Tuple[Tuple[str, str], ...], Dict[str, object]] = {}
        for sample_name, labels, value in entry["samples"]:
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            group = groups.setdefault(key, {"buckets": [], "sum": None, "count": None})
            if sample_name == f"{name}_bucket":
                if "le" not in labels:
                    raise ExpositionError(f"{name}: bucket sample without le label")
                group["buckets"].append((_parse_value(labels["le"]), value))
            elif sample_name == f"{name}_sum":
                group["sum"] = value
            elif sample_name == f"{name}_count":
                group["count"] = value
            else:
                raise ExpositionError(f"{name}: unexpected series {sample_name!r}")
        for key, group in groups.items():
            buckets = group["buckets"]
            if not buckets or not math.isinf(buckets[-1][0]):
                raise ExpositionError(f"{name}{dict(key)}: missing +Inf bucket")
            bounds = [b for b, _ in buckets]
            if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
                raise ExpositionError(f"{name}{dict(key)}: bucket bounds not increasing")
            counts = [c for _, c in buckets]
            if counts != sorted(counts):
                raise ExpositionError(f"{name}{dict(key)}: bucket counts not monotone")
            if group["count"] is None or group["sum"] is None:
                raise ExpositionError(f"{name}{dict(key)}: missing _sum/_count")
            if counts[-1] != group["count"]:
                raise ExpositionError(f"{name}{dict(key)}: +Inf bucket != _count")
