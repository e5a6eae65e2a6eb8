"""RIPE-Atlas-style traceroute data model, measurement specs, and IO.

The paper's methods consume only public Atlas traceroute data; this
subpackage defines the in-memory/on-disk representation of that data plus
the builtin/anchoring measurement cadences (paper §2 and Appendix B).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ANCHORING": "repro.atlas.measurements",
    "BUILTIN": "repro.atlas.measurements",
    "BatchView": "repro.atlas.columnar",
    "BinCacheError": "repro.atlas.bincache",
    "CACHE_VERSION": "repro.atlas.bincache",
    "ColumnarStream": "repro.atlas.stream",
    "DEFAULT_BIN_S": "repro.atlas.stream",
    "DecodeWarning": "repro.atlas.io",
    "FeedTailer": "repro.atlas.stream",
    "Hop": "repro.atlas.model",
    "IPInterner": "repro.atlas.columnar",
    "LatenessWindow": "repro.atlas.stream",
    "MAX_SANE_RTT_MS": "repro.atlas.validate",
    "MeasurementKind": "repro.atlas.measurements",
    "MeasurementSpec": "repro.atlas.measurements",
    "NO_INT": "repro.atlas.columnar",
    "NO_IP": "repro.atlas.columnar",
    "PACKETS_PER_HOP": "repro.atlas.measurements",
    "Reply": "repro.atlas.model",
    "SanitationReport": "repro.atlas.validate",
    "TIMEOUT": "repro.atlas.model",
    "TimeBinner": "repro.atlas.stream",
    "Traceroute": "repro.atlas.model",
    "TracerouteBatch": "repro.atlas.columnar",
    "TracerouteDecodeError": "repro.atlas.io",
    "TracerouteStream": "repro.reference.ingest",
    "bin_start": "repro.atlas.stream",
    "bin_views": "repro.atlas.columnar",
    "binned_payloads": "repro.atlas.stream",
    "decode_lines": "repro.atlas.columnar",
    "decode_traceroutes": "repro.atlas.columnar",
    "default_cache_path": "repro.atlas.bincache",
    "fingerprint_of": "repro.atlas.bincache",
    "load_or_build": "repro.atlas.bincache",
    "make_traceroute": "repro.atlas.model",
    "minimum_usable_bin_s": "repro.atlas.measurements",
    "read_bincache": "repro.atlas.bincache",
    "read_traceroutes": "repro.reference.ingest",
    "sanitize": "repro.atlas.validate",
    "sanitize_one": "repro.atlas.validate",
    "shortest_detectable_event_s": "repro.atlas.measurements",
    "write_bincache": "repro.atlas.bincache",
    "write_traceroutes": "repro.atlas.io",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
