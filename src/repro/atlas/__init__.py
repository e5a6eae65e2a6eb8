"""RIPE-Atlas-style traceroute data model, measurement specs, and IO.

The paper's methods consume only public Atlas traceroute data; this
subpackage defines the in-memory/on-disk representation of that data plus
the builtin/anchoring measurement cadences (paper §2 and Appendix B).
"""

from repro.atlas.io import (
    DecodeWarning,
    TracerouteDecodeError,
    count_traceroutes,
    read_traceroutes,
    write_traceroutes,
)
from repro.atlas.columnar import (
    NO_INT,
    NO_IP,
    BatchView,
    IPInterner,
    TracerouteBatch,
    bin_views,
    decode_lines,
    decode_traceroutes,
)
from repro.atlas.bincache import (
    CACHE_VERSION,
    BinCacheError,
    default_cache_path,
    fingerprint_of,
    load_or_build,
    read_bincache,
    write_bincache,
)
from repro.atlas.measurements import (
    ANCHORING,
    BUILTIN,
    PACKETS_PER_HOP,
    MeasurementKind,
    MeasurementSpec,
    minimum_usable_bin_s,
    shortest_detectable_event_s,
)
from repro.atlas.model import (
    TIMEOUT,
    Hop,
    Reply,
    Traceroute,
    make_traceroute,
)
from repro.atlas.validate import (
    MAX_SANE_RTT_MS,
    SanitationReport,
    sanitize,
    sanitize_one,
)
from repro.atlas.stream import (
    DEFAULT_BIN_S,
    ColumnarStream,
    FeedTailer,
    LatenessWindow,
    TimeBinner,
    TracerouteStream,
    bin_start,
    binned_payloads,
)

__all__ = [
    "ANCHORING",
    "BUILTIN",
    "BatchView",
    "BinCacheError",
    "CACHE_VERSION",
    "ColumnarStream",
    "DEFAULT_BIN_S",
    "DecodeWarning",
    "FeedTailer",
    "Hop",
    "IPInterner",
    "LatenessWindow",
    "MAX_SANE_RTT_MS",
    "MeasurementKind",
    "MeasurementSpec",
    "NO_INT",
    "NO_IP",
    "PACKETS_PER_HOP",
    "Reply",
    "SanitationReport",
    "TIMEOUT",
    "TimeBinner",
    "Traceroute",
    "TracerouteBatch",
    "TracerouteDecodeError",
    "TracerouteStream",
    "bin_start",
    "bin_views",
    "binned_payloads",
    "count_traceroutes",
    "decode_lines",
    "decode_traceroutes",
    "default_cache_path",
    "fingerprint_of",
    "load_or_build",
    "make_traceroute",
    "minimum_usable_bin_s",
    "read_bincache",
    "read_traceroutes",
    "sanitize",
    "sanitize_one",
    "shortest_detectable_event_s",
    "write_bincache",
    "write_traceroutes",
]
