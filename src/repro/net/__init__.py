"""IP-layer utilities: addresses, prefixes, longest-prefix matching.

This subpackage is the substrate used by the alarm-aggregation stage of the
paper (Section 6): alarms carry IP addresses and must be assigned to
autonomous systems with a longest-prefix match, exactly as the authors do
with RIB-derived prefix tables.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "MAX_IPV4": "repro.net.addr",
    "MAX_IPV6": "repro.net.addr6",
    "AsMapper": "repro.net.asmap",
    "AsMappingError": "repro.net.asmap",
    "PrefixTrie": "repro.net.prefixtrie",
    "int_to_ip": "repro.net.addr",
    "int_to_ip6": "repro.net.addr6",
    "ip6_in_prefix": "repro.net.addr6",
    "ip6_to_int": "repro.net.addr6",
    "ip_in_prefix": "repro.net.addr",
    "ip_to_int": "repro.net.addr",
    "is_valid_ipv4": "repro.net.addr",
    "is_valid_ipv6": "repro.net.addr6",
    "prefix6_netmask": "repro.net.addr6",
    "prefix_netmask": "repro.net.addr",
    "prefix_size": "repro.net.addr",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
