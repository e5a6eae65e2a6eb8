"""Reporting layer: IHR-style summaries and text figure rendering."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AsCondition": "repro.reporting.ihr",
    "BIN_EVENT_FIELDS": "repro.reporting.export",
    "DELAY_ALARM_FIELDS": "repro.reporting.export",
    "FORWARDING_ALARM_FIELDS": "repro.reporting.export",
    "InternetHealthReport": "repro.reporting.ihr",
    "LinkHealth": "repro.reporting.ihr",
    "SCHEMA_VERSION": "repro.reporting.export",
    "bin_event_record": "repro.reporting.export",
    "bin_result_from_record": "repro.reporting.export",
    "delay_alarm_from_record": "repro.reporting.export",
    "delay_alarm_record": "repro.reporting.export",
    "dumps_canonical": "repro.reporting.jsonio",
    "dumps_canonical_stdlib": "repro.reporting.jsonio",
    "format_table": "repro.reporting.render",
    "forwarding_alarm_from_record": "repro.reporting.export",
    "forwarding_alarm_record": "repro.reporting.export",
    "hours_axis": "repro.reporting.render",
    "record_json": "repro.reporting.export",
    "render_cdf": "repro.reporting.render",
    "render_qq": "repro.reporting.render",
    "render_series": "repro.reporting.render",
    "sparkline": "repro.reporting.render",
    "write_alarm_graph": "repro.reporting.export",
    "write_distribution": "repro.reporting.export",
    "write_magnitude_series": "repro.reporting.export",
    "write_tracked_link": "repro.reporting.export",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
