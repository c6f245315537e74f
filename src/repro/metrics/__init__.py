"""Quantitative observability for the simulated Xar-Trek deployment.

See :mod:`repro.metrics.core` for the data model (sim-clock counters,
gauges, histograms in a :class:`MetricsRegistry`) and
:mod:`repro.metrics.export` for the deterministic JSON/CSV exporters.
``docs/observability.md`` walks through the wired-in metrics and the
``python -m repro metrics`` CLI.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    ".core": (
        "DEFAULT_LATENCY_BUCKETS",
        "DEFAULT_PERCENTILES",
        "Counter",
        "FamilySpec",
        "Gauge",
        "Histogram",
        "MetricError",
        "MetricsRegistry",
        "family_table",
    ),
    ".export": ("flatten", "to_csv", "to_json"),
})

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_PERCENTILES",
    "FamilySpec",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "family_table",
    "flatten",
    "to_csv",
    "to_json",
]
