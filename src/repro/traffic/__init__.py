"""Open-loop traffic: trace generation and SLO scoring.

See :mod:`repro.traffic.generator` for the seeded trace generator
(diurnal cycles, flash-crowd spikes, heavy-tailed session lengths)
and :mod:`repro.traffic.slo` for the per-app SLO tracker. Traces plug
into the cohort machinery (:meth:`Trace.to_cohorts`) and into the
chaos harness's trace mode (:func:`repro.faults.harness.run_chaos`).
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    ".generator": (
        "TRACE_SCHEMA",
        "SpikeWindow",
        "Trace",
        "TraceEntry",
        "TrafficError",
        "TrafficSpec",
        "generate_trace",
    ),
    ".slo": ("SLOReport", "SLOTarget", "SLOTracker"),
})

__all__ = [
    "SLOReport",
    "SLOTarget",
    "SLOTracker",
    "SpikeWindow",
    "TRACE_SCHEMA",
    "Trace",
    "TraceEntry",
    "TrafficError",
    "TrafficSpec",
    "generate_trace",
]
