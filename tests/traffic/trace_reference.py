"""The per-entry trace generator, kept as the column generator's oracle.

This is the sampling loop :func:`repro.traffic.generate_trace` ran
when a :class:`~repro.traffic.Trace` was a tuple of
:class:`~repro.traffic.TraceEntry` objects: one validated entry per
accepted arrival. The library now appends each arrival straight to the
trace's columns; ``tests/traffic/test_trace_columns.py`` holds the two
draw for draw equal.
"""

from __future__ import annotations

import numpy as np

from repro.traffic import Trace, TraceEntry, TrafficSpec


def reference_trace(spec: TrafficSpec) -> Trace:
    """Sample ``spec`` one :class:`TraceEntry` per accepted arrival."""
    rng = np.random.default_rng(spec.seed)
    peak = spec.peak_rate_per_s
    entries = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= spec.horizon_s:
            break
        if float(rng.random()) * peak > spec.rate_at(t):
            continue
        app = spec.apps[int(rng.integers(len(spec.apps)))]
        calls = 1 + min(spec.calls_max - 1, int(rng.pareto(spec.calls_alpha)))
        entries.append(
            TraceEntry(
                app=app,
                arrival_s=t,
                calls=calls,
                deadline_s=spec.deadline_s,
            )
        )
    return Trace(
        entries=tuple(entries), seed=spec.seed, horizon_s=spec.horizon_s
    )
