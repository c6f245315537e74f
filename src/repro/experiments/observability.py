"""Metrics-instrumented experiment runs (the observability harness).

The Figures 3-8 experiments report *averages*; this module runs the
same scenarios and keeps the full metrics snapshot, so a single run can
answer the distributional questions the scheduler work needs — per-
target invocation-latency p50/p95/p99, the scheduler round-trip
histogram, total reconfiguration time and how much of it hid behind CPU
execution. Snapshots are deterministic under the seed: two runs of
:func:`high_load_metrics` with the same arguments export byte-identical
JSON/CSV, which is what regression-gating a perf PR needs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core import SystemMode, build_system
from repro.experiments.harness import run_application_set, sample_application_set
from repro.experiments.report import ExperimentResult, metrics_section
from repro.metrics import to_csv, to_json
from repro.workloads import PAPER_BENCHMARKS

__all__ = [
    "MetricsRun",
    "high_load_metrics",
    "metrics_experiment",
]


class MetricsRun:
    """One instrumented run: the outcome plus its exports."""

    def __init__(self, outcome, name: str):
        self.outcome = outcome
        self.name = name

    @property
    def snapshot(self) -> dict:
        return self.outcome.metrics

    def report(self) -> ExperimentResult:
        result = metrics_section(self.snapshot, name=self.name)
        result.notes = (
            f"apps={','.join(self.outcome.apps)}; "
            f"mode={self.outcome.mode.value}; "
            f"set average {self.outcome.average_s * 1e3:.1f} ms"
        )
        return result

    def to_json(self) -> str:
        return to_json(self.snapshot)

    def to_csv(self) -> str:
        return to_csv(self.snapshot)


def metrics_experiment(
    apps: Sequence[str],
    mode: SystemMode = SystemMode.XAR_TREK,
    background: int = 0,
    seed: int = 0,
    name: Optional[str] = None,
) -> MetricsRun:
    """Run ``apps`` concurrently and keep the full metrics snapshot."""
    runtime = build_system(sorted(set(apps)), seed=seed)
    outcome = run_application_set(
        apps, mode, background=background, seed=seed, runtime=runtime
    )
    outcome.metrics = runtime.metrics.snapshot()
    label = name or (
        f"Metrics: {len(apps)} apps + {background} background ({mode.value})"
    )
    return MetricsRun(outcome, label)


def high_load_metrics(
    set_size: int = 10,
    total_processes: int = 120,
    mode: SystemMode = SystemMode.XAR_TREK,
    seed: int = 0,
    pool: Sequence[str] = PAPER_BENCHMARKS,
) -> MetricsRun:
    """A Figure-5-style high-load run, instrumented.

    Samples ``set_size`` applications exactly like Figure 5's randomized
    sets and tops the process count up to ``total_processes`` with MG-B
    background — more processes than the testbed's 102 cores.
    """
    rng = np.random.default_rng(seed)
    apps = sample_application_set(rng, set_size, pool)
    background = max(0, total_processes - set_size)
    return metrics_experiment(
        apps,
        mode=mode,
        background=background,
        seed=seed,
        name=(
            f"Metrics: Figure-5-style high load "
            f"({set_size} apps, {total_processes} processes, {mode.value})"
        ),
    )
