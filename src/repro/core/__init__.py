"""Xar-Trek's core: scheduling policy, dynamic thresholds, and run-time.

The paper's primary contribution: Algorithm 1 (:mod:`client`),
Algorithm 2 (:mod:`policy`), the scheduler server (:mod:`server`), the
instrumented-application model (:mod:`application`), and the deployed
runtime facade (:mod:`runtime`).
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    ".application": ("ApplicationRun", "RunRecord", "SystemMode"),
    ".client": ("ThresholdUpdater", "UpdateOutcome"),
    ".cohort": (
        "ArrivalLaw",
        "CohortError",
        "CohortPopulation",
        "CohortResult",
        "CohortRunResult",
        "CohortSpec",
    ),
    ".policies": (
        "PolicyFn",
        "cost_model_policy",
        "energy_aware_policy",
        "marginal_run_energy",
    ),
    ".policy": ("Decision", "decide"),
    ".runtime": ("BackgroundLoad", "XarTrekRuntime", "build_system", "spec_for"),
    ".server": ("SchedulerServer", "ServerStats"),
})

__all__ = [
    "ApplicationRun",
    "ArrivalLaw",
    "BackgroundLoad",
    "CohortError",
    "CohortPopulation",
    "CohortResult",
    "CohortRunResult",
    "CohortSpec",
    "Decision",
    "PolicyFn",
    "RunRecord",
    "cost_model_policy",
    "energy_aware_policy",
    "marginal_run_energy",
    "SchedulerServer",
    "ServerStats",
    "SystemMode",
    "ThresholdUpdater",
    "UpdateOutcome",
    "XarTrekRuntime",
    "build_system",
    "decide",
    "spec_for",
]
