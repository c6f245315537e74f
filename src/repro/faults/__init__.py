"""Fault injection and resilience (see docs/resilience.md).

Layout:

* :mod:`repro.faults.plan` — declarative, seeded, JSON-serializable
  fault plans (:class:`FaultPlan` / :class:`FaultSpec`);
* :mod:`repro.faults.injector` — arms a plan against a live
  deployment (:class:`FaultInjector`);
* :mod:`repro.faults.resilience` — retry budgets, circuit breakers,
  and fallback policy (:class:`ResiliencePolicy`);
* :mod:`repro.faults.harness` — the chaos harness
  (:func:`run_chaos`) behind ``repro chaos`` and the
  ``chaos_stress`` contract scenario;
* :mod:`repro.faults.fleet` — per-node fault plans for multi-node
  fleets (:class:`FleetFaultPlan`), one injector per targeted node.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    ".cohort": ("resolve_cohort_faults",),
    ".fleet": ("FleetFaultPlan", "fleet_fault_seeds"),
    ".harness": ("BrownoutCriteria", "ChaosReport", "default_plan", "run_chaos"),
    ".injector": ("FaultInjector",),
    ".plan": ("FAULT_KINDS", "FaultPlan", "FaultPlanError", "FaultSpec"),
    ".resilience": (
        "FALLBACK_REASONS",
        "SHED_REASONS",
        "BreakerState",
        "CircuitBreaker",
        "OverloadConfig",
        "OverloadGuard",
        "ResilienceConfig",
        "ResiliencePolicy",
    ),
})

__all__ = [
    "FAULT_KINDS",
    "FALLBACK_REASONS",
    "SHED_REASONS",
    "BreakerState",
    "BrownoutCriteria",
    "ChaosReport",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "FleetFaultPlan",
    "fleet_fault_seeds",
    "OverloadConfig",
    "OverloadGuard",
    "ResilienceConfig",
    "ResiliencePolicy",
    "default_plan",
    "resolve_cohort_faults",
    "run_chaos",
]
