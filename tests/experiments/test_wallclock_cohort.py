"""The ``cohort_stress`` population: replay determinism and its shape.

``cohort_stress`` stands for the cohort vectorization: 10k clients
carried by a few dozen simulator events. Replaying seed 0 must give
identical lines and counters, and the run must have the shape the
scenario promises.
"""

from repro.core import build_system
from tests.experiments.contract import cohort_stress_specs


def _run_cohort_stress(seed):
    specs = cohort_stress_specs(seed)
    runtime = build_system(tuple(spec.app for spec in specs), seed=seed)
    return runtime.run_cohorts(specs, background=50)


class TestCohortStress:
    def test_quick_run_is_deterministic_and_cohort_shaped(self):
        first = _run_cohort_stress(0)
        second = _run_cohort_stress(0)
        assert first.lines() == second.lines()
        assert first.logical_events == second.logical_events
        assert first.sim_events == second.sim_events
        assert first.sim_seconds == second.sim_seconds
        assert first.clients == 10_000
        assert len(first.cohorts) >= 2
        assert first.path == "vectorized"
        # The decoupling the scenario guards: thousands of logical
        # client events carried by fewer simulator events than clients.
        assert first.logical_events >= first.clients
        assert first.sim_events < first.clients
        assert first.fault_fallbacks == 0
