"""Chaos harness end-to-end: graceful degradation under fault plans.

Small fleets keep these fast; the full-scale run is the behaviour
contract's ``chaos_stress`` scenario (``tests/experiments/contract.py``).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, default_plan, run_chaos
from repro.faults.harness import _record_lines, _run_workload

pytestmark = pytest.mark.metrics

CLIENTS, BACKGROUND = 20, 5


class TestRunChaos:
    def test_default_plan_degrades_gracefully(self):
        report = run_chaos(
            plan=default_plan(0), seed=0, clients=CLIENTS, background=BACKGROUND
        )
        assert report.ok, report.to_text()
        assert report.completion_rate == 1.0
        assert report.faults_injected > 0
        assert report.events > 0
        assert report.sim_seconds > 0.0
        # The report serializes for the CLI's --json mode.
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["plan_faults"] == default_plan(0).counts_by_kind()

    def test_zero_fault_plan_reproduces_fault_free_run(self):
        report = run_chaos(
            plan=FaultPlan.empty(), seed=3, clients=CLIENTS, background=BACKGROUND
        )
        assert report.ok
        assert report.faults_injected == 0
        assert report.retries == 0
        assert report.fallbacks == {}
        assert report.quarantines == 0
        # Record-by-record identity with a fresh fault-free run,
        # including start/end timestamps to 1 ns.
        _rt, records = _run_workload(3, CLIENTS, BACKGROUND, None, None)
        assert report.lines[1:] == _record_lines(records)

    def test_replay_is_deterministic(self):
        kwargs = dict(
            plan=default_plan(7), seed=7, clients=CLIENTS, background=BACKGROUND
        )
        first = run_chaos(**kwargs)
        second = run_chaos(**kwargs)
        assert first.lines == second.lines
        assert first.fallbacks == second.fallbacks
        assert first.retries == second.retries
        assert first.events == second.events

    def test_report_text_mentions_the_verdict(self):
        report = run_chaos(
            plan=FaultPlan.empty(), seed=0, clients=5, background=2
        )
        text = report.to_text()
        assert text.startswith("chaos OK")
        assert "100.0%" in text


class TestChaosProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan_seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_finite_plan_reaches_full_completion(self, plan_seed):
        """Every client finishes all calls under any seeded fault plan."""
        report = run_chaos(
            plan=default_plan(plan_seed), seed=1, clients=12, background=3
        )
        assert report.completion_rate == 1.0, report.to_text()
        assert not report.mismatches, report.to_text()
