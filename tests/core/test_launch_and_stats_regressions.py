"""Regression tests: delayed-launch failure propagation, the launch
delay rule and ServerStats wiring."""

import math

import pytest

from repro.core import SystemMode, build_system
from repro.core.application import ApplicationRun
from repro.core.server import ServerStats
from repro.metrics import MetricsRegistry
from repro.sim import SimulationError
from repro.types import Target


def _break_x86_run(monkeypatch):
    """Make the x86-hosted run raise mid-flight; the failure must reach
    the caller through the launch event, not as a mid-step crash."""

    def boom(self, *args):
        raise RuntimeError("injected run failure")

    monkeypatch.setattr(ApplicationRun, "_next_call", boom)


class TestDelayedLaunchFailurePropagation:
    def test_failure_propagates_through_done_event(self, monkeypatch):
        # Regression: launch(..., delay_s>0) once wrapped the inner
        # run.start() event without defusing it, so a failing run
        # re-raised out of the inner event's _process and crashed the
        # whole simulation instead of reaching the caller through the
        # returned event.
        _break_x86_run(monkeypatch)
        runtime = build_system(["digit.500"])
        failed = runtime.launch(
            "digit.500", mode=SystemMode.VANILLA_X86, delay_s=0.25
        )
        with pytest.raises(RuntimeError, match="injected run failure"):
            runtime.platform.sim.run_until_event(failed)
        # The failure arrived *via the returned event*, not as a crash
        # mid-step: the event carries the outcome and the simulation is
        # still usable afterwards.
        assert failed.processed and not failed.ok

    def test_sibling_run_survives_a_delayed_failure(self, monkeypatch):
        _break_x86_run(monkeypatch)
        runtime = build_system(["digit.500"])
        failed = runtime.launch(
            "digit.500", mode=SystemMode.VANILLA_X86, delay_s=0.25
        )
        # The ARM path does not go through the patched method; it must
        # complete even though a concurrent delayed launch fails.
        ok = runtime.launch("digit.500", mode=SystemMode.VANILLA_ARM, delay_s=0.1)
        with pytest.raises(RuntimeError, match="injected run failure"):
            runtime.platform.sim.run_until_event(failed)
        record = runtime.platform.sim.run_until_event(ok)
        assert record.finished
        assert record.app == "digit.500"


def test_a_negative_delay_is_refused():
    # A start time in the past is the caller's error, not "start now".
    runtime = build_system(["digit.500"])
    with pytest.raises(SimulationError, match="delay"):
        runtime.launch("digit.500", delay_s=-1.0)
    runtime.platform.sim.run()
    assert runtime.records == []


def test_an_infinite_delay_is_refused():
    # A run that starts at t=inf has a NaN elapsed time, and Algorithm 1
    # would be fed it.
    runtime = build_system(["digit.500"])
    with pytest.raises(SimulationError, match="delay"):
        runtime.launch("digit.500", delay_s=math.inf)
    runtime.platform.sim.run()
    assert runtime.records == []


class TestServerStatsRegistry:
    def test_detached_registry_is_rejected(self):
        # Regression: ServerStats() used to silently build its own
        # MetricsRegistry, so every counter vanished from exports.
        with pytest.raises(TypeError):
            ServerStats()
        with pytest.raises(TypeError, match="explicit MetricsRegistry"):
            ServerStats(None)

    def test_stats_and_registry_share_counters(self):
        metrics = MetricsRegistry()
        stats = ServerStats(metrics)
        stats.record_decisions({Target.X86: 1}, {"x86": 1})
        assert stats.requests == 1
        assert metrics.get("scheduler_requests_total").value == 1
        metrics.get("scheduler_requests_total").inc()
        assert stats.requests == 2

    def test_scheduler_counts_reach_the_platform_registry(self):
        runtime = build_system(["cg.A"])
        reply = runtime.server.request("cg.A")
        runtime.platform.sim.run_until_event(reply)
        counter = runtime.metrics.get("scheduler_requests_total")
        assert counter is not None
        assert counter.value == 1
        assert runtime.server.stats.requests == 1
