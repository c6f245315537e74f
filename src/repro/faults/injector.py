"""Arming a :class:`~repro.faults.plan.FaultPlan` against a deployment.

The injector translates plan entries into concrete actions on the live
simulation objects: arming run/reconfig failure countdowns on the XRT
device and FPGA card, crashing and recovering the card, degrading a
link's bandwidth, and stopping/slowing the scheduler daemon. Every
strike is scheduled on the simulator's own event queue (``call_at``),
so a plan replays identically under a fixed seed — chaos runs are as
deterministic as fault-free ones.

Window kinds schedule their own restoration (recover, full bandwidth,
server restart) at ``spec.end_s``. Counter kinds are *armed* at
``at_s``; the failures themselves fire whenever the next matching
operations run.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.plan import FaultPlan, FaultPlanError, FaultSpec

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules one plan's faults against one runtime.

    One injector arms one plan exactly once (re-arming would double
    every fault); build a fresh injector per chaos run. ``fired``
    records the specs in strike order for reports and tests.
    """

    def __init__(self, runtime):
        self.runtime = runtime
        self.sim = runtime.platform.sim
        self.metrics = runtime.metrics
        self._m_injected = self.metrics.counter(
            "faults_injected_total",
            "faults armed or fired by the injector, by kind",
            labelnames=("kind",),
        )
        self.plan: Optional[FaultPlan] = None
        self.fired: list[FaultSpec] = []

    def arm(self, plan: FaultPlan, horizon_s: Optional[float] = None) -> None:
        """Schedule every spec in ``plan``; a no-op for the empty plan.

        ``horizon_s``, when given, is the scenario's end of time: a
        spec striking at or past it would arm silently and never fire,
        which is always a plan-authoring bug (the chaos harness passes
        its workload horizon here). ``None`` keeps the historical
        behaviour of trusting the plan.
        """
        if self.plan is not None:
            raise FaultPlanError(
                "this injector already armed a plan; use a fresh injector"
            )
        if horizon_s is not None:
            dead = [spec for spec in plan.specs if spec.at_s >= horizon_s]
            if dead:
                described = ", ".join(
                    f"{spec.kind} at t={spec.at_s}" for spec in dead
                )
                raise FaultPlanError(
                    f"{len(dead)} fault spec(s) lie entirely past the "
                    f"{horizon_s}s scenario horizon and would never fire: "
                    f"{described}"
                )
        self.plan = plan
        for spec in plan.specs:
            if spec.at_s < self.sim.now:
                raise FaultPlanError(
                    f"{spec.kind} at t={spec.at_s} is in the past "
                    f"(now={self.sim.now}); arm the plan before running"
                )
            self.sim.call_at(spec.at_s, self._fire, spec)

    # -- strike dispatch ---------------------------------------------------
    def _fire(self, spec: FaultSpec) -> None:
        handler = getattr(self, f"_fire_{spec.kind}")
        handler(spec)
        self.fired.append(spec)
        self._m_injected.labels(kind=spec.kind).inc(
            spec.count if spec.kind in ("kernel_fault", "reconfig_fault") else 1
        )

    def _fire_kernel_fault(self, spec: FaultSpec) -> None:
        self.runtime.xrt.inject_run_failures(spec.target, spec.count)

    def _fire_reconfig_fault(self, spec: FaultSpec) -> None:
        self.runtime.platform.fpga.inject_reconfig_failures(spec.count)

    def _fire_device_crash(self, spec: FaultSpec) -> None:
        fpga = self.runtime.platform.fpga
        fpga.crash()
        self.sim.call_at(spec.end_s, fpga.recover)

    def _fire_link_degrade(self, spec: FaultSpec) -> None:
        link = getattr(self.runtime.platform, spec.target)
        link.set_degradation(spec.factor)
        self.sim.call_at(spec.end_s, link.set_degradation, 1.0)

    def _fire_server_outage(self, spec: FaultSpec) -> None:
        server = self.runtime.server
        server.stop()
        self.sim.call_at(spec.end_s, server.start)

    def _fire_server_slow(self, spec: FaultSpec) -> None:
        server = self.runtime.server
        server.set_reply_delay_factor(spec.factor)
        self.sim.call_at(spec.end_s, server.set_reply_delay_factor, 1.0)
