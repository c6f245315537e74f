"""Fault injection against live deployments: the system degrades
gracefully, never wedges, and recovers when faults clear.

Covers the raw device/XRT fault hooks (validation, additive arming),
the application-level retry/fallback/quarantine behaviour, the
scheduler daemon's outage/slow-reply handling, device crash windows,
and link degradation — the mechanisms the chaos harness composes.
"""

import pytest

from repro.core import SystemMode, build_system
from repro.core.server import SchedulerUnavailable
from repro.faults import FaultInjector, FaultPlan, FaultPlanError, FaultSpec, ResilienceConfig
from repro.hardware import ALVEO_U50, FPGADevice
from repro.sim import SimulationError, Simulator
from repro.types import Target
from repro.xrt import XRTError

KERNEL = "KNL_HW_DR200"  # digit.2000's hardware kernel


class FakeImage:
    name = "img"
    size_bytes = 1_000_000
    kernel_names = ("k1",)


class TestDeviceFaults:
    def test_failed_reconfiguration_leaves_device_clean(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        device.inject_reconfig_failures(1)
        done = device.configure(FakeImage())
        done.defused = True
        sim.run()
        assert not done.ok
        assert device.configured_image is None
        assert not device.reconfiguring
        assert device.failed_reconfigurations == 1

    def test_failed_reconfiguration_keeps_old_image_resident(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        sim.run_until_event(device.configure(FakeImage()))
        assert device.has_kernel("k1")

        class OtherImage:
            name = "other"
            size_bytes = 1_000_000
            kernel_names = ("k2",)

        device.inject_reconfig_failures(1)
        done = device.configure(OtherImage())
        done.defused = True
        sim.run()
        # Rollback: the pre-failure image still serves its kernels.
        assert device.has_kernel("k1")
        assert not device.has_kernel("k2")

    def test_retry_after_failure_succeeds(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        device.inject_reconfig_failures(1)
        first = device.configure(FakeImage())
        first.defused = True
        sim.run()
        second = device.configure(FakeImage())
        sim.run_until_event(second)
        assert device.has_kernel("k1")

    def test_negative_injection_rejected(self):
        device = FPGADevice(Simulator(), ALVEO_U50)
        with pytest.raises(SimulationError):
            device.inject_reconfig_failures(-1)

    def test_non_int_injection_rejected_before_mutation(self):
        device = FPGADevice(Simulator(), ALVEO_U50)
        with pytest.raises(SimulationError):
            device.inject_reconfig_failures(1.5)
        with pytest.raises(SimulationError):
            device.inject_reconfig_failures(True)
        assert device.pending_reconfig_failures == 0

    def test_repeated_arming_is_additive(self):
        device = FPGADevice(Simulator(), ALVEO_U50)
        device.inject_reconfig_failures(2)
        device.inject_reconfig_failures(3)
        assert device.pending_reconfig_failures == 5


class TestDeviceCrash:
    def test_crash_loses_image_and_recover_comes_back_unconfigured(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        sim.run_until_event(device.configure(FakeImage()))
        device.crash()
        assert device.crashed
        assert device.available_kernels == ()
        assert device.configured_image is None
        device.recover()
        assert not device.crashed
        sim.run_until_event(device.configure(FakeImage()))
        assert device.has_kernel("k1")

    def test_crash_is_idempotent(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        device.crash()
        device.crash()
        assert device.crash_count == 1

    def test_crash_fails_inflight_reconfiguration(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        done = device.configure(FakeImage())
        done.defused = True
        device.crash()
        assert not done.ok
        assert not device.reconfiguring
        assert device.failed_reconfigurations == 1

    def test_configure_while_crashed_fails_async(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        device.crash()
        done = device.configure(FakeImage())
        done.defused = True
        sim.run()
        assert not done.ok

    def test_crash_fails_inflight_kernel_runs_via_xrt(self):
        runtime = build_system(["digit.2000"])
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        done = runtime.xrt.run_kernel(KERNEL, 1024, 64, duration=1.0)
        done.defused = True
        runtime.platform.sim.defer(0.1, runtime.platform.fpga.crash)
        runtime.platform.sim.run()
        assert not done.ok
        assert isinstance(done.value, XRTError)
        assert runtime.xrt.active_runs == 0  # no leaked occupancy

    def test_crash_fails_and_drops_queued_invocations(self):
        runtime = build_system(["digit.2000"])
        sim, fpga = runtime.platform.sim, runtime.platform.fpga
        sim.run_until_event(runtime.preload_fpga())
        runs = [runtime.xrt.run_kernel(KERNEL, 0, 0, duration=1.0) for _ in range(4)]
        for done in runs:
            done.defused = True
        unit = fpga._compute_units[KERNEL]
        assert unit.capacity == 1
        assert fpga.queue_length(KERNEL) == 3  # three wait behind the running one
        sim.defer(0.1, fpga.crash)
        sim.run()
        assert all(not done.ok for done in runs)
        assert all(isinstance(done.value, XRTError) for done in runs)
        assert runtime.xrt.active_runs == 0
        # The dropped unit keeps no continuation of a failed invocation.
        assert len(unit.waiting) == 0


class TestXRTRunFaults:
    def test_injected_run_fault_fails_event(self):
        runtime = build_system(["digit.2000"])
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        runtime.xrt.inject_run_failures(KERNEL, 1)
        done = runtime.xrt.run_kernel(KERNEL, 1000, 100, duration=1.0)
        done.defused = True
        runtime.platform.run()
        assert not done.ok
        assert isinstance(done.value, XRTError)
        assert runtime.xrt.failed_runs == 1
        assert runtime.xrt.active_runs == 0  # no leaked occupancy

    def test_next_run_succeeds(self):
        runtime = build_system(["digit.2000"])
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        runtime.xrt.inject_run_failures(KERNEL, 1)
        bad = runtime.xrt.run_kernel(KERNEL, 0, 0, duration=0.5)
        bad.defused = True
        runtime.platform.run()
        good = runtime.xrt.run_kernel(KERNEL, 0, 0, duration=0.5)
        run = runtime.platform.sim.run_until_event(good)
        assert run.kernel_name == KERNEL

    def test_bad_arguments_rejected_before_mutation(self):
        runtime = build_system(["digit.2000"])
        with pytest.raises(XRTError):
            runtime.xrt.inject_run_failures("", 1)
        with pytest.raises(XRTError):
            runtime.xrt.inject_run_failures(KERNEL, 1.5)
        with pytest.raises(XRTError):
            runtime.xrt.inject_run_failures(KERNEL, True)
        with pytest.raises(XRTError):
            runtime.xrt.inject_run_failures(KERNEL, -1)
        assert runtime.xrt.pending_run_failures(KERNEL) == 0

    def test_repeated_arming_is_additive(self):
        runtime = build_system(["digit.2000"])
        runtime.xrt.inject_run_failures(KERNEL, 2)
        runtime.xrt.inject_run_failures(KERNEL, 3)
        assert runtime.xrt.pending_run_failures(KERNEL) == 5


class TestApplicationRetries:
    def test_single_fault_is_retried_and_served_on_fpga(self):
        runtime = build_system(["digit.2000"])
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        runtime.xrt.inject_run_failures(KERNEL, 1)
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK, functional=True)
        )
        assert record.retries == 1
        assert record.fpga_fallbacks == 0
        assert record.targets == [Target.FPGA]
        assert record.verified is True  # results unaffected by the fault

    def test_retry_budget_exhaustion_falls_back_to_x86(self):
        runtime = build_system(["digit.2000"])
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        limit = runtime.resilience.config.kernel_retry_limit
        runtime.xrt.inject_run_failures(KERNEL, limit + 1)
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK, functional=True)
        )
        assert record.retries == limit
        assert record.fpga_fallbacks == 1
        assert record.targets == [Target.X86]
        assert record.verified is True
        fallbacks = runtime.resilience.summary()["fallbacks"]
        assert fallbacks.get("kernel_fault") == 1

    def test_zero_retry_limit_restores_immediate_fallback(self):
        runtime = build_system(
            ["digit.2000"],
            resilience=ResilienceConfig(kernel_retry_limit=0),
        )
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        runtime.xrt.inject_run_failures(KERNEL, 1)
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        assert record.retries == 0
        assert record.fpga_fallbacks == 1
        # The fallback cost: half an aborted kernel + the x86 function.
        assert record.elapsed_s > 3.5

    def test_repeated_faults_never_wedge_the_run(self):
        # A breaker threshold above the fault count isolates the retry
        # arithmetic from quarantine (tested separately below).
        runtime = build_system(
            ["digit.2000"],
            resilience=ResilienceConfig(breaker_failure_threshold=100),
        )
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        runtime.xrt.inject_run_failures(KERNEL, 5)
        records = [
            runtime.platform.sim.run_until_event(
                runtime.launch("digit.2000", seed=i, mode=SystemMode.XAR_TREK)
            )
            for i in range(6)
        ]
        assert all(r.finished for r in records)
        # Run 1 burns faults 1-3 (two retries, then fallback); run 2
        # burns faults 4-5 and succeeds on its second retry.
        assert sum(r.fpga_fallbacks for r in records) == 1
        assert sum(r.retries for r in records) == 4
        # Once the injected faults are exhausted, the FPGA serves again.
        assert records[-1].targets == [Target.FPGA]

    def test_scheduler_survives_reconfig_failure_and_retries(self):
        runtime = build_system(["digit.2000"])
        runtime.platform.fpga.inject_reconfig_failures(1)
        load = runtime.launch_background(30, work_s=60.0)
        # First run: reconfig kicked off (and will fail); app lands on
        # a CPU target while the server's background retry reprograms.
        first = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK, delay_s=0.01)
        )
        assert first.targets[0] in (Target.ARM, Target.X86)
        assert runtime.server.stats.reconfigurations_failed == 1
        second = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        third = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        load.stop()
        assert runtime.server.stats.reconfigurations_started >= 2
        assert Target.FPGA in (*second.targets, *third.targets)


class TestQuarantine:
    def test_kernel_breaker_steers_scheduler_then_recovers(self):
        # The cooldown must outlast the x86 fallback runs (seconds of
        # sim time each) so the open window is observable.
        cooldown_s = 50.0
        config = ResilienceConfig(
            kernel_retry_limit=0,
            breaker_failure_threshold=2,
            breaker_cooldown_s=cooldown_s,
        )
        runtime = build_system(["digit.2000"], resilience=config)
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        runtime.xrt.inject_run_failures(KERNEL, 2)
        key = runtime.resilience.kernel_key(KERNEL)

        first = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        assert first.fpga_fallbacks == 1
        second = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        assert second.fpga_fallbacks == 1
        # Two consecutive failures: quarantined.
        assert runtime.resilience.breaker.state_of(key) == "open"
        assert runtime.resilience.summary()["quarantines"] == 1

        # While open, the scheduler steers to x86 without touching the
        # card (no new fpga_fallbacks — the decision itself avoids it).
        third = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        assert third.targets == [Target.X86]
        assert third.fpga_fallbacks == 0

        # After the cooldown the half-open trial runs on the FPGA and,
        # with the faults exhausted, closes the breaker.
        fourth = runtime.platform.sim.run_until_event(
            runtime.launch(
                "digit.2000", mode=SystemMode.XAR_TREK, delay_s=cooldown_s
            )
        )
        assert fourth.targets == [Target.FPGA]
        assert runtime.resilience.breaker.state_of(key) == "closed"

    def test_breaker_gauge_exported_per_target(self):
        config = ResilienceConfig(kernel_retry_limit=0, breaker_failure_threshold=1)
        runtime = build_system(["digit.2000"], resilience=config)
        assert runtime.metrics.get("circuit_breaker_state") is None
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        runtime.xrt.inject_run_failures(KERNEL, 1)
        runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        family = runtime.metrics.get("circuit_breaker_state")
        assert family is not None
        key = runtime.resilience.kernel_key(KERNEL)
        assert family.labels(target=key).value == 1.0


class TestSchedulerOutage:
    def test_request_when_never_started_raises(self):
        runtime = build_system(["digit.500"])
        runtime.server.stop()
        with pytest.raises(SchedulerUnavailable):
            runtime.server.request("digit.500")

    def test_stop_fails_queued_requests(self):
        runtime = build_system(["digit.500"])
        reply = runtime.server.request("digit.500")
        reply.defused = True
        runtime.server.stop()
        assert reply.triggered and not reply.ok
        assert isinstance(reply.value, SchedulerUnavailable)

    def test_clients_fall_back_locally_during_outage(self):
        runtime = build_system(["digit.2000"])
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        runtime.server.stop()
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        assert record.finished
        assert record.targets == [Target.X86]
        fallbacks = runtime.resilience.summary()["fallbacks"]
        assert fallbacks.get("scheduler_down") == 1

    def test_restart_serves_requests_again(self):
        runtime = build_system(["digit.2000"])
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        runtime.server.stop()
        runtime.server.start()
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        assert record.targets == [Target.FPGA]

    def test_slow_server_times_out_to_local_fallback(self):
        runtime = build_system(["digit.2000"])
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        timeout_s = runtime.resilience.config.request_timeout_s
        # Make one round trip far exceed the client timeout.
        factor = (timeout_s / runtime.server.socket_latency_s) * 10
        runtime.server.set_reply_delay_factor(factor)
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        assert record.finished
        assert record.targets == [Target.X86]
        fallbacks = runtime.resilience.summary()["fallbacks"]
        assert fallbacks.get("scheduler_timeout") == 1
        runtime.server.set_reply_delay_factor(1.0)
        healthy = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        assert healthy.targets == [Target.FPGA]

    def test_bad_delay_factor_rejected(self):
        runtime = build_system(["digit.500"])
        with pytest.raises(ValueError):
            runtime.server.set_reply_delay_factor(0.0)


class TestLinkDegradation:
    def test_degraded_link_slows_transfers_then_recovers(self):
        runtime = build_system(["digit.2000"])
        sim = runtime.platform.sim
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        pcie = runtime.platform.pcie

        start = sim.now
        sim.run_until_event(pcie.transfer(32e9))  # 1 s at full speed
        healthy = sim.now - start

        pcie.set_degradation(0.25)
        start = sim.now
        sim.run_until_event(pcie.transfer(32e9))
        degraded = sim.now - start
        # 4x the bandwidth term; the fixed wire latency is not scaled.
        assert degraded == pytest.approx(healthy * 4, rel=1e-4)

        pcie.set_degradation(1.0)
        start = sim.now
        sim.run_until_event(pcie.transfer(32e9))
        assert sim.now - start == pytest.approx(healthy, rel=1e-6)

    def test_bad_factor_rejected(self):
        runtime = build_system(["digit.500"])
        with pytest.raises(SimulationError):
            runtime.platform.pcie.set_degradation(0.0)
        with pytest.raises(SimulationError):
            runtime.platform.pcie.set_degradation(1.5)


class TestFaultInjector:
    def test_injector_arms_once(self):
        runtime = build_system(["digit.500"])
        injector = FaultInjector(runtime)
        plan = FaultPlan(
            specs=(FaultSpec(at_s=1.0, kind="server_outage", duration_s=0.5),)
        )
        injector.arm(plan)
        with pytest.raises(FaultPlanError, match="already armed"):
            injector.arm(plan)

    def test_window_faults_fire_and_restore(self):
        runtime = build_system(["digit.2000"])
        injector = FaultInjector(runtime)
        injector.arm(
            FaultPlan(
                specs=(
                    FaultSpec(at_s=0.5, kind="device_crash", duration_s=1.0),
                    FaultSpec(
                        at_s=0.5, kind="link_degrade", target="ethernet",
                        duration_s=1.0, factor=0.5,
                    ),
                    FaultSpec(at_s=0.5, kind="server_slow", duration_s=1.0, factor=4.0),
                )
            )
        )
        sim = runtime.platform.sim
        sim.run(until=1.0)
        assert runtime.platform.fpga.crashed
        assert runtime.platform.ethernet.degradation == 0.5
        assert runtime.server._reply_delay_factor == 4.0
        sim.run(until=2.0)
        assert not runtime.platform.fpga.crashed
        assert runtime.platform.ethernet.degradation == 1.0
        assert runtime.server._reply_delay_factor == 1.0
        assert len(injector.fired) == 3
        assert runtime.metrics.get("faults_injected_total").value == 3

    def test_count_faults_arm_countdowns(self):
        runtime = build_system(["digit.2000"])
        injector = FaultInjector(runtime)
        injector.arm(
            FaultPlan(
                specs=(
                    FaultSpec(at_s=0.1, kind="kernel_fault", target=KERNEL, count=2),
                    FaultSpec(at_s=0.1, kind="reconfig_fault", count=1),
                )
            )
        )
        runtime.platform.sim.run(until=0.2)
        assert runtime.xrt.pending_run_failures(KERNEL) == 2
        assert runtime.platform.fpga.pending_reconfig_failures == 1
        assert runtime.metrics.get("faults_injected_total").value == 3


class TestInjectorHorizon:
    def _plan(self, at_s):
        return FaultPlan(
            specs=(FaultSpec(at_s=at_s, kind="server_outage", duration_s=0.5),)
        )

    def test_spec_past_horizon_rejected(self):
        injector = FaultInjector(build_system(["digit.500"]))
        with pytest.raises(FaultPlanError, match="past the"):
            injector.arm(self._plan(at_s=10.0), horizon_s=5.0)

    def test_spec_at_exact_horizon_rejected(self):
        # A fault at t == horizon never fires: arming it is a plan bug.
        injector = FaultInjector(build_system(["digit.500"]))
        with pytest.raises(FaultPlanError, match="past the"):
            injector.arm(self._plan(at_s=5.0), horizon_s=5.0)

    def test_error_names_the_dead_specs(self):
        injector = FaultInjector(build_system(["digit.500"]))
        plan = FaultPlan(
            specs=(
                FaultSpec(at_s=1.0, kind="device_crash", duration_s=0.5),
                FaultSpec(at_s=9.0, kind="server_outage", duration_s=0.5),
                FaultSpec(at_s=11.0, kind="server_slow", duration_s=0.5, factor=2.0),
            )
        )
        with pytest.raises(FaultPlanError) as excinfo:
            injector.arm(plan, horizon_s=8.0)
        message = str(excinfo.value)
        assert "server_outage at t=9.0" in message
        assert "server_slow at t=11.0" in message
        assert "device_crash" not in message

    def test_rejection_leaves_the_injector_reusable(self):
        injector = FaultInjector(build_system(["digit.500"]))
        with pytest.raises(FaultPlanError):
            injector.arm(self._plan(at_s=10.0), horizon_s=5.0)
        injector.arm(self._plan(at_s=1.0), horizon_s=5.0)
        assert injector.plan is not None

    def test_in_horizon_plan_armed(self):
        injector = FaultInjector(build_system(["digit.500"]))
        injector.arm(self._plan(at_s=1.0), horizon_s=5.0)
        assert injector.plan is not None

    def test_no_horizon_trusts_the_plan(self):
        injector = FaultInjector(build_system(["digit.500"]))
        injector.arm(self._plan(at_s=1e9))
        assert injector.plan is not None


class TestDisabledTimeout:
    """request_timeout_s=None: the client has no timeout budget — a
    slow server blocks the call (no local fallback) and a reply that
    fails outright fails the run, instead of degrading silently."""

    def _runtime(self):
        return build_system(
            ["digit.2000"],
            resilience=ResilienceConfig(request_timeout_s=None),
        )

    def test_slow_server_blocks_instead_of_falling_back(self):
        runtime = self._runtime()
        sim = runtime.platform.sim
        sim.run_until_event(runtime.preload_fpga())
        runtime.server.set_reply_delay_factor(1e6)
        done = runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        done.defused = True
        # Run far past any default timeout budget: the client is still
        # parked on the reply, and no timeout fallback was counted.
        sim.run(until=sim.now + 10.0)
        assert not done.triggered
        fallbacks = runtime.resilience.summary()["fallbacks"]
        assert "scheduler_timeout" not in fallbacks
        # The (slow) reply eventually arrives and the run completes
        # with the server's decision — blocked, not broken.
        runtime.server.set_reply_delay_factor(1.0)
        record = sim.run_until_event(done)
        assert record.finished
        assert record.targets[0] == Target.FPGA

    def test_never_started_server_still_fails_fast(self):
        # stop() makes request() raise synchronously; that path is
        # timeout-independent and must keep working when the timeout
        # is disabled (the client cannot wait forever on a daemon that
        # can never reply).
        runtime = self._runtime()
        sim = runtime.platform.sim
        sim.run_until_event(runtime.preload_fpga())
        runtime.server.stop()
        record = sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        assert record.finished
        assert record.targets == [Target.X86]
        fallbacks = runtime.resilience.summary()["fallbacks"]
        assert fallbacks.get("scheduler_down") == 1

    def test_restart_drains_a_request_handed_to_the_stale_loop(self):
        # Generation guard: a request handed to the parked serve loop
        # right before a stop()/start() cycle is re-queued *behind* the
        # stale loop's sentinel and served by the restarted loop — the
        # client (which cannot time out) must still get its reply.
        runtime = self._runtime()
        sim = runtime.platform.sim
        sim.run_until_event(runtime.preload_fpga())
        # The store hands the item straight to the parked getter; the
        # stale loop has it in hand when the daemon cycles.
        reply = runtime.server.request("digit.2000")
        runtime.server.stop()
        runtime.server.start()
        target = sim.run_until_event(reply)
        assert target == Target.FPGA

    def test_restart_mid_run_completes_without_timeout(self):
        runtime = self._runtime()
        sim = runtime.platform.sim
        sim.run_until_event(runtime.preload_fpga())
        done = runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        runtime.server.stop()
        runtime.server.start()
        record = sim.run_until_event(done)
        assert record.finished
        assert record.targets == [Target.FPGA]
        fallbacks = runtime.resilience.summary()["fallbacks"]
        assert "scheduler_timeout" not in fallbacks
