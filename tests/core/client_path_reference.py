"""The generator client lifecycle: the reference for ``ApplicationRun``.

``ApplicationRun`` drives a client run as a precompiled callback chain.
The chain was hand-compiled from the generator process below, which is
kept here unchanged as the executable specification of one client's
lifecycle: host work, per-call target choice (Algorithm 2) and
dispatch, FPGA retry and fallback, Popcorn migration to ARM, and
Algorithm 1 at exit. ``GeneratorRun`` reuses the chain's shared
helpers (metrics, deadlines, resilience, migration state), so the two
differ only in how control flows between yield points.

Select it for a whole runtime with::

    monkeypatch.setattr(repro.core.runtime, "ApplicationRun", GeneratorRun)

``XarTrekRuntime.launch`` looks the name up on every call, so fleet and
chaos runs pick up the reference too.
"""

from repro.core.application import ApplicationRun, SystemMode
from repro.core.server import RequestShed, SchedulerUnavailable
from repro.sim import Event, SimulationError
from repro.types import Target
from repro.xrt import XRTError
from tests.core.process_reference import any_of, spawn, timeout


class GeneratorRun(ApplicationRun):
    """An ``ApplicationRun`` whose lifecycle is one generator process."""

    def start(self, delay_s: float = 0.0) -> Event:
        return spawn(self.runtime.platform.sim, self._body(), delay_s)

    # -- the instrumented main() -------------------------------------------------
    def _body(self):
        platform = self.runtime.platform
        profile = self.profile
        self.record.start_s = platform.now

        if self.functional:
            self._run_functional()

        # Inserted call: scheduler registration + early FPGA configure.
        if (
            self.mode is SystemMode.XAR_TREK
            and self.runtime.server is not None
            and getattr(self.runtime, "early_configure", True)
        ):
            self.runtime.server.preconfigure(self.app.name)

        if self.mode is SystemMode.VANILLA_ARM:
            yield from self._run_all_on_arm()
        else:
            yield from self._run_with_x86_host()

        self.record.end_s = platform.now
        if (
            self.mode is SystemMode.XAR_TREK
            and self.deadline_s is None
            and self.runtime.updater is not None
        ):
            # Inserted call: Algorithm 1, "immediately before the
            # application terminates".
            entry = self.runtime.server.thresholds.entry(self.app.name)
            self.runtime.updater.update(
                entry,
                self.record.dominant_target(),
                self.record.elapsed_s,
                platform.x86_load,
            )
        self.runtime._finish(self.record)
        return self.record

    def _run_all_on_arm(self):
        """Vanilla Linux/ARM: the whole process on one ARM core."""
        arm = self.runtime.platform.arm.cpu
        slowdown = self.profile.arm_core_slowdown
        yield arm.execute(self.profile.host_work_s * slowdown)
        for _call in range(self.profile.calls_per_run):
            if self._deadline_passed():
                self._mark_deadline_expired()
                break
            call_cost = (
                self.profile.per_call_host_s + self.profile.func_x86_s
            ) * slowdown
            call_started = self.runtime.platform.now
            yield arm.execute(call_cost)
            self.record.targets.append(Target.ARM)
            self._observe_call(Target.ARM, call_started)
            self.record.calls_completed += 1

    def _run_with_x86_host(self):
        """x86-hosted modes: host work, then the per-call dispatch loop."""
        x86 = self.runtime.platform.x86.cpu
        profile = self.profile
        yield x86.execute(profile.host_work_s)
        for _call in range(profile.calls_per_run):
            if self._deadline_passed():
                self._mark_deadline_expired()
                break
            if profile.per_call_host_s > 0:
                yield x86.execute(profile.per_call_host_s)
            call_started = self.runtime.platform.now
            target = yield from self._choose_target()
            if target is None:
                # Admission control shed this call: the session ends
                # here, explicitly accounted via record.shed_reason.
                break
            yield from self._execute_function(target)
            # The serving target may differ from the decision (FPGA
            # fallback); the record's tail is what actually ran.
            self._observe_call(self.record.targets[-1], call_started)
            self.record.calls_completed += 1

    def _choose_target(self):
        if self.mode is SystemMode.VANILLA_X86:
            return Target.X86
        if self.mode is SystemMode.ALWAYS_FPGA:
            return Target.FPGA if self.profile.fpga_capable else Target.X86
        assert self.mode is SystemMode.XAR_TREK
        sim = self.runtime.platform.sim
        resilience = self._resilience
        timeout_s = (
            resilience.config.request_timeout_s if resilience is not None else None
        )
        try:
            reply = self.runtime.server.request(
                self.app.name, deadline_at=self._deadline_at()
            )
        except RequestShed as exc:
            # Admission control refused the work. No local fallback —
            # shedding means *not* doing the work; the caller ends the
            # session with the reason on the record.
            self.record.shed_reason = exc.reason
            return None
        except SchedulerUnavailable:
            # Daemon down before we could even enqueue: decide locally.
            self._resilience.count_fallback("scheduler_down")
            return Target.X86
        if timeout_s is None:
            target = yield reply
            return target
        # We may abandon the reply on timeout; a late failure (server
        # stop during an outage window) must then not crash the run.
        reply.defused = True
        try:
            yield any_of(sim, [reply, timeout(sim, timeout_s)])
        except SchedulerUnavailable:
            # The daemon went down with our request queued.
            self._resilience.count_fallback("scheduler_down")
            return Target.X86
        if reply.triggered and reply.ok:
            return reply.value
        # No reply within the budget (daemon hung or slow): serve the
        # call locally on x86 — correct, just not accelerated.
        self._resilience.count_fallback("scheduler_timeout")
        return Target.X86

    # -- function execution per target -----------------------------------------
    def _execute_function(self, target: Target):
        if target is Target.FPGA:
            yield from self._execute_fpga()
        elif target is Target.ARM:
            yield from self._execute_arm_migrated()
        else:
            yield self.runtime.platform.x86.cpu.execute(self.profile.func_x86_s)
            self.record.targets.append(Target.X86)

    def _fallback_to_x86(self, reason: str):
        """Serve the call on the x86 host instead of the FPGA.

        The result is identical (migration transparency); only the
        latency differs. ``reason`` labels ``fallbacks_total``.
        """
        self.record.fpga_fallbacks += 1
        self._resilience.count_fallback(reason)
        yield self.runtime.platform.x86.cpu.execute(self.profile.func_x86_s)
        self.record.targets.append(Target.X86)

    def _execute_fpga(self):
        xrt = self.runtime.xrt
        kernel = self.profile.kernel_name
        resilience = self._resilience
        if resilience is not None and not resilience.allow_kernel(kernel):
            # Quarantined (mostly reachable in ALWAYS_FPGA mode — under
            # Xar-Trek the scheduler already steered away).
            yield from self._fallback_to_x86("quarantined")
            return
        if not xrt.has_kernel(kernel):
            if self.mode is SystemMode.ALWAYS_FPGA and not xrt.reconfiguring:
                # Traditional flow: configure synchronously at first use.
                image = self.runtime.image_for(kernel)
                try:
                    yield xrt.load_xclbin(image)
                except (XRTError, SimulationError):
                    yield from self._fallback_to_x86("configure_failed")
                    return
            elif xrt.reconfiguring:
                # Wait out an in-flight reconfiguration and retry —
                # woken by the settle event, not a poll timer (the old
                # 10 ms poll loop generated thousands of timeout events
                # per reconfiguration under high load).
                while xrt.reconfiguring:
                    yield xrt.wait_reconfigured()
            if not xrt.has_kernel(kernel):
                # Kernel still absent (scheduler race): run on x86.
                yield from self._fallback_to_x86("kernel_absent")
                return
        attempt = 0
        while True:
            try:
                yield xrt.run_kernel(
                    kernel,
                    bytes_in=self.profile.bytes_to_fpga,
                    bytes_out=self.profile.bytes_from_fpga,
                    duration=self.profile.fpga_kernel_s,
                )
            except XRTError:
                if resilience is not None:
                    resilience.record_kernel_failure(kernel)
                    config = resilience.config
                    if (
                        attempt < config.kernel_retry_limit
                        and xrt.has_kernel(kernel)
                        and resilience.allow_kernel(kernel)
                    ):
                        self.record.retries += 1
                        resilience.count_retry(kernel)
                        yield timeout(
                            self.runtime.platform.sim, config.backoff_s(attempt)
                        )
                        attempt += 1
                        # The device may have crashed or been
                        # quarantined during the backoff.
                        if xrt.has_kernel(kernel) and resilience.allow_kernel(kernel):
                            continue
                yield from self._fallback_to_x86("kernel_fault")
                return
            else:
                if resilience is not None:
                    resilience.record_kernel_success(kernel)
                break
        self.record.targets.append(Target.FPGA)

    def _execute_arm_migrated(self):
        """Software migration: Popcorn there, run the function, Popcorn back."""
        popcorn = self.runtime.popcorn_for(self.app.name)
        thread = self._ensure_thread(popcorn)
        yield popcorn.migrate(thread, Target.ARM)
        self.record.migrations += 1
        yield self.runtime.platform.arm.cpu.execute(self.profile.func_arm_s)
        yield popcorn.migrate(thread, Target.X86)
        self.record.migrations += 1
        self.record.targets.append(Target.ARM)
