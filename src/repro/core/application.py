"""The instrumented application as a simulation process.

One :class:`ApplicationRun` reproduces the run-time behaviour of one
compiled application instance under one of four systems:

* ``VANILLA_X86`` — everything on the x86 host (the paper's "Vanilla
  Linux/x86" baseline);
* ``VANILLA_ARM`` — everything on the ARM server ("Vanilla Linux/ARM");
* ``ALWAYS_FPGA`` — host code on x86, the selected function always on
  the FPGA, configuring the card synchronously at first use (the
  traditional hardware-acceleration flow, "FPGA" baseline);
* ``XAR_TREK`` — the full system: early FPGA configuration at startup,
  per-call scheduling via the server (Algorithm 2), Popcorn migration
  to ARM or XRT execution on the FPGA, and the client's dynamic
  threshold update (Algorithm 1) at termination.

The run optionally executes the *functional* workload once and verifies
the result — demonstrating that migration is transparent: the kernel's
output does not depend on where it ran.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.compiler.pipeline import CompiledApplication
from repro.core.server import RequestShed, SchedulerUnavailable
from repro.popcorn.dsm import PAGE_SIZE
from repro.popcorn.migration_points import CType
from repro.popcorn.runtime import PopcornRuntime, PopcornThread
from repro.popcorn.state import MachineState
from repro.sim import Event, SimulationError
from repro.types import Target
from repro.xrt import XRTError

__all__ = ["SystemMode", "RunRecord", "ApplicationRun"]

#: Heap base for a migrating thread's dirty working set.
_WORKING_SET_BASE = 0x2000_0000


class SystemMode(enum.Enum):
    """Which system executes the application."""

    VANILLA_X86 = "vanilla-x86"
    VANILLA_ARM = "vanilla-arm"
    ALWAYS_FPGA = "always-fpga"
    XAR_TREK = "xar-trek"


@dataclass
class RunRecord:
    """Everything observed about one application run."""

    app: str
    mode: SystemMode
    seed: int
    start_s: float
    end_s: float = math.nan
    calls_completed: int = 0
    targets: list[Target] = field(default_factory=list)
    migrations: int = 0
    fpga_fallbacks: int = 0
    retries: int = 0
    verified: Optional[bool] = None
    #: The session's completion deadline (absolute budget from start),
    #: carried so SLO scoring can compute deadline-goodput per record.
    deadline_s: Optional[float] = None
    #: Why the session was cut short by overload protection (one of
    #: :data:`repro.faults.resilience.SHED_REASONS`), or None for a
    #: fully served run. A shed run still has a valid ``end_s``.
    shed_reason: Optional[str] = None

    @property
    def elapsed_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def finished(self) -> bool:
        return not math.isnan(self.end_s)

    def dominant_target(self) -> Target:
        """The target that served the most calls (x86 if none)."""
        if not self.targets:
            return Target.X86
        counts: dict[Target, int] = {}
        for target in self.targets:
            counts[target] = counts.get(target, 0) + 1
        return max(counts, key=lambda t: (counts[t], -int(t)))


class ApplicationRun:
    """One application instance inside the simulated datacenter."""

    def __init__(
        self,
        runtime,  # XarTrekRuntime; untyped to avoid a circular import
        app: CompiledApplication,
        seed: int = 0,
        mode: SystemMode = SystemMode.XAR_TREK,
        deadline_s: Optional[float] = None,
        functional: bool = False,
        calls: Optional[int] = None,
    ):
        self.runtime = runtime
        self.app = app
        if calls is None:
            self.profile = app.profile
        else:
            # with_calls is a dataclasses.replace under the hood — slow
            # enough to show up at 1000 launches. Profiles are immutable
            # once built and one runtime maps each app name to one
            # CompiledApplication, so derived variants memoize per
            # runtime (CompiledApplication itself is frozen).
            cache = runtime._calls_profile_cache
            key = (app.name, calls)
            profile = cache.get(key)
            if profile is None:
                profile = cache[key] = app.profile.with_calls(calls)
            self.profile = profile
        self.seed = seed
        self.mode = mode
        self.deadline_s = deadline_s
        self.functional = functional
        self.record = RunRecord(
            app=app.name, mode=mode, seed=seed, start_s=math.nan,
            deadline_s=deadline_s,
        )
        self._thread: Optional[PopcornThread] = None
        # Chain-path state (see _chain_begin): one mutable cursor per
        # run instead of a generator frame.
        self._done: Optional[Event] = None
        self._calls_left = 0
        self._call_started = 0.0
        self._arm_call_cost = 0.0
        self._reply_pending: Optional[Event] = None
        self._fpga_attempt = 0
        self._popcorn: Optional[PopcornRuntime] = None
        self._resilience = runtime.resilience
        #: End-to-end per-call latency: target selection (scheduler
        #: round-trip under Xar-Trek) + function execution wherever it
        #: ran, labeled by the target that actually served the call.
        #: The first launch on a runtime registers the families; the
        #: registry get-or-create is then paid once per runtime, not per
        #: launch (scale_stress starts 1000 runs on one runtime).
        if runtime._latency_family is None:
            metrics = runtime.metrics
            runtime._latency_family = metrics.histogram(
                "invocation_latency_seconds",
                "end-to-end per-invocation latency by serving target",
                labelnames=("target",),
            )
            runtime._invocations_family = metrics.counter(
                "invocations_total",
                "function invocations by application and serving target",
                labelnames=("app", "target"),
            )

    # -- public API ------------------------------------------------------------
    def start(self, delay_s: float = 0.0) -> Event:
        """Start the run ``delay_s`` simulated seconds from now; the
        returned event fires with the final RunRecord.

        The run's first step takes the ``(time, seq)`` slot that this
        call queues, so it runs before anything queued later for the
        same instant, whatever the delay; the generator reference
        (tests/core/client_path_reference.py) boots in that slot too. A
        negative, infinite or NaN delay raises
        :class:`~repro.sim.SimulationError`.

        The run's lifecycle — host work, per-call decide/dispatch,
        Algorithm 1 at exit — is a fixed state machine, driven as a
        precompiled callback chain (``_chain_begin`` and friends): bound
        continuations instead of a generator send/yield trampoline and
        most of its intermediate events. The generator process the chain
        was compiled from is its differential reference.
        """
        sim = self.runtime.platform.sim
        done = self._done = Event(sim)
        sim.defer(delay_s, self._chain_begin)
        return done

    def _run_functional(self) -> None:
        """Execute the real computation once and verify the result."""
        from repro.workloads import create_workload

        workload = create_workload(self.app.name)
        inp = workload.generate_input(self.seed)
        output = workload.run_kernel(inp)
        self.record.verified = workload.verify(inp, output)

    def _observe_call(self, target: Target, started_at: float) -> None:
        runtime = self.runtime
        label = target.label
        runtime._latency_family.child(label).observe(
            runtime.platform.now - started_at
        )
        runtime._invocations_family.child(self.app.name, label).inc()

    def _deadline_passed(self) -> bool:
        if self.deadline_s is None:
            return False
        return (
            self.runtime.platform.now - self.record.start_s >= self.deadline_s
        )

    def _deadline_at(self) -> Optional[float]:
        """The absolute completion deadline (admission control input)."""
        if self.deadline_s is None:
            return None
        return self.record.start_s + self.deadline_s

    def _mark_deadline_expired(self) -> None:
        """The deadline passed with calls still owed: the session exits
        early and is accounted as shed, not completed."""
        self.record.shed_reason = "deadline_expired"
        guard = self._resilience.overload
        if guard is not None:
            guard.count_shed("deadline_expired")

    # -- migration state plumbing -------------------------------------------------
    def _ensure_thread(self, popcorn: PopcornRuntime) -> PopcornThread:
        if self._thread is not None:
            return self._thread
        # The initial machine state is a pure function of the (frozen)
        # application metadata, and states are never mutated on the
        # migration path — so every run of the same app, on every
        # deployment of the same compilation, can share one prototype
        # object instead of rebuilding identical frames per client.
        # Sharing also makes every migration after the compilation's
        # first a transform-memo hit (see TransformMemo).
        result = self.runtime.result
        cache = result.initial_states
        state = cache.get(self.app.name)
        if state is None:
            metadata = self.app.compiled.metadata
            transformer = result.transforms_for(self.app.name).transformer
            function = self.app.instrumented.selected_functions[0]
            frames = []
            for fn in ("main", function):
                point = metadata.points_in(fn)[0]
                values = {
                    var.name: (float(i) if CType.is_float(var.ctype) else i)
                    for i, var in enumerate(point.live_vars)
                }
                frames.append(
                    transformer.build_frame(fn, point, values, "x86_64", 0x400100)
                )
            state = MachineState(isa="x86_64", frames=frames)
            cache[self.app.name] = state
        thread = self._thread = popcorn.spawn_thread(
            self.app.compiled.binary, state, Target.X86
        )
        if popcorn.dsm is not None:
            # The working set is the migration payload beyond the state,
            # in whole pages. x86 and ARM states have one size, so a run
            # has one working set: the first migration ships it and
            # leaves the thread clean, and nothing dirties it again.
            payload = self.profile.migration_state_bytes - state.size_bytes()
            end = _WORKING_SET_BASE + max(0, payload) // PAGE_SIZE * PAGE_SIZE
            pages = range(_WORKING_SET_BASE, end, PAGE_SIZE)
            popcorn.dsm.seed_pages(Target.X86.label, pages)
            thread.dirty_pages = pages
        return thread

    # -- precompiled callback chain (the client lifecycle) ----------------------
    #
    # Hand-compiled continuation-passing form of the generator lifecycle
    # kept in tests/core/client_path_reference.py (GeneratorRun._body and
    # its _run_*/_choose_target/_execute_* helpers). Every yield point
    # becomes a bound-method continuation invoked from the awaited event's
    # callback list (or directly from a fair-share server's on_complete),
    # so a steady-state call costs no generator frame, no Process event,
    # no AnyOf/Timeout pair, and no per-hop closures. Control flow, metric
    # touch points, and fallback/retry ordering mirror the generator
    # line-for-line; the equivalence is pinned by the differential oracle
    # in tests/core/test_client_path_oracle.py and by the behaviour
    # contract's checksums, which the chain must reproduce byte-identically.

    def _chain_fail(self, exc: BaseException) -> None:
        done = self._done
        if done._state == Event.PENDING:
            done.fail(exc)
        else:
            raise exc

    def _chain_begin(self) -> None:
        try:
            runtime = self.runtime
            platform = runtime.platform
            profile = self.profile
            self.record.start_s = platform.now
            if self.functional:
                self._run_functional()
            if self.mode is SystemMode.XAR_TREK and runtime.early_configure:
                runtime.server.preconfigure(self.app.name)
            self._calls_left = profile.calls_per_run
            if self.mode is SystemMode.VANILLA_ARM:
                slowdown = profile.arm_core_slowdown
                self._arm_call_cost = (
                    profile.per_call_host_s + profile.func_x86_s
                ) * slowdown
                platform.arm.cpu.execute_job(
                    profile.host_work_s * slowdown, on_complete=self._arm_host_done
                )
            else:
                platform.x86.cpu.execute_job(
                    profile.host_work_s, on_complete=self._host_done
                )
        except BaseException as exc:
            self._chain_fail(exc)

    # -- vanilla-ARM loop --------------------------------------------------------
    def _arm_host_done(self, _job) -> None:
        try:
            self._arm_next_call()
        except BaseException as exc:
            self._chain_fail(exc)

    def _arm_next_call(self) -> None:
        try:
            if self._calls_left <= 0:
                self._chain_finish()
                return
            if self._deadline_passed():
                self._mark_deadline_expired()
                self._chain_finish()
                return
            self._call_started = self.runtime.platform.now
            self.runtime.platform.arm.cpu.execute_job(
                self._arm_call_cost, on_complete=self._arm_call_done
            )
        except BaseException as exc:
            self._chain_fail(exc)

    def _arm_call_done(self, _job) -> None:
        try:
            self.record.targets.append(Target.ARM)
            self._observe_call(Target.ARM, self._call_started)
            self.record.calls_completed += 1
            self._calls_left -= 1
            self._arm_next_call()
        except BaseException as exc:
            self._chain_fail(exc)

    # -- x86-hosted per-call loop ------------------------------------------------
    def _host_done(self, _job) -> None:
        try:
            self._next_call()
        except BaseException as exc:
            self._chain_fail(exc)

    def _next_call(self) -> None:
        try:
            if self._calls_left <= 0:
                self._chain_finish()
                return
            if self._deadline_passed():
                self._mark_deadline_expired()
                self._chain_finish()
                return
            per_call = self.profile.per_call_host_s
            if per_call > 0:
                self.runtime.platform.x86.cpu.execute_job(
                    per_call, on_complete=self._per_call_host_done
                )
            else:
                self._begin_call()
        except BaseException as exc:
            self._chain_fail(exc)

    def _per_call_host_done(self, _job) -> None:
        try:
            self._begin_call()
        except BaseException as exc:
            self._chain_fail(exc)

    def _begin_call(self) -> None:
        try:
            self._call_started = self.runtime.platform.now
            mode = self.mode
            if mode is SystemMode.VANILLA_X86:
                self._dispatch(Target.X86)
                return
            if mode is SystemMode.ALWAYS_FPGA:
                self._dispatch(
                    Target.FPGA if self.profile.fpga_capable else Target.X86
                )
                return
            # XAR_TREK: ask the scheduler, racing a client-side timeout.
            timeout_s = self._resilience.config.request_timeout_s
            try:
                reply = self.runtime.server.request(
                    self.app.name, deadline_at=self._deadline_at()
                )
            except RequestShed as exc:
                # Mirrors GeneratorRun._choose_target: a shed call ends
                # the session (no local fallback), reason on the record.
                self.record.shed_reason = exc.reason
                self._chain_finish()
                return
            except SchedulerUnavailable:
                self._resilience.count_fallback("scheduler_down")
                self._dispatch(Target.X86)
                return
            self._reply_pending = reply
            if timeout_s is None:
                # No timeout budget: a failed reply fails the run, just
                # as it would be thrown into the generator at the yield.
                reply.callbacks.append(self._reply_plain)
                return
            # We may abandon the reply on timeout; a late failure must
            # then not crash the run (mirrors GeneratorRun._choose_target).
            reply.defused = True
            reply.callbacks.append(self._reply_event)
            self.runtime.platform.sim.defer(timeout_s, self._reply_timeout, reply)
        except BaseException as exc:
            self._chain_fail(exc)

    def _reply_plain(self, reply: Event) -> None:
        self._reply_pending = None
        try:
            if reply._ok:
                self._dispatch(reply._value)
            else:
                reply.defused = True
                self._chain_fail(reply._value)
        except BaseException as exc:
            self._chain_fail(exc)

    def _reply_event(self, reply: Event) -> None:
        if reply is not self._reply_pending:
            return  # raced by the timeout (or stale from a prior call)
        self._reply_pending = None
        try:
            if reply._ok:
                self._dispatch(reply._value)
            elif isinstance(reply._value, SchedulerUnavailable):
                # The daemon went down with our request queued.
                self._resilience.count_fallback("scheduler_down")
                self._dispatch(Target.X86)
            else:
                self._chain_fail(reply._value)
        except BaseException as exc:
            self._chain_fail(exc)

    def _reply_timeout(self, reply: Event) -> None:
        if reply is not self._reply_pending:
            return  # the reply won the race
        self._reply_pending = None
        # A reply due at this same instant is within the budget: decide
        # after the events already queued for now, where the generator's
        # AnyOf resumes too.
        self.runtime.platform.sim.defer(0.0, self._reply_budget_spent, reply)

    def _reply_budget_spent(self, reply: Event) -> None:
        try:
            if reply.triggered and reply._ok:
                self._dispatch(reply._value)
            else:
                self._resilience.count_fallback("scheduler_timeout")
                self._dispatch(Target.X86)
        except BaseException as exc:
            self._chain_fail(exc)

    # -- per-target dispatch -----------------------------------------------------
    def _dispatch(self, target: Target) -> None:
        if target is Target.FPGA:
            self._fpga_begin()
        elif target is Target.ARM:
            self._arm_migrate_begin()
        else:
            self.runtime.platform.x86.cpu.execute_job(
                self.profile.func_x86_s, on_complete=self._x86_func_done
            )

    def _x86_func_done(self, _job) -> None:
        try:
            self.record.targets.append(Target.X86)
            self._finish_call()
        except BaseException as exc:
            self._chain_fail(exc)

    def _finish_call(self) -> None:
        # The serving target may differ from the decision (FPGA
        # fallback); the record's tail is what actually ran.
        self._observe_call(self.record.targets[-1], self._call_started)
        self.record.calls_completed += 1
        self._calls_left -= 1
        self._next_call()

    def _chain_fallback(self, reason: str) -> None:
        self.record.fpga_fallbacks += 1
        self._resilience.count_fallback(reason)
        self.runtime.platform.x86.cpu.execute_job(
            self.profile.func_x86_s, on_complete=self._x86_func_done
        )

    # -- FPGA path (mirrors GeneratorRun._execute_fpga) --------------------------
    def _fpga_begin(self) -> None:
        try:
            xrt = self.runtime.xrt
            kernel = self.profile.kernel_name
            if not self._resilience.allow_kernel(kernel):
                self._chain_fallback("quarantined")
                return
            if not xrt.has_kernel(kernel):
                if self.mode is SystemMode.ALWAYS_FPGA and not xrt.reconfiguring:
                    image = self.runtime.image_for(kernel)
                    try:
                        configured = xrt.load_xclbin(image)
                    except (XRTError, SimulationError):
                        self._chain_fallback("configure_failed")
                        return
                    configured.defused = True
                    configured.callbacks.append(self._fpga_configured)
                    return
                if xrt.reconfiguring:
                    xrt.wait_reconfigured().callbacks.append(self._fpga_settled)
                    return
                self._chain_fallback("kernel_absent")
                return
            self._fpga_attempt = 0
            self._fpga_run()
        except BaseException as exc:
            self._chain_fail(exc)

    def _fpga_configured(self, ev: Event) -> None:
        try:
            if not ev._ok:
                if isinstance(ev._value, (XRTError, SimulationError)):
                    self._chain_fallback("configure_failed")
                else:
                    self._chain_fail(ev._value)
                return
            self._fpga_after_wait()
        except BaseException as exc:
            self._chain_fail(exc)

    def _fpga_settled(self, _ev: Event) -> None:
        try:
            xrt = self.runtime.xrt
            if xrt.reconfiguring:  # another reconfiguration started
                xrt.wait_reconfigured().callbacks.append(self._fpga_settled)
                return
            self._fpga_after_wait()
        except BaseException as exc:
            self._chain_fail(exc)

    def _fpga_after_wait(self) -> None:
        # Kernel may still be absent (scheduler race): run on x86.
        if not self.runtime.xrt.has_kernel(self.profile.kernel_name):
            self._chain_fallback("kernel_absent")
            return
        self._fpga_attempt = 0
        self._fpga_run()

    def _fpga_run(self) -> None:
        profile = self.profile
        try:
            running = self.runtime.xrt.run_kernel(
                profile.kernel_name,
                bytes_in=profile.bytes_to_fpga,
                bytes_out=profile.bytes_from_fpga,
                duration=profile.fpga_kernel_s,
            )
        except XRTError:
            self._fpga_run_failed()
            return
        running.defused = True
        running.callbacks.append(self._fpga_run_done)

    def _fpga_run_done(self, ev: Event) -> None:
        try:
            if ev._ok:
                self._resilience.record_kernel_success(self.profile.kernel_name)
                self.record.targets.append(Target.FPGA)
                self._finish_call()
                return
            if not isinstance(ev._value, XRTError):
                self._chain_fail(ev._value)
                return
            self._fpga_run_failed()
        except BaseException as exc:
            self._chain_fail(exc)

    def _fpga_run_failed(self) -> None:
        try:
            kernel = self.profile.kernel_name
            resilience = self._resilience
            resilience.record_kernel_failure(kernel)
            config = resilience.config
            if (
                self._fpga_attempt < config.kernel_retry_limit
                and self.runtime.xrt.has_kernel(kernel)
                and resilience.allow_kernel(kernel)
            ):
                self.record.retries += 1
                resilience.count_retry(kernel)
                self.runtime.platform.sim.defer(
                    config.backoff_s(self._fpga_attempt), self._fpga_retry
                )
                return
            self._chain_fallback("kernel_fault")
        except BaseException as exc:
            self._chain_fail(exc)

    def _fpga_retry(self) -> None:
        try:
            self._fpga_attempt += 1
            kernel = self.profile.kernel_name
            resilience = self._resilience
            # The device may have crashed or been quarantined during
            # the backoff.
            if self.runtime.xrt.has_kernel(kernel) and resilience.allow_kernel(kernel):
                self._fpga_run()
            else:
                self._chain_fallback("kernel_fault")
        except BaseException as exc:
            self._chain_fail(exc)

    # -- ARM migration path (mirrors GeneratorRun._execute_arm_migrated) ---------
    def _arm_migrate_begin(self) -> None:
        try:
            popcorn = self._popcorn
            if popcorn is None:
                popcorn = self._popcorn = self.runtime.popcorn_for(self.app.name)
            thread = self._ensure_thread(popcorn)
            popcorn.migrate(thread, Target.ARM).callbacks.append(self._arm_arrived)
        except BaseException as exc:
            self._chain_fail(exc)

    def _arm_arrived(self, _ev: Event) -> None:
        try:
            self.record.migrations += 1
            self.runtime.platform.arm.cpu.execute_job(
                self.profile.func_arm_s, on_complete=self._arm_func_done
            )
        except BaseException as exc:
            self._chain_fail(exc)

    def _arm_func_done(self, _job) -> None:
        try:
            self._popcorn.migrate(self._thread, Target.X86).callbacks.append(
                self._arm_returned
            )
        except BaseException as exc:
            self._chain_fail(exc)

    def _arm_returned(self, _ev: Event) -> None:
        try:
            self.record.migrations += 1
            self.record.targets.append(Target.ARM)
            self._finish_call()
        except BaseException as exc:
            self._chain_fail(exc)

    # -- termination -------------------------------------------------------------
    def _chain_finish(self) -> None:
        platform = self.runtime.platform
        record = self.record
        record.end_s = platform.now
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
                record.dominant_target(),
                record.elapsed_s,
                platform.x86_load,
            )
        self.runtime._finish(record)
        self._done.succeed(record)
