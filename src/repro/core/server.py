"""The scheduler server (Section 3.2, Algorithm 2).

Runs on the x86 host as a userspace daemon. Clients connect over a
socket; each request names an application, and the reply carries the
migration flag (0 = x86, 1 = ARM, 2 = FPGA). The server reads the
threshold table, samples the x86 CPU load, queries the FPGA's resident
kernels, decides per Algorithm 2, and — when the decision calls for
it — kicks off an FPGA reconfiguration in the background so the
transfer/programming latency hides behind CPU execution.

In the simulation the socket is a round-trip latency: each accepted
request runs as its own callback chain (inbound hop, decide, reply
hop), so the request/decide/reply path consumes simulated time exactly
like the real client/server pair.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.core.policy import Decision, decide
from repro.hardware.platform import HeterogeneousPlatform
from repro.metrics import MetricsRegistry
from repro.sim import Event, Tracer
from repro.thresholds import ThresholdTable
from repro.types import Target
from repro.xrt import XRTDevice

__all__ = ["RequestShed", "SchedulerServer", "SchedulerUnavailable", "ServerStats"]

#: One-way userspace socket latency on the host (localhost TCP).
DEFAULT_SOCKET_LATENCY_S = 50e-6

_TARGET_BY_NAME = {str(target): target for target in Target}


class SchedulerUnavailable(RuntimeError):
    """The scheduler daemon is not running (never started, stopped, or
    crashed mid-request). Clients catch this and fall back to a local
    x86 decision rather than blocking forever on a reply that will
    never come. Subclasses :class:`RuntimeError` so pre-existing
    callers that caught the old generic error keep working."""


class RequestShed(RuntimeError):
    """The admission controller refused this request (see
    :class:`~repro.faults.resilience.OverloadGuard`). Deliberately NOT
    a :class:`SchedulerUnavailable`: a shed request must not fall back
    to a local x86 run — the whole point of shedding is to refuse the
    work, so clients record the shed reason and terminate the session
    instead."""

    def __init__(self, reason: str):
        super().__init__(f"request shed by overload protection ({reason})")
        self.reason = reason


class ServerStats:
    """Decision counters, by target and by Algorithm 2 rule.

    The counts live in the metrics registry; every attribute here is a
    thin read-only view over those counters, so the stats API and a
    metrics export can never disagree (they are the same numbers).
    """

    def __init__(self, metrics: MetricsRegistry):
        if metrics is None:
            raise TypeError(
                "ServerStats requires an explicit MetricsRegistry; a "
                "detached registry would silently drop the scheduler's "
                "counters from every metrics export"
            )
        self._requests = metrics.counter(
            "scheduler_requests_total", "scheduling requests served"
        )
        self._decisions = metrics.counter(
            "scheduler_decisions_total",
            "scheduling decisions by chosen target",
            labelnames=("target",),
        )
        self._rules = metrics.counter(
            "scheduler_decisions_by_rule_total",
            "scheduling decisions by Algorithm 2 rule",
            labelnames=("rule",),
        )
        self._reconf_started = metrics.counter(
            "fpga_reconfigurations_started_total",
            "background reconfigurations kicked off by the scheduler",
        )
        self._reconf_skipped = metrics.counter(
            "fpga_reconfigurations_skipped_total",
            "reconfigurations skipped (in flight, or kernels running)",
        )
        self._reconf_failed = metrics.counter(
            "fpga_reconfigurations_failed_total",
            "reconfigurations that failed to program the card",
        )
        # Per-decision fast path: resolve each label child once (lazily,
        # so the exported series set is unchanged) instead of going
        # through the labels() validation on every request.
        self._decision_children: dict[Any, Any] = {}
        self._rule_children: dict[str, Any] = {}

    def _count_decision(self, decision) -> None:
        """O(1) per-request accounting (no per-request label resolution)."""
        self._requests.inc()
        target_child = self._decision_children.get(decision.target)
        if target_child is None:
            target_child = self._decisions.labels(target=str(decision.target))
            self._decision_children[decision.target] = target_child
        target_child.inc()
        rule_child = self._rule_children.get(decision.rule)
        if rule_child is None:
            rule_child = self._rules.labels(rule=decision.rule)
            self._rule_children[decision.rule] = rule_child
        rule_child.inc()

    def record_decisions(self, by_target: dict, by_rule: dict) -> None:
        """Bulk accounting for pre-aggregated decision batches.

        The cohort-vectorized client path (:mod:`repro.core.cohort`)
        decides for thousands of clients per array operation and
        reports the aggregate here, so the scheduler's counters end up
        identical to what the per-client reference path would record
        one request at a time. Zero counts are skipped so no label
        child exists that a per-client run would not have created.
        """
        total = 0
        for target in sorted(by_target):
            count = int(by_target[target])
            if not count:
                continue
            child = self._decision_children.get(target)
            if child is None:
                child = self._decisions.labels(target=str(target))
                self._decision_children[target] = child
            child.inc(count)
            total += count
        for rule in sorted(by_rule):
            count = int(by_rule[rule])
            if not count:
                continue
            child = self._rule_children.get(rule)
            if child is None:
                child = self._rules.labels(rule=rule)
                self._rule_children[rule] = child
            child.inc(count)
        self._requests.inc(total)

    # -- thin views over the counters ------------------------------------
    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def by_target(self) -> dict[Target, int]:
        return {
            _TARGET_BY_NAME[key[0]]: int(count)
            for key, count in self._decisions.as_dict().items()
        }

    @property
    def by_rule(self) -> dict[str, int]:
        return {key[0]: int(count) for key, count in self._rules.as_dict().items()}

    @property
    def reconfigurations_started(self) -> int:
        return int(self._reconf_started.value)

    @property
    def reconfigurations_skipped(self) -> int:
        return int(self._reconf_skipped.value)

    @property
    def reconfigurations_failed(self) -> int:
        return int(self._reconf_failed.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServerStats(requests={self.requests}, by_target={self.by_target}, "
            f"by_rule={self.by_rule})"
        )


class SchedulerServer:
    """The policy daemon: owns the threshold table and the FPGA images."""

    def __init__(
        self,
        platform: HeterogeneousPlatform,
        xrt: XRTDevice,
        thresholds: ThresholdTable,
        kernel_images: dict[str, object],
        socket_latency_s: float = DEFAULT_SOCKET_LATENCY_S,
        tracer: Optional[Tracer] = None,
        policy=None,
        resilience=None,
    ):
        """``kernel_images`` maps hardware-kernel name -> XCLBIN image.

        ``policy`` swaps the decision function (default: the paper's
        Algorithm 2, :func:`repro.core.policy.decide`); see
        :mod:`repro.core.policies` for alternatives. ``resilience`` (a
        :class:`~repro.faults.resilience.ResiliencePolicy`) steers
        decisions away from quarantined targets and bounds background
        reconfiguration retries.
        """
        self.platform = platform
        self.xrt = xrt
        self.thresholds = thresholds
        self.policy = policy or decide
        self.kernel_images = dict(kernel_images)
        self.socket_latency_s = socket_latency_s
        self.tracer = tracer or platform.tracer
        self.metrics = platform.metrics
        self.resilience = resilience
        self.stats = ServerStats(self.metrics)
        self._roundtrip = self.metrics.histogram(
            "scheduler_roundtrip_seconds",
            "client-observed request->reply latency (socket + queueing + decide)",
        )
        #: Requests made after start() but before the daemon came online
        #: (see :meth:`_online`), in arrival order.
        self._pending: deque[tuple[str, Event]] = deque()
        self._running = False
        #: True once the daemon is online: requests go straight to
        #: :meth:`_handle`.
        self._accepting = False
        #: Bumped on every start/stop so a deferred call from an older
        #: daemon (its online step, a reconfiguration retry) can tell it
        #: has been superseded.
        self._generation = 0
        #: Reply-latency multiplier (1.0 healthy; the fault injector
        #: raises it during server_slow windows).
        self._reply_delay_factor = 1.0
        #: Consecutive failed background reconfiguration attempts per
        #: kernel, bounding the retry chain (reset on any successful
        #: programming outcome and on device-breaker recovery).
        self._reconfig_retries: dict[str, int] = {}
        if self.resilience is not None:
            # A kernel that exhausted its background retry budget while
            # the card was sick must get a fresh budget once the device
            # breaker closes again, or it would stay background-retry-
            # disabled for the rest of the run.
            self.resilience.add_device_recovery_listener(
                self._reset_reconfig_retries
            )

    # -- lifecycle -----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Algorithm 2 lines 1-3: init kernel info, socket, load timer.

        The daemon comes online at the current instant, after the
        events already queued for it; requests made before then wait
        in arrival order.
        """
        if self._running:
            return
        self._running = True
        self._generation += 1
        self.platform.sim.defer(0.0, self._online, self._generation)

    def _online(self, generation: int) -> None:
        if generation != self._generation:
            return  # stopped (or stop/start-cycled) before coming online
        self._accepting = True
        pending = self._pending
        while pending:
            self._handle(*pending.popleft())

    def stop(self) -> None:
        """Take the daemon down (crash/outage model).

        Requests made before the daemon came online fail immediately
        with :class:`SchedulerUnavailable` (their clients fall back
        locally). An accepted request still in its inbound socket hop
        fails the same way if the daemon is still down when its decision
        falls due, and counts no decision; one already decided, in its
        reply hop, still gets its target. New :meth:`request` calls
        raise until :meth:`start` runs again.
        """
        if not self._running:
            return
        self._running = False
        self._accepting = False
        self._generation += 1
        pending = self._pending
        while pending:
            self._fail_reply(pending.popleft()[1])
        self.tracer.record("scheduler", "server stopped")

    def _fail_reply(self, reply: Event) -> None:
        reply.defused = True  # the client may have already abandoned it
        if not reply.triggered:
            reply.fail(SchedulerUnavailable("scheduler server stopped"))

    def _handle(self, app_name: str, reply: Event) -> None:
        """One request's handler: socket in, decide, socket out.

        Algorithm 2's main loop (lines 4-33) accepts each request and
        hands it to its own callback chain, so concurrent requests
        overlap their socket latencies instead of queuing behind each
        other (a serial loop would make M simultaneous clients see M x
        the socket latency).
        """
        sim = self.platform.sim
        latency = self.socket_latency_s * self._reply_delay_factor

        def send_reply(decision: Decision) -> None:
            if not reply.triggered:
                reply.succeed_in_place(decision.target)

        def decide_and_reply() -> None:
            if not self._running:
                self._fail_reply(reply)
                return
            decision = self._decide(app_name)
            sim.defer(self.socket_latency_s * self._reply_delay_factor, send_reply, decision)

        sim.defer(latency, decide_and_reply)

    # -- client API ------------------------------------------------------------
    def request(self, app_name: str, deadline_at: Optional[float] = None) -> Event:
        """Client-side call: fires with the chosen :class:`Target`.

        Raises :class:`SchedulerUnavailable` when the daemon is not
        running (never started, or stopped), so callers fail fast
        instead of blocking forever on a reply that can never arrive.

        With overload protection configured
        (:class:`~repro.faults.resilience.OverloadConfig`), the request
        first passes admission control and may raise
        :class:`RequestShed` instead: the brownout ladder is at its
        shed rung, the bounded admission queue is full, or —
        ``deadline_at`` given — the estimated queueing delay already
        forfeits the deadline. Without a guard ``deadline_at`` is
        ignored and every request is admitted, exactly as before.
        """
        if not self._running:
            raise SchedulerUnavailable(
                "scheduler server not started (or stopped); clients "
                "should fall back to a local x86 decision"
            )
        sim = self.platform.sim
        guard = self._overload_guard()
        if guard is not None:
            guard.update(self.platform.x86_load + 1)
            # Two socket hops plus one hop of headroom per request
            # already waiting: the admission queue's drain time is what
            # a deadline-doomed request would spend to learn nothing.
            estimate = (
                self.socket_latency_s
                * self._reply_delay_factor
                * (2.0 + guard.depth)
            )
            reason = guard.admit(sim.now, deadline_at, estimate)
            if reason is not None:
                guard.count_shed(reason)
                if self.tracer.enabled:
                    self.tracer.record(
                        "scheduler",
                        f"{app_name}: shed ({reason})",
                        app=app_name,
                        reason=reason,
                    )
                raise RequestShed(reason)
            guard.enqueued()
        reply = sim.event()
        enqueued_at = sim.now

        def observe(ev: Event) -> None:
            if guard is not None:
                guard.dequeued()
            if ev.ok:
                self._roundtrip.observe(sim.now - enqueued_at)

        reply.callbacks.append(observe)
        if self._accepting:
            self._handle(app_name, reply)
        else:
            self._pending.append((app_name, reply))
        return reply

    def _overload_guard(self):
        """The resilience policy's :class:`OverloadGuard`, if any."""
        if self.resilience is None:
            return None
        return getattr(self.resilience, "overload", None)

    def admission_snapshot(self) -> dict[str, float]:
        """The backpressure view gossiped in a fleet's
        :class:`~repro.fleet.gossip.LoadDigest`: admission queue depth
        plus the brownout rung (0 when unprotected)."""
        guard = self._overload_guard()
        if guard is None:
            return {"queue_depth": 0.0, "brownout": 0.0}
        return guard.snapshot()

    def set_reply_delay_factor(self, factor: float) -> None:
        """Multiply the socket latency by ``factor`` (1.0 restores
        normal speed). The fault injector uses this for server_slow
        windows; in-flight requests pick up the factor per hop."""
        if factor <= 0:
            raise ValueError(f"reply delay factor must be positive, got {factor!r}")
        self._reply_delay_factor = float(factor)

    def preconfigure(self, app_name: str) -> None:
        """The instrumented main()'s early FPGA-configuration call.

        Requests the application's image non-blockingly at startup so
        the kernel is warm before its first invocation (Section 3.1;
        load-bearing for Figure 6's throughput win over always-FPGA).
        """
        entry = self.thresholds.entry(app_name)
        if entry.kernel_name:
            self._maybe_reconfigure(entry.kernel_name)

    # -- internals ---------------------------------------------------------------
    def _decide(self, app_name: str) -> Decision:
        entry = self.thresholds.entry(app_name)
        # The requesting process is itself runnable on the host while it
        # executes the scheduler-client call, so it counts toward the
        # x86 CPU load even though it holds no compute job right now.
        load = self.platform.x86_load + 1
        guard = self._overload_guard()
        if guard is not None:
            guard.update(load)
            if guard.x86_only:
                # Brownout rung 1+: keep serving, but pin everything to
                # the x86 host — accelerator occupancy (FPGA runs, ARM
                # queueing) is what the ladder is protecting, and x86
                # is the one target that can always absorb more load
                # (degraded, not down).
                decision = Decision(
                    target=Target.X86, reconfigure=False, rule="brownout-x86"
                )
                self.stats._count_decision(decision)
                if self.tracer.enabled:
                    self.tracer.record(
                        "scheduler",
                        f"{app_name}: load={load} -> {decision.target} "
                        f"({decision.rule})",
                        app=app_name,
                        load=load,
                        target=str(decision.target),
                        rule=decision.rule,
                    )
                return decision
        available = bool(entry.kernel_name) and self.xrt.has_kernel(entry.kernel_name)
        if available and self.resilience is not None:
            # A quarantined kernel is treated as absent: Algorithm 2
            # steers the call to a CPU target until the breaker's
            # cooldown admits a half-open trial.
            available = self.resilience.allow_kernel(entry.kernel_name)
        decision = self.policy(load, entry, available)
        self.stats._count_decision(decision)
        if self.tracer.enabled:
            self.tracer.record(
                "scheduler",
                f"{app_name}: load={load} -> {decision.target} ({decision.rule})",
                app=app_name,
                load=load,
                target=str(decision.target),
                rule=decision.rule,
            )
        if decision.reconfigure:
            self._maybe_reconfigure(entry.kernel_name)
        return decision

    def _maybe_reconfigure(self, kernel_name: str) -> None:
        """Start loading the image that hosts ``kernel_name``, if possible.

        Skipped when the kernel is already resident, a reconfiguration
        is in flight, or kernels are mid-run (swapping under a running
        kernel is impossible); the next request retries.
        """
        if self.xrt.has_kernel(kernel_name):
            return
        image = self.kernel_images.get(kernel_name)
        if image is None:
            return
        if self.resilience is not None and not self.resilience.allow_device():
            # The card itself is quarantined (crashed / repeatedly
            # failed to program): don't burn a reconfiguration slot.
            self.stats._reconf_skipped.inc()
            return
        if self.xrt.reconfiguring or self.xrt.active_runs:
            self.stats._reconf_skipped.inc()
            return
        self.stats._reconf_started.inc()
        self.tracer.record(
            "scheduler",
            f"reconfiguring FPGA with {image.name} for {kernel_name}",
            image=image.name,
            kernel=kernel_name,
        )
        done = self.xrt.load_xclbin(image)
        done.defused = True  # a programming failure must not crash the run

        def on_outcome(event) -> None:
            if not event.ok:
                self.stats._reconf_failed.inc()
                self.tracer.record(
                    "scheduler",
                    f"reconfiguration with {image.name} failed; will retry "
                    "on the next request",
                    image=image.name,
                )
                if self.resilience is not None:
                    self.resilience.record_device_failure()
                    self._schedule_reconfig_retry(kernel_name)
            else:
                # The card just programmed fine, so every kernel's
                # consecutive-failure streak is over — not only this
                # one's. Clearing all counters re-arms background
                # retries for kernels that previously hit the limit.
                self._reset_reconfig_retries()
                if self.resilience is not None:
                    self.resilience.record_device_success()

        done.callbacks.append(on_outcome)

    def _schedule_reconfig_retry(self, kernel_name: str) -> None:
        """Bounded background retry after a programming failure.

        The old image stayed resident (the device rolls back), so the
        retry is free to wait out the backoff; after
        ``reconfig_retry_limit`` consecutive failures the server stops
        retrying in the background and the next client request (or a
        half-open breaker trial) re-attempts instead.
        """
        config = self.resilience.config
        attempts = self._reconfig_retries.get(kernel_name, 0)
        if attempts >= config.reconfig_retry_limit:
            return
        self._reconfig_retries[kernel_name] = attempts + 1
        generation = self._generation

        def retry() -> None:
            # A retry armed before stop() must not fire into a stopped
            # (or stop/start-cycled) server: it would call
            # _maybe_reconfigure and touch XRT on behalf of a daemon
            # generation that no longer exists. Same guard as _online.
            if not self._running or generation != self._generation:
                return
            self._maybe_reconfigure(kernel_name)

        self.platform.sim.call_in(config.reconfig_retry_backoff_s, retry)

    def _reset_reconfig_retries(self) -> None:
        """Re-arm background reconfiguration retries for every kernel
        (successful programming, or the device breaker closed)."""
        self._reconfig_retries.clear()
