"""Resilience policies: retry budgets, circuit breakers, local fallback.

Xar-Trek's value proposition is that an invocation can always run
*somewhere*; this module holds the policy state that makes the runtime
deliver on that under injected faults:

* a per-invocation **retry budget** with exponential backoff for FPGA
  kernel runs (:meth:`ResiliencePolicy.backoff_s`), after which the
  application falls back to x86 transparently;
* a per-target **circuit breaker** (:class:`CircuitBreaker`) that
  quarantines a repeatedly failing kernel or the device itself for a
  cooldown, steering Algorithm 2 decisions away from it;
* **scheduler-client timeouts** (``request_timeout_s``) with a local
  x86 fallback decision when the scheduler daemon is down or slow.

All knobs live in :class:`ResilienceConfig`. The defaults are always
on: with zero faults none of the machinery fires, so fault-free runs
are byte-identical to a build without it.

Observability: ``retries_total{kernel}``, ``fallbacks_total{reason}``,
``quarantines_total{target}`` counters and a *pull-mode*
``circuit_breaker_state{target}`` gauge (0 = closed, 0.5 = half-open,
1 = open; the breaker maintains the gauge-shaped aggregates
incrementally and the registry samples them at snapshot time, matching
the ``cpu_load`` pattern).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.metrics import MetricsRegistry

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "FALLBACK_REASONS",
    "OverloadConfig",
    "OverloadGuard",
    "ResilienceConfig",
    "ResiliencePolicy",
    "SHED_REASONS",
]

#: Every reason `fallbacks_total` is labeled with.
FALLBACK_REASONS: tuple[str, ...] = (
    "kernel_fault",       # retry budget exhausted on mid-flight run faults
    "kernel_absent",      # scheduler race: kernel not resident at call time
    "quarantined",        # circuit breaker open for the kernel
    "configure_failed",   # ALWAYS_FPGA synchronous configuration failed
    "scheduler_timeout",  # no reply within request_timeout_s
    "scheduler_down",     # scheduler refused/failed the request
)

#: Every reason `shed_total` is labeled with. The first three are
#: admission-time decisions by the :class:`OverloadGuard`; the last is
#: the client-side exit when a deadline expires mid-session.
SHED_REASONS: tuple[str, ...] = (
    "brownout",           # ladder at SHED: refusing all new admissions
    "queue_full",         # bounded admission queue at capacity
    "deadline",           # queueing delay already forfeits the deadline
    "deadline_expired",   # admitted, but the deadline passed mid-run
)


@dataclass(frozen=True)
class OverloadConfig:
    """Admission-control and brownout-ladder knobs (all load counts are
    the scheduler's x86 process-count view, the same quantity Algorithm
    2 thresholds are written against).

    The ladder is ``full -> x86-only -> shed`` with hysteresis: each
    rung engages at its ``*_enter_load`` and only releases once the
    load falls back to its ``*_exit_load``, so a load hovering around a
    boundary cannot flap the service mode every request.
    """

    #: Requests allowed to wait in the scheduler's admission queue; the
    #: next one sheds with reason "queue_full".
    admission_queue_limit: int = 64
    #: x86-only rung: stop steering work at the accelerators (their
    #: occupancy is what melts first) but keep admitting.
    x86_only_enter_load: float = 24.0
    x86_only_exit_load: float = 16.0
    #: Shed rung: refuse all new admissions until the load drains.
    shed_enter_load: float = 48.0
    shed_exit_load: float = 32.0
    #: Safety margin for deadline-aware shedding: a request is shed
    #: when ``now + estimate + margin`` already passes its deadline.
    deadline_margin_s: float = 0.0
    #: Load-proportional completion-time estimate for deadline-aware
    #: shedding: each unit of x86 load adds this many seconds to the
    #: estimate (processor sharing slows every resident run roughly
    #: linearly in the run count). 0 keeps the estimate purely
    #: socket-latency based.
    deadline_load_cost_s: float = 0.0

    def __post_init__(self):
        if self.admission_queue_limit < 1:
            raise ValueError("admission_queue_limit must be >= 1")
        if self.x86_only_enter_load <= self.x86_only_exit_load:
            raise ValueError(
                "x86_only_enter_load must exceed x86_only_exit_load "
                "(the hysteresis band must be non-empty)"
            )
        if self.shed_enter_load <= self.shed_exit_load:
            raise ValueError(
                "shed_enter_load must exceed shed_exit_load "
                "(the hysteresis band must be non-empty)"
            )
        if self.shed_enter_load <= self.x86_only_enter_load:
            raise ValueError(
                "shed_enter_load must exceed x86_only_enter_load "
                "(the ladder's rungs must be ordered)"
            )
        if self.deadline_margin_s < 0:
            raise ValueError("deadline_margin_s must be >= 0")
        if self.deadline_load_cost_s < 0:
            raise ValueError("deadline_load_cost_s must be >= 0")


@dataclass(frozen=True)
class ResilienceConfig:
    """Every policy knob in one frozen record (see docs/resilience.md).

    The defaults keep fault-free behaviour bit-identical to the
    pre-resilience runtime: retries, breakers, and timeouts only
    engage when something actually fails or stalls.
    """

    #: Extra FPGA kernel-run attempts per invocation after the first
    #: failure (0 disables retrying: first fault falls back immediately).
    kernel_retry_limit: int = 2
    #: Backoff before retry attempt k: ``backoff_base_s * factor**k``.
    retry_backoff_s: float = 1e-3
    retry_backoff_factor: float = 2.0
    #: Consecutive failures that open a breaker, and how long it stays
    #: open before a half-open trial is allowed.
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 10.0
    #: Client-side scheduler-request timeout; ``None`` disables the
    #: timeout (and with it the local fallback on a slow server).
    request_timeout_s: Optional[float] = 0.02
    #: Background reconfiguration retries after a programming failure.
    reconfig_retry_limit: int = 3
    reconfig_retry_backoff_s: float = 0.25
    #: Overload protection (admission control + brownout ladder).
    #: ``None`` — the default — disables it entirely: no admission
    #: queue bound, no shedding, no new metric families, and behaviour
    #: bit-identical to the pre-overload runtime.
    overload: Optional["OverloadConfig"] = None

    def __post_init__(self):
        if self.kernel_retry_limit < 0:
            raise ValueError("kernel_retry_limit must be >= 0")
        if self.retry_backoff_s < 0 or self.retry_backoff_factor < 1.0:
            raise ValueError("retry backoff must be >= 0 with factor >= 1")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_cooldown_s < 0:
            raise ValueError("breaker_cooldown_s must be >= 0")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive or None")
        if self.reconfig_retry_limit < 0 or self.reconfig_retry_backoff_s < 0:
            raise ValueError("reconfig retry knobs must be >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (0-based)."""
        return self.retry_backoff_s * self.retry_backoff_factor ** attempt


class _StepSeries:
    """A step-valued gauge series kept incrementally: the value, its
    min and max, the time integral, and the update count.

    :meth:`snapshot` has the :meth:`repro.metrics.Gauge.bind_sampler`
    shape, so a state machine can export its state with no metric
    writes on the hot path. The series starts at 0.0 at construction;
    its min and max include that start, and only :meth:`set` counts as
    an update.
    """

    __slots__ = (
        "clock", "value", "_t0", "_last_t", "_min", "_max", "_integral", "_updates",
    )

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        now = clock()
        self._t0 = now
        self._last_t = now
        self.value = 0.0
        self._min = 0.0
        self._max = 0.0
        self._integral = 0.0
        self._updates = 0

    def set(self, value: float) -> None:
        now = self.clock()
        self._integral += self.value * (now - self._last_t)
        self._last_t = now
        self.value = value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        self._updates += 1

    def snapshot(self) -> dict[str, float]:
        now = self.clock()
        elapsed = now - self._t0
        integral = self._integral + self.value * (now - self._last_t)
        return {
            "value": self.value,
            "min": self._min,
            "max": self._max,
            "time_weighted_mean": integral / elapsed if elapsed > 0 else self.value,
            "updates": self._updates,
        }


class BreakerState:
    """One target's circuit-breaker state machine.

    closed --(threshold consecutive failures)--> open
    open --(cooldown elapses; next allow())--> half-open
    half-open --success--> closed, --failure--> open (fresh cooldown)

    The numeric encoding (closed 0, half-open 0.5, open 1) doubles as a
    gauge series (:class:`_StepSeries`), so :meth:`snapshot` is
    pull-sampled by :meth:`repro.metrics.Gauge.bind_sampler` with no
    per-transition metric writes on the hot path.
    """

    CLOSED, HALF_OPEN, OPEN = "closed", "half-open", "open"
    _VALUE = {CLOSED: 0.0, HALF_OPEN: 0.5, OPEN: 1.0}

    __slots__ = (
        "clock", "threshold", "cooldown_s", "state", "failures",
        "opened_at", "open_count", "_series",
    )

    def __init__(self, clock: Callable[[], float], threshold: int, cooldown_s: float):
        self.clock = clock
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.state = BreakerState.CLOSED
        self.failures = 0          # consecutive failures while closed
        self.opened_at = 0.0
        self.open_count = 0        # times the breaker tripped open
        self._series = _StepSeries(clock)

    # -- gauge aggregates ---------------------------------------------------
    def _transition(self, state: str) -> None:
        self.state = state
        self._series.set(BreakerState._VALUE[state])

    def snapshot(self) -> dict[str, float]:
        """Gauge-shaped view (:meth:`Gauge.bind_sampler` contract)."""
        return self._series.snapshot()

    # -- the state machine --------------------------------------------------
    def allow(self) -> bool:
        """May the caller route work at this target right now?

        While open, flips to half-open (one trial allowed) once the
        cooldown has elapsed.
        """
        if self.state == BreakerState.CLOSED:
            return True
        if self.state == BreakerState.OPEN:
            if self.clock() - self.opened_at >= self.cooldown_s:
                self._transition(BreakerState.HALF_OPEN)
                return True
            return False
        return True  # half-open: the trial is in flight

    def record_failure(self) -> bool:
        """Fold in one failure; returns True when this call tripped the
        breaker open (new quarantine)."""
        if self.state == BreakerState.HALF_OPEN:
            # The half-open trial failed: straight back to open.
            self.opened_at = self.clock()
            self.open_count += 1
            self._transition(BreakerState.OPEN)
            return True
        if self.state == BreakerState.OPEN:
            return False
        self.failures += 1
        if self.failures >= self.threshold:
            self.failures = 0
            self.opened_at = self.clock()
            self.open_count += 1
            self._transition(BreakerState.OPEN)
            return True
        return False

    def record_success(self) -> None:
        if self.state == BreakerState.CLOSED:
            self.failures = 0
            return
        # A success in half-open (or a stale success racing the open
        # transition) closes the breaker and resets the failure run.
        self.failures = 0
        self._transition(BreakerState.CLOSED)


class CircuitBreaker:
    """A keyed family of :class:`BreakerState` machines.

    Keys name quarantine targets: ``kernel:<name>`` for hardware
    kernels, ``device:fpga`` for the card as a whole. Each key's state
    is exported as one ``circuit_breaker_state{target}`` series, bound
    lazily on first use so fault-free runs export no breaker series at
    all (keeping existing snapshots unchanged).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        threshold: int,
        cooldown_s: float,
        metrics: Optional[MetricsRegistry] = None,
        on_open: Optional[Callable[[str], None]] = None,
        on_close: Optional[Callable[[str], None]] = None,
    ):
        self._clock = clock
        self._threshold = threshold
        self._cooldown_s = cooldown_s
        self._metrics = metrics
        self._on_open = on_open
        self._on_close = on_close
        self._states: dict[str, BreakerState] = {}

    def _state(self, key: str) -> BreakerState:
        state = self._states.get(key)
        if state is None:
            state = BreakerState(self._clock, self._threshold, self._cooldown_s)
            self._states[key] = state
            if self._metrics is not None:
                self._metrics.gauge(
                    "circuit_breaker_state",
                    "per-target breaker state (0 closed, 0.5 half-open, 1 open)",
                    labelnames=("target",),
                ).labels(target=key).bind_sampler(state.snapshot)
        return state

    def allow(self, key: str) -> bool:
        state = self._states.get(key)
        return True if state is None else state.allow()

    def record_failure(self, key: str) -> bool:
        """Returns True when this failure tripped the breaker open."""
        tripped = self._state(key).record_failure()
        if tripped and self._on_open is not None:
            self._on_open(key)
        return tripped

    def record_success(self, key: str) -> None:
        state = self._states.get(key)
        if state is None:
            return
        was_closed = state.state == BreakerState.CLOSED
        state.record_success()
        if not was_closed and self._on_close is not None:
            # open/half-open -> closed: the target recovered. Listeners
            # use this to re-arm machinery that was disabled while the
            # target was quarantined (e.g. the scheduler's background
            # reconfiguration retry budget).
            self._on_close(key)

    def state_of(self, key: str) -> str:
        state = self._states.get(key)
        return BreakerState.CLOSED if state is None else state.state

    def states(self) -> dict[str, str]:
        return {key: state.state for key, state in sorted(self._states.items())}


class OverloadGuard:
    """The overload-protection state machine: brownout ladder plus the
    bounded, deadline-aware admission queue accounting.

    States are the ladder's rungs — ``full`` (0), ``x86-only`` (1),
    ``shed`` (2) — driven by :meth:`update` from the scheduler's x86
    load with hysteresis per :class:`OverloadConfig`. Like
    :class:`BreakerState`, the numeric encoding doubles as a pull-mode
    gauge (``brownout_state``), and the admission queue depth is a
    second one (``admission_queue_depth``); each is a
    :class:`_StepSeries` sampled at snapshot time. Both families — plus
    ``shed_total{reason}`` — exist only when a guard is constructed,
    so runs without overload protection export exactly the metric set
    they always did.
    """

    FULL, X86_ONLY, SHED = "full", "x86-only", "shed"
    _VALUE = {FULL: 0.0, X86_ONLY: 1.0, SHED: 2.0}

    def __init__(
        self,
        clock: Callable[[], float],
        config: OverloadConfig,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.clock = clock
        self.config = config
        self.state = OverloadGuard.FULL
        self.depth = 0             # requests waiting in the admission queue
        self.transitions = 0       # ladder moves (any direction)
        self._last_load = 0.0      # most recent load fed to update()
        self._brownout = _StepSeries(clock)
        self._queue = _StepSeries(clock)
        self._shed_children: dict[str, object] = {}
        self._m_shed = None
        if metrics is not None:
            self._m_shed = metrics.counter(
                "shed_total",
                "requests refused by overload protection, by reason",
                labelnames=("reason",),
            )
            metrics.gauge(
                "brownout_state",
                "brownout ladder rung (0 full, 1 x86-only, 2 shed)",
            ).bind_sampler(self._brownout.snapshot)
            metrics.gauge(
                "admission_queue_depth",
                "requests waiting in the scheduler admission queue",
            ).bind_sampler(self._queue.snapshot)

    # -- the ladder ----------------------------------------------------------
    def _transition(self, state: str) -> None:
        self.state = state
        self._brownout.set(OverloadGuard._VALUE[state])
        self.transitions += 1

    def update(self, load: float) -> str:
        """Advance the ladder for the current x86 load; returns the
        (possibly new) state. Hysteresis: rungs engage at their enter
        threshold and release only at their lower exit threshold."""
        cfg = self.config
        self._last_load = float(load)
        if self.state == OverloadGuard.FULL:
            if load >= cfg.shed_enter_load:
                self._transition(OverloadGuard.SHED)
            elif load >= cfg.x86_only_enter_load:
                self._transition(OverloadGuard.X86_ONLY)
        elif self.state == OverloadGuard.X86_ONLY:
            if load >= cfg.shed_enter_load:
                self._transition(OverloadGuard.SHED)
            elif load <= cfg.x86_only_exit_load:
                self._transition(OverloadGuard.FULL)
        else:  # SHED
            if load <= cfg.shed_exit_load:
                if load <= cfg.x86_only_exit_load:
                    self._transition(OverloadGuard.FULL)
                else:
                    self._transition(OverloadGuard.X86_ONLY)
        return self.state

    @property
    def x86_only(self) -> bool:
        """While at (or above) the x86-only rung, Algorithm 2 is
        short-circuited to the x86 target: accelerator occupancy is
        what the brownout is protecting."""
        return self.state != OverloadGuard.FULL

    @property
    def shedding(self) -> bool:
        return self.state == OverloadGuard.SHED

    @property
    def brownout_level(self) -> int:
        """The rung as an integer (what :class:`LoadDigest` carries)."""
        return int(OverloadGuard._VALUE[self.state])

    # -- admission -----------------------------------------------------------
    def admit(
        self,
        now: float,
        deadline_at: Optional[float] = None,
        estimate_s: float = 0.0,
    ) -> Optional[str]:
        """Admission decision for one request: ``None`` to admit, else
        the shed reason. Pure — counting and queue accounting are the
        caller's (:meth:`count_shed` / :meth:`enqueued` /
        :meth:`dequeued`)."""
        if self.state == OverloadGuard.SHED:
            return "brownout"
        if self.depth >= self.config.admission_queue_limit:
            return "queue_full"
        estimate = (
            estimate_s + self._last_load * self.config.deadline_load_cost_s
        )
        if (
            deadline_at is not None
            and now + estimate + self.config.deadline_margin_s >= deadline_at
        ):
            return "deadline"
        return None

    def count_shed(self, reason: str) -> None:
        if self._m_shed is None:
            return
        child = self._shed_children.get(reason)
        if child is None:
            child = self._shed_children[reason] = self._m_shed.labels(
                reason=reason
            )
        child.inc()

    def enqueued(self) -> None:
        self.depth += 1
        self._queue.set(float(self.depth))

    def dequeued(self) -> None:
        self.depth = max(0, self.depth - 1)
        self._queue.set(float(self.depth))

    def snapshot(self) -> dict[str, float]:
        """The backpressure view a :class:`LoadDigest` carries."""
        return {
            "queue_depth": float(self.depth),
            "brownout": float(self.brownout_level),
        }


class ResiliencePolicy:
    """The runtime's shared resilience brain.

    One instance per :class:`~repro.core.runtime.XarTrekRuntime`; the
    application run loop, the scheduler server, and the chaos harness
    all consult it. Counter families are registered eagerly (they
    appear in every export at zero, making regressions diffable);
    breaker gauge series appear only for targets that ever failed.
    """

    KERNEL_PREFIX = "kernel:"
    DEVICE_KEY = "device:fpga"

    def __init__(
        self,
        clock: Callable[[], float],
        metrics: MetricsRegistry,
        config: Optional[ResilienceConfig] = None,
    ):
        self.config = config or ResilienceConfig()
        self.metrics = metrics
        self._m_retries = metrics.counter(
            "retries_total",
            "FPGA kernel-run retries after mid-flight faults",
            labelnames=("kernel",),
        )
        self._m_fallbacks = metrics.counter(
            "fallbacks_total",
            "invocations served by x86 instead of the decided target",
            labelnames=("reason",),
        )
        self._m_quarantines = metrics.counter(
            "quarantines_total",
            "circuit-breaker trips into the open state",
            labelnames=("target",),
        )
        self._device_recovery_listeners: list[Callable[[], None]] = []
        # Label-child and key memos: labels() re-validates labelnames and
        # re-hashes the key tuple on every call, which shows up in the
        # per-client hot loop; the children are stable for a run.
        self._retry_children: dict[str, object] = {}
        self._fallback_children: dict[str, object] = {}
        self._kernel_keys: dict[str, str] = {}
        self.breaker = CircuitBreaker(
            clock,
            threshold=self.config.breaker_failure_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            metrics=metrics,
            on_open=self._count_quarantine,
            on_close=self._on_breaker_close,
        )
        # Overload protection is opt-in: without a config the attribute
        # stays None and the scheduler admits everything, exactly as
        # before this layer existed.
        self.overload: Optional[OverloadGuard] = (
            OverloadGuard(clock, self.config.overload, metrics)
            if self.config.overload is not None
            else None
        )

    def _count_quarantine(self, key: str) -> None:
        self._m_quarantines.labels(target=key).inc()

    def _on_breaker_close(self, key: str) -> None:
        if key == self.DEVICE_KEY:
            for listener in self._device_recovery_listeners:
                listener()

    def add_device_recovery_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener`` whenever the device breaker closes again
        (half-open trial success). The scheduler server registers its
        reconfiguration-retry reset here, so a kernel that exhausted
        its background retry budget while the card was sick gets a
        fresh budget once the card is healthy."""
        self._device_recovery_listeners.append(listener)

    # -- counters -----------------------------------------------------------
    def count_retry(self, kernel: str) -> None:
        child = self._retry_children.get(kernel)
        if child is None:
            child = self._retry_children[kernel] = self._m_retries.labels(
                kernel=kernel
            )
        child.inc()

    def count_fallback(self, reason: str) -> None:
        child = self._fallback_children.get(reason)
        if child is None:
            child = self._fallback_children[reason] = self._m_fallbacks.labels(
                reason=reason
            )
        child.inc()

    # -- kernel-level breaker ------------------------------------------------
    def kernel_key(self, kernel: str) -> str:
        key = self._kernel_keys.get(kernel)
        if key is None:
            key = self._kernel_keys[kernel] = f"{self.KERNEL_PREFIX}{kernel}"
        return key

    def allow_kernel(self, kernel: str) -> bool:
        return self.breaker.allow(self.kernel_key(kernel))

    def record_kernel_failure(self, kernel: str) -> bool:
        return self.breaker.record_failure(self.kernel_key(kernel))

    def record_kernel_success(self, kernel: str) -> None:
        self.breaker.record_success(self.kernel_key(kernel))

    # -- device-level breaker ------------------------------------------------
    def allow_device(self) -> bool:
        return self.breaker.allow(self.DEVICE_KEY)

    def record_device_failure(self) -> bool:
        return self.breaker.record_failure(self.DEVICE_KEY)

    def record_device_success(self) -> None:
        self.breaker.record_success(self.DEVICE_KEY)

    # -- summary ------------------------------------------------------------
    def summary(self) -> dict:
        """Availability/goodput view over the policy's own counters plus
        the runtime's invocation counters (shared via the registry).

        ``goodput`` is the fraction of invocations served by the target
        the system *chose* for them — fallbacks complete correctly but
        slower, so goodput < 1.0 with availability 1.0 is exactly the
        graceful-degradation contract.
        """
        fallbacks = {
            key[0]: int(count) for key, count in self._m_fallbacks.as_dict().items()
        }
        retries = int(self._m_retries.value)
        quarantines = int(self._m_quarantines.value)
        invocations = 0
        family = self.metrics.get("invocations_total")
        if family is not None:
            invocations = int(family.value)
        total_fallbacks = sum(fallbacks.values())
        faults = 0
        fault_family = self.metrics.get("faults_injected_total")
        if fault_family is not None:
            faults = int(fault_family.value)
        return {
            "invocations": invocations,
            "faults_injected": faults,
            "retries": retries,
            "fallbacks": fallbacks,
            "fallbacks_total": total_fallbacks,
            "quarantines": quarantines,
            # Zero invocations (empty cohort, or everything shed before
            # reaching the runtime) is a real outcome under overload:
            # report 0.0 goodput rather than pretending perfection.
            "goodput": (
                (invocations - total_fallbacks) / invocations if invocations else 0.0
            ),
            "breaker_states": self.breaker.states(),
        }
