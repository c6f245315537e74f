"""Deterministic discrete-event simulation kernel.

The engine is a small, dependency-free event loop: a :class:`Simulator`
owns a priority queue of timestamped events, and the models advance as
callback chains. A phase that takes simulated time schedules its
continuation (:meth:`Simulator.defer`), and a waiter attaches a callback
to an :class:`Event`. An event costs a queue entry only where simulated
time passes or a waiter really queues; the hand-off from one finished
phase to the next runs its callbacks in place
(:meth:`Event.succeed_in_place`). Determinism is guaranteed by breaking
timestamp ties with a monotonically increasing sequence number, so two
simulations with the same seed replay identically.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

__all__ = [
    "Event",
    "PeriodicCall",
    "SimulationError",
    "Simulator",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. re-triggering)."""


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* once :meth:`succeed`
    or :meth:`fail` is called, and is *processed* after the simulator has
    run its callbacks. Waiters append a callback to :attr:`callbacks`.
    """

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"

    __slots__ = ("sim", "callbacks", "_state", "_value", "_ok", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._state = Event.PENDING
        self._value: Any = None
        self._ok = True
        #: A failed event whose exception a waiter consumes is "defused"
        #: and will not crash the run.
        self.defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != Event.PENDING

    @property
    def processed(self) -> bool:
        return self._state == Event.PROCESSED

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        The trigger/enqueue chain is inlined — one frame instead of
        three on a path the profile shows runs once per event the
        simulation ever schedules.
        """
        if self._state != Event.PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = Event.TRIGGERED
        sim = self.sim
        heapq.heappush(sim._queue, (sim.now, next(sim._seq), self))
        return self

    def succeed_in_place(self, value: Any = None) -> None:
        """Trigger the event successfully and run its callbacks now.

        The hand-off between two phases when no simulated time passes
        between them: a queued :meth:`succeed` would cost an engine
        event only to run the same callbacks at the same instant, after
        whatever else is queued for it. Only a callback that is itself
        running at this instant may call it, and only as its last act.
        A waiter must already be attached, so a path that finishes
        inside the call that created the event (before its caller can
        attach) uses :meth:`succeed` instead.
        """
        if self._state != Event.PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = Event.PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._state != Event.PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = ok
        self._value = value
        self._state = Event.TRIGGERED
        self.sim._enqueue(self.sim.now, self)

    def _process(self) -> None:
        self._state = Event.PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)
        if not self._ok and not self.defused:
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self._state} at {id(self):#x}>"


class _Call(Event):
    """A pre-triggered event that invokes ``fn`` when processed.

    The cheap backbone of :meth:`Simulator.call_in` /
    :meth:`Simulator.call_at`: one heap entry and one attribute instead
    of an extra event plus a closure appended to its callback list.
    """

    __slots__ = ("_fn",)

    def __init__(self, sim: "Simulator", delay: float, fn: Callable[[], Any]):
        if delay < 0:
            raise SimulationError(f"negative call delay {delay!r}")
        super().__init__(sim)
        self._ok = True
        self._state = Event.TRIGGERED
        self._fn = fn
        sim._enqueue(sim.now + delay, self)

    def _process(self) -> None:
        self._state = Event.PROCESSED
        self._fn()
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)


#: Sentinel distinguishing "no argument" from an explicit ``None`` in
#: :meth:`Simulator.defer`.
_NO_ARG = object()


class _Deferred:
    """A recyclable scheduled-call record — the zero-allocation backbone
    of :meth:`Simulator.defer`.

    Unlike :class:`_Call` this is *not* an :class:`Event`: ``defer()``
    returns no handle, so nothing outside the kernel can hold a
    reference to a record, wait on it, or observe it after it fires.
    That guarantee is what makes recycling safe — once ``_process``
    runs, the record goes straight back on the simulator's free list
    and the next ``defer()`` reuses it instead of allocating.

    Duck-types the only part of the event protocol the run loops touch
    (``_process``); the queue never compares records because the
    ``(at, seq)`` tuple prefix is unique.
    """

    __slots__ = ("sim", "_fn", "_arg")

    def _process(self) -> None:
        fn = self._fn
        arg = self._arg
        # Detach before invoking: fn may re-defer and legitimately grab
        # this very record back off the free list.
        self._fn = None
        self._arg = None
        self.sim._free.append(self)
        if arg is _NO_ARG:
            fn()
        else:
            fn(arg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Deferred fn={self._fn!r} at {id(self):#x}>"


class PeriodicCall:
    """A self-rescheduling timer: ``fn()`` every ``interval`` seconds
    until :meth:`cancel`.

    Each tick arms exactly one :class:`_Call` for the next one, so a
    live timer keeps the queue non-empty — callers that own one must
    :meth:`cancel` it before expecting :meth:`Simulator.run` to drain
    (e.g. a fleet's gossip tick is cancelled by ``stop()``).
    ``fn`` runs *before* the next tick is armed; if it raises, the chain
    stops (nothing is rescheduled).
    """

    __slots__ = ("sim", "interval", "fn", "ticks", "_cancelled")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        fn: Callable[[], Any],
        first_at: Optional[float] = None,
    ):
        if interval <= 0:
            raise SimulationError(f"non-positive period {interval!r}")
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.ticks = 0
        self._cancelled = False
        start = sim.now + interval if first_at is None else first_at
        sim.call_at(start, self._tick)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Stop ticking. The already-armed next tick becomes a no-op
        (its heap entry fires but does nothing)."""
        self._cancelled = True

    def _tick(self) -> None:
        if self._cancelled:
            return
        self.ticks += 1
        self.fn()
        if not self._cancelled:  # fn() may have cancelled us
            self.sim.defer(self.interval, self._tick)


class Simulator:
    """The event loop: owns simulated time and the pending-event queue."""

    __slots__ = (
        "now",
        "_queue",
        "_seq",
        "events_processed",
        "_free",
        "deferred_allocations",
        "deferred_reuses",
    )

    def __init__(self):
        self.now: float = 0.0
        #: Binary heap of ``(at, seq, event)`` tuples; ``seq`` breaks
        #: timestamp ties in scheduling order.
        self._queue: list = []
        self._seq = itertools.count()
        #: Events processed so far; the wall-clock bench harness divides
        #: this by elapsed real time to report events/sec.
        self.events_processed: int = 0
        #: Free list of spent :class:`_Deferred` records plus counters
        #: exposing its effectiveness (tested: a long run must mostly
        #: reuse rather than allocate).
        self._free: list = []
        self.deferred_allocations: int = 0
        self.deferred_reuses: int = 0

    # -- scheduling primitives ----------------------------------------------
    def _enqueue(self, at: float, event: Event) -> None:
        heapq.heappush(self._queue, (at, next(self._seq), event))

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def call_at(self, when: float, fn: Callable[[], Any]) -> Event:
        """Run ``fn`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"call_at({when}) is in the past (now={self.now})")
        return _Call(self, when - self.now, fn)

    def call_in(self, delay: float, fn: Callable[[], Any]) -> Event:
        """Run ``fn`` after ``delay`` simulated seconds."""
        return _Call(self, delay, fn)

    def defer(self, delay: float, fn: Callable, arg: Any = _NO_ARG) -> None:
        """Run ``fn`` (or ``fn(arg)``) after ``delay`` simulated seconds,
        returning no handle.

        The fire-and-forget sibling of :meth:`call_in` for the kernel's
        hot paths: because the caller gets nothing back, the scheduled
        record can be recycled through a free list the moment it fires,
        so a steady-state simulation stops allocating for timer-driven
        work entirely. Prefer this over ``call_in(delay, lambda: ...)``
        whenever the returned event is unused — it also saves the
        closure by passing ``arg`` through.
        """
        if delay < 0:
            raise SimulationError(f"negative defer delay {delay!r}")
        free = self._free
        if free:
            record = free.pop()
            self.deferred_reuses += 1
        else:
            record = _Deferred.__new__(_Deferred)
            record.sim = self
            self.deferred_allocations += 1
        record._fn = fn
        record._arg = arg
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), record))

    def call_every(
        self,
        interval: float,
        fn: Callable[[], Any],
        first_at: Optional[float] = None,
    ) -> PeriodicCall:
        """Run ``fn`` every ``interval`` seconds (first tick at
        ``first_at``, default ``now + interval``) until the returned
        :class:`PeriodicCall` is cancelled."""
        return PeriodicCall(self, interval, fn, first_at=first_at)

    # -- execution -----------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or ``None`` if queue empty."""
        return self._queue[0][0] if self._queue else None

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("step() on an empty queue")
        at, _seq, event = heapq.heappop(self._queue)
        self.now = at
        self.events_processed += 1
        event._process()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until simulated time ``until``.

        When ``until`` is given, time is advanced to exactly ``until``
        even if the last event fires earlier.

        The drain loop calls ``heappop`` directly instead of going
        through ``step()``'s method dispatch, which is worth ~15% of
        kernel time on event-dense scenarios.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past (now={self.now})")
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        try:
            if until is None:
                while queue:
                    at, _seq, event = pop(queue)
                    self.now = at
                    processed += 1
                    event._process()
            else:
                while queue and queue[0][0] <= until:
                    at, _seq, event = pop(queue)
                    self.now = at
                    processed += 1
                    event._process()
        finally:
            self.events_processed += processed
        if until is not None:
            self.now = max(self.now, until)

    def run_until_event(self, event: Event) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises the event's exception if it failed, or
        :class:`SimulationError` if the queue drains first.
        """
        event.defused = True
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        try:
            while event._state != Event.PROCESSED:
                if not queue:
                    raise SimulationError("simulation ended before event triggered")
                at, _seq, pending = pop(queue)
                self.now = at
                processed += 1
                pending._process()
        finally:
            self.events_processed += processed
        if not event._ok:
            raise event._value
        return event._value
