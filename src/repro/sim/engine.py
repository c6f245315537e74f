"""Deterministic discrete-event simulation kernel.

The engine is a small, dependency-free event loop: a :class:`Simulator`
owns a priority queue of timestamped calls, and the models advance as
callback chains. A phase that takes simulated time schedules its
continuation (:meth:`Simulator.defer`), and a waiter attaches a callback
to an :class:`Event`. Every queue entry has one shape,
``(at, seq, fn, arg)``: a deferred call queues its own function, and a
triggered event queues its processing. An event costs a queue entry
only where simulated time passes or a waiter really queues; the
hand-off from one finished phase to the next runs its callbacks in
place (:meth:`Event.succeed_in_place`). Determinism is guaranteed by
breaking timestamp ties with a monotonically increasing sequence
number, so two simulations with the same seed replay identically.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Any, Callable, Optional

__all__ = [
    "Event",
    "PeriodicCall",
    "SimulationError",
    "Simulator",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. re-triggering)."""


#: The ``arg`` of a queue entry whose function takes no argument; tells
#: "no argument" apart from an explicit ``None``.
_NO_ARG = object()


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
        seq = sim._seq
        sim._seq = seq + 1
        heapq.heappush(sim._queue, (sim.now, seq, Event._process, self))
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
        if self._state != Event.PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self._state = Event.TRIGGERED
        self.sim._enqueue(self.sim.now, self)
        return self

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


class PeriodicCall:
    """A self-rescheduling timer: ``fn()`` every ``interval`` seconds
    until :meth:`cancel`.

    Each tick queues exactly one call for the next one, so a live timer
    keeps the queue non-empty — callers that own one must :meth:`cancel`
    it before expecting :meth:`Simulator.run` to drain (e.g. a fleet's
    gossip tick is cancelled by ``stop()``).
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
        (its heap entry fires but does nothing). ``fn`` is dropped, so
        that queued tick keeps nothing of ``fn``'s owner alive."""
        self._cancelled = True
        self.fn = None

    def _tick(self) -> None:
        if self._cancelled:
            return
        self.ticks += 1
        self.fn()
        if not self._cancelled:  # fn() may have cancelled us
            self.sim.defer(self.interval, self._tick)


class Simulator:
    """The event loop: owns simulated time and the pending-call queue."""

    __slots__ = ("now", "_queue", "_seq", "events_processed")

    def __init__(self):
        self.now: float = 0.0
        #: Binary heap of ``(at, seq, fn, arg)`` entries, each run as
        #: ``fn(arg)``, or ``fn()`` when ``arg`` is ``_NO_ARG``. ``seq``
        #: breaks timestamp ties in scheduling order, so ``fn`` and
        #: ``arg`` are never compared; ``_seq`` is the next one.
        self._queue: list = []
        self._seq = 0
        #: Queue entries run so far; the benchmark reports it as the
        #: simulated events of an iteration.
        self.events_processed: int = 0

    # -- scheduling primitives ----------------------------------------------
    def _enqueue(self, at: float, event: Event) -> None:
        """Queue the processing of a triggered ``event`` at time ``at``."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (at, seq, Event._process, event))

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def call_at(self, when: float, fn: Callable, arg: Any = _NO_ARG) -> None:
        """Run ``fn`` (or ``fn(arg)``) at absolute simulated time ``when``."""
        if not self.now <= when < inf:  # also refuses NaN
            raise SimulationError(
                f"call_at({when}) is in the past or not a finite time (now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (when, seq, fn, arg))

    def defer(self, delay: float, fn: Callable, arg: Any = _NO_ARG) -> None:
        """Run ``fn`` (or ``fn(arg)``) after ``delay`` simulated seconds.

        Returns no handle: a caller that needs to wait on the outcome
        waits on an :class:`Event` the deferred call triggers. Passing
        the one value ``fn`` needs as ``arg`` saves building a closure.
        """
        if not 0.0 <= delay < inf:  # also refuses NaN
            raise SimulationError(
                f"defer delay must be finite and >= 0, got {delay!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, fn, arg))

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

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until simulated time ``until``.

        When ``until`` is given, time is advanced to exactly ``until``
        even if the last event fires earlier.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past (now={self.now})")
        queue = self._queue
        pop = heapq.heappop
        no_arg = _NO_ARG
        processed = 0
        try:
            if until is None:
                while queue:
                    at, _seq, fn, arg = pop(queue)
                    self.now = at
                    processed += 1
                    if arg is no_arg:
                        fn()
                    else:
                        fn(arg)
            else:
                while queue and queue[0][0] <= until:
                    at, _seq, fn, arg = pop(queue)
                    self.now = at
                    processed += 1
                    if arg is no_arg:
                        fn()
                    else:
                        fn(arg)
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
        no_arg = _NO_ARG
        processed = 0
        try:
            while event._state != Event.PROCESSED:
                if not queue:
                    raise SimulationError("simulation ended before event triggered")
                at, _seq, fn, arg = pop(queue)
                self.now = at
                processed += 1
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
        finally:
            self.events_processed += processed
        if not event._ok:
            raise event._value
        return event._value
