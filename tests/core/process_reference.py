"""Generator processes and event combinators: the test-side reference.

The models in ``src/`` are callback chains. The generator client
lifecycle (``client_path_reference.GeneratorRun``), the per-client
cohort model (``cohort_reference.ReferencePopulation``), the page-by-page
DSM protocol and the engine tests still write their reference logic as
processes, so the process machinery lives here:

* :func:`spawn` starts a :class:`Process` from a generator. The process
  yields :class:`~repro.sim.Event` objects and resumes when the yielded
  event is processed, receiving its value at the yield point (or its
  exception thrown in, if it failed).
* :func:`timeout` is an event that fires after a fixed delay.
* :func:`all_of` / :func:`any_of` combine events (:class:`AllOf`,
  :class:`AnyOf`).
* :meth:`Process.interrupt` throws :class:`Interrupt` into a waiting
  process.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.sim import Event, SimulationError, Simulator

__all__ = [
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Process",
    "all_of",
    "any_of",
    "spawn",
    "timeout",
]


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Timeout(Event):
    """An event that triggers itself after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: Simulator, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self._ok = True
        self._value = value
        self._state = Event.TRIGGERED
        sim._enqueue(sim.now + delay, self)


def timeout(sim: Simulator, delay: float, value: Any = None) -> Event:
    """An event that fires ``delay`` simulated seconds from now."""
    return _Timeout(sim, delay, value)


def spawn(sim: Simulator, generator) -> "Process":
    """Start a new process from a generator."""
    return Process(sim, generator)


def all_of(sim: Simulator, events: Iterable[Event]) -> Event:
    return AllOf(sim, list(events))


def any_of(sim: Simulator, events: Iterable[Event]) -> Event:
    return AnyOf(sim, list(events))


class Process(Event):
    """A running simulation process; also an event that fires on exit.

    The process-as-event value is the generator's return value, so other
    processes can wait for completion with ``result = yield proc``.
    """

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, sim: Simulator, generator: Generator[Event, Any, Any]):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"Process needs a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self._waiting_on: Event | None = None
        # Bootstrap: resume for the first time at the current instant.
        sim.defer(0.0, self._boot)

    def _boot(self) -> None:
        self._step(None, as_exception=False)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self._waiting_on is not None:
            try:
                self._waiting_on.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._waiting_on = None
        self.sim.defer(0.0, self._throw_interrupt, cause)

    def _throw_interrupt(self, cause: Any) -> None:
        self._step(Interrupt(cause), as_exception=True)

    # -- internal stepping ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event._ok:
            self._step(event._value, as_exception=False)
        else:
            event.defused = True
            self._step(event._value, as_exception=True)

    def _step(self, value: Any, as_exception: bool) -> None:
        if self._state != Event.PENDING:
            # A stale callback after the process already finished
            # (e.g. interrupted right as its event fired).
            return
        try:
            if as_exception:
                target = self.generator.throw(value)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(target, Event):
            exc = SimulationError(f"process yielded a non-event: {target!r}")
            self.sim.call_in(0, lambda: self._step(exc, as_exception=True))
            return
        if target._state == Event.PROCESSED:
            # Already-processed events resume the process immediately
            # (at the current instant, preserving event ordering).
            self.sim.defer(0.0, self._resume, target)
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)


class _Condition(Event):
    """Base for AllOf/AnyOf: waits on a set of events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("events from different simulators")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if self.triggered:
                # Fast path: an already-processed event decided the
                # condition (AnyOf success, or a fail-fast); don't
                # register dead callbacks on the remaining events.
                break
            if ev.processed:
                self._on_event(ev)
            else:
                ev.callbacks.append(self._on_event)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}

    def _on_event(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every event has triggered; fails fast on failure."""

    __slots__ = ()

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers as soon as one event triggers (or fails)."""

    __slots__ = ()

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        self.succeed(self._collect())
