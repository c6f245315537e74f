"""Unit tests for generator-based processes and event combinators."""

import pytest

from repro.sim import SimulationError, Simulator
from tests.core.process_reference import (
    AllOf,
    AnyOf,
    Interrupt,
    all_of,
    any_of,
    spawn,
    timeout,
)


def test_process_runs_and_returns_value():
    sim = Simulator()

    def worker():
        yield timeout(sim, 1.0)
        yield timeout(sim, 2.0)
        return "result"

    proc = spawn(sim, worker())
    sim.run()
    assert proc.processed
    assert proc.value == "result"
    assert sim.now == 3.0


def test_process_receives_event_values():
    sim = Simulator()
    seen = []

    def worker():
        value = yield timeout(sim, 1.0, value="hello")
        seen.append(value)

    spawn(sim, worker())
    sim.run()
    assert seen == ["hello"]


def test_waiting_on_process_gets_return_value():
    sim = Simulator()
    out = []

    def child():
        yield timeout(sim, 1.0)
        return 42

    def parent():
        value = yield spawn(sim, child())
        out.append((sim.now, value))

    spawn(sim, parent())
    sim.run()
    assert out == [(1.0, 42)]


def test_waiting_on_already_finished_process():
    sim = Simulator()
    out = []

    def child():
        yield timeout(sim, 1.0)
        return "early"

    child_proc = spawn(sim, child())

    def parent():
        yield timeout(sim, 5.0)
        value = yield child_proc  # already processed
        out.append((sim.now, value))

    spawn(sim, parent())
    sim.run()
    assert out == [(5.0, "early")]


def test_exception_in_process_fails_its_event():
    sim = Simulator()

    def worker():
        yield timeout(sim, 1.0)
        raise RuntimeError("worker died")

    proc = spawn(sim, worker())
    proc.defused = True
    sim.run()
    assert not proc.ok
    assert isinstance(proc.value, RuntimeError)


def test_failure_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def child():
        yield timeout(sim, 1.0)
        raise ValueError("child failed")

    def parent():
        try:
            yield spawn(sim, child())
        except ValueError as exc:
            caught.append(str(exc))

    spawn(sim, parent())
    sim.run()
    assert caught == ["child failed"]


def test_unhandled_child_failure_crashes_run():
    sim = Simulator()

    def child():
        yield timeout(sim, 1.0)
        raise ValueError("unhandled")

    def parent():
        yield spawn(sim, child())

    parent_proc = spawn(sim, parent())
    parent_proc.defused = True
    sim.run()
    assert not parent_proc.ok


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def worker():
        yield 12345

    proc = spawn(sim, worker())
    proc.defused = True
    sim.run()
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        spawn(sim, lambda: None)


class TestInterrupt:
    def test_interrupt_delivers_cause(self):
        sim = Simulator()
        caught = []

        def worker():
            try:
                yield timeout(sim, 100.0)
            except Interrupt as intr:
                caught.append((sim.now, intr.cause))

        proc = spawn(sim, worker())
        sim.call_in(2.0, lambda: proc.interrupt("preempted"))
        sim.run()
        assert caught == [(2.0, "preempted")]

    def test_interrupted_process_can_continue(self):
        sim = Simulator()
        finished_at = []

        def worker():
            try:
                yield timeout(sim, 100.0)
            except Interrupt:
                pass
            yield timeout(sim, 1.0)
            finished_at.append(sim.now)
            return "recovered"

        proc = spawn(sim, worker())
        sim.call_in(2.0, lambda: proc.interrupt())
        sim.run()
        assert proc.value == "recovered"
        # The process resumed at t=2 and finished at t=3; the abandoned
        # 100 s timeout still drains the queue afterwards.
        assert finished_at == [3.0]

    def test_interrupting_dead_process_rejected(self):
        sim = Simulator()

        def worker():
            yield timeout(sim, 1.0)

        proc = spawn(sim, worker())
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()


class TestCombinators:
    def test_all_of_waits_for_every_event(self):
        sim = Simulator()
        times = []

        def worker():
            yield all_of(sim, [timeout(sim, 1.0), timeout(sim, 3.0), timeout(sim, 2.0)])
            times.append(sim.now)

        spawn(sim, worker())
        sim.run()
        assert times == [3.0]

    def test_any_of_fires_on_first(self):
        sim = Simulator()
        times = []

        def worker():
            yield any_of(sim, [timeout(sim, 5.0), timeout(sim, 1.0)])
            times.append(sim.now)

        spawn(sim, worker())
        sim.run()
        assert times == [1.0]

    def test_all_of_collects_values(self):
        sim = Simulator()
        got = {}

        def worker():
            a = timeout(sim, 1.0, value="a")
            b = timeout(sim, 2.0, value="b")
            result = yield all_of(sim, [a, b])
            got.update({ev.value: True for ev in result})

        spawn(sim, worker())
        sim.run()
        assert got == {"a": True, "b": True}

    def test_empty_all_of_fires_immediately(self):
        sim = Simulator()
        times = []

        def worker():
            yield all_of(sim, [])
            times.append(sim.now)

        spawn(sim, worker())
        sim.run()
        assert times == [0.0]

    def test_all_of_fails_fast(self):
        sim = Simulator()
        caught = []
        bad = sim.event()
        sim.call_in(1.0, lambda: bad.fail(RuntimeError("nope")))

        def worker():
            try:
                yield all_of(sim, [timeout(sim, 10.0), bad])
            except RuntimeError:
                caught.append(sim.now)

        spawn(sim, worker())
        sim.run()
        assert caught == [1.0]

    def test_condition_rejects_foreign_events(self):
        sim_a, sim_b = Simulator(), Simulator()
        with pytest.raises(SimulationError):
            AllOf(sim_a, [sim_b.event()])

    def test_any_of_with_already_processed_event(self):
        sim = Simulator()
        ev = timeout(sim, 1.0, value="past")
        sim.run()
        combined = AnyOf(sim, [ev, sim.event()])
        sim.run()
        assert combined.processed
