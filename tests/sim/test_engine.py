"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Event, SimulationError, Simulator
from tests.core.process_reference import timeout


class TestEventLifecycle:
    def test_fresh_event_is_pending(self):
        sim = Simulator()
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_unavailable_before_trigger(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_carries_value(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_failed_event_raises_at_processing(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_defused_failure_does_not_crash_run(self):
        sim = Simulator()
        ev = sim.event()
        ev.defused = True
        ev.fail(ValueError("boom"))
        sim.run()  # no raise
        assert not ev.ok


class TestScheduling:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        timeout(sim, 2.5)
        sim.run()
        assert sim.now == 2.5

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            timeout(sim, -1)

    def test_timeout_value_passed_through(self):
        sim = Simulator()
        ev = timeout(sim, 1.0, value="payload")
        sim.run()
        assert ev.value == "payload"

    def test_call_in_runs_callback_at_right_time(self):
        sim = Simulator()
        seen = []
        sim.call_in(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_call_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_call_at_in_the_past_rejected(self):
        sim = Simulator()
        timeout(sim, 10)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(5.0, lambda: None)

    def test_events_process_in_time_order(self):
        sim = Simulator()
        order = []
        sim.call_in(2.0, lambda: order.append("b"))
        sim.call_in(1.0, lambda: order.append("a"))
        sim.call_in(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.call_in(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_callbacks_see_triggered_event(self):
        sim = Simulator()
        ev = timeout(sim, 1.0, value=99)
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [99]


class TestSucceedInPlace:
    def test_runs_attached_callbacks_without_a_queue_entry(self):
        sim = Simulator()
        ev = sim.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append((sim.now, e.value)))
        sim.call_in(1.0, lambda: ev.succeed_in_place("v"))
        sim.run()
        assert seen == [(1.0, "v")]
        assert ev.processed and ev.ok and ev.value == "v"
        assert sim.events_processed == 1  # the timer only

    def test_runs_ahead_of_events_already_queued_for_the_instant(self):
        sim = Simulator()
        order = []
        queued, in_place = sim.event(), sim.event()
        queued.callbacks.append(lambda _e: order.append("queued"))
        in_place.callbacks.append(lambda _e: order.append("in place"))

        def hand_off():
            queued.succeed()
            in_place.succeed_in_place()

        sim.call_in(1.0, hand_off)
        sim.run()
        assert order == ["in place", "queued"]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed_in_place()
        with pytest.raises(SimulationError):
            ev.succeed_in_place()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_run_until_event_returns_a_value_handed_over_in_place(self):
        sim = Simulator()
        ev = sim.event()
        sim.call_in(2.0, lambda: ev.succeed_in_place("done"))
        assert sim.run_until_event(ev) == "done"
        assert sim.now == 2.0


class TestRunControl:
    def test_run_until_stops_the_clock_exactly(self):
        sim = Simulator()
        timeout(sim, 10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.run()
        assert sim.now == 10.0

    def test_run_until_in_past_rejected(self):
        sim = Simulator()
        timeout(sim, 5.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_step_on_empty_queue_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.step()

    def test_peek_reports_next_event_time(self):
        sim = Simulator()
        assert sim.peek() is None
        timeout(sim, 7.0)
        assert sim.peek() == 7.0

    def test_run_until_event_returns_value(self):
        sim = Simulator()
        ev = timeout(sim, 2.0, value="done")
        assert sim.run_until_event(ev) == "done"
        assert sim.now == 2.0

    def test_run_until_event_raises_failure(self):
        sim = Simulator()
        ev = sim.event()
        sim.call_in(1.0, lambda: ev.fail(RuntimeError("bad")))
        with pytest.raises(RuntimeError, match="bad"):
            sim.run_until_event(ev)

    def test_run_until_event_detects_starvation(self):
        sim = Simulator()
        ev = sim.event()  # never triggered
        with pytest.raises(SimulationError, match="ended before"):
            sim.run_until_event(ev)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run() -> list[tuple[float, str]]:
            sim = Simulator()
            trace = []
            for i in range(50):
                delay = (i * 37 % 11) / 10
                sim.call_in(delay, lambda i=i: trace.append((sim.now, f"ev{i}")))
            sim.run()
            return trace

        assert run() == run()
