"""PeriodicCall / Simulator.call_every (the gossip tick primitive)."""

import weakref

import pytest

from repro.sim import PeriodicCall, SimulationError, Simulator


class TestPeriodicCall:
    def test_ticks_at_fixed_intervals(self):
        sim = Simulator()
        times = []
        timer = sim.call_every(0.5, lambda: times.append(sim.now))
        sim.run(until=2.1)
        timer.cancel()
        assert times == [0.5, 1.0, 1.5, 2.0]
        assert timer.ticks == 4

    def test_first_at_overrides_the_initial_delay(self):
        sim = Simulator()
        times = []
        timer = sim.call_every(1.0, lambda: times.append(sim.now), first_at=0.25)
        sim.run(until=2.5)
        timer.cancel()
        assert times == [0.25, 1.25, 2.25]

    def test_cancel_stops_future_ticks_and_drains(self):
        sim = Simulator()
        times = []
        timer = sim.call_every(1.0, lambda: times.append(sim.now))
        sim.run(until=2.0)
        timer.cancel()
        assert timer.cancelled
        sim.run()  # the already-queued tick must not fire; queue drains
        assert times == [1.0, 2.0]
        assert timer.ticks == 2

    def test_cancelled_tick_keeps_no_reference_to_fn(self):
        class Owner:
            def tick(self):
                pass

        sim = Simulator()
        owner = Owner()
        timer = sim.call_every(1.0, owner.tick)
        sim.run(until=1.5)
        timer.cancel()
        assert sim.peek() == 2.0  # the armed tick is still queued
        alive = weakref.ref(owner)
        del owner
        assert alive() is None
        sim.run()
        assert timer.ticks == 1

    def test_cancel_from_inside_the_callback(self):
        sim = Simulator()
        timer: list[PeriodicCall] = []

        def tick():
            if timer[0].ticks >= 3:
                timer[0].cancel()

        timer.append(sim.call_every(0.1, tick))
        sim.run()  # terminates because the third tick cancels
        assert timer[0].ticks == 3

    def test_non_positive_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_every(0.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_every(-1.0, lambda: None)
