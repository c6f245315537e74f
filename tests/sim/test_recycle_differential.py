"""Recycled vs allocating defer-path differential.

``Simulator.defer`` recycles spent ``_Deferred`` records through a
free list; ``AllocatingSimulator`` below keeps the pre-recycling
allocation path alive as the differential reference. Recycling is pure
mechanism: for any schedule — including same-timestamp ties,
re-entrant defers from inside a firing callback, failed events, and
cancelled periodic timers — the two must execute the identical
callback sequence at the identical times.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import _NO_ARG, Event, Simulator
from tests.experiments.contract import scale_workload

#: Delay palette biased toward 0.0 so schedules are dense with
#: same-timestamp ties (ordering then rides entirely on seq).
_DELAYS = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 1.75])

#: One op per initial defer: (delay, fan_out, chain_depth).
_OPS = st.tuples(_DELAYS, st.integers(0, 2), st.integers(0, 3))


class AllocatingSimulator(Simulator):
    """A simulator whose every ``defer`` allocates a fresh record.

    Emptying the free list before each ``defer`` leaves the kernel's
    own scheduling untouched, so only record reuse differs.
    """

    def defer(self, delay, fn, arg=_NO_ARG):
        self._free.clear()
        super().defer(delay, fn, arg)


def _run_plan(plan, simulator=Simulator):
    """Execute a schedule drawn by hypothesis; return its trace."""
    sim = simulator()
    trace = []

    def chained(op_index, depth, delay, fan_out):
        def fire():
            trace.append((sim.now, op_index, depth))
            if depth > 0:
                # Re-entrant defers: the record that just fired is on
                # the free list again and may be handed straight back.
                for child in range(fan_out):
                    sim.defer(
                        delay + 0.25 * child,
                        chained(op_index, depth - 1, delay, fan_out),
                    )

        return fire

    for op_index, (delay, fan_out, depth) in enumerate(plan):
        sim.defer(delay, chained(op_index, depth, delay, max(1, fan_out)))

    # A one-shot event with a callback, succeeded from a deferred tick.
    marker = sim.event()
    marker.callbacks.append(lambda ev: trace.append((sim.now, "event", ev.value)))
    sim.defer(0.5, lambda: marker.succeed("ok"))

    # A failing event whose exception is consumed (defused).
    failing = sim.event()
    failing.defused = True
    failing.callbacks.append(lambda ev: trace.append((sim.now, "failed", ev._ok)))
    sim.defer(0.75, lambda: failing.fail(RuntimeError("expected")))

    # A periodic timer cancelled mid-run: the already-armed tick fires
    # as a no-op, exercising the cancelled arc of the recycled path.
    ticker = sim.call_every(0.6, lambda: trace.append((sim.now, "tick")))
    sim.defer(2.0, ticker.cancel)

    sim.run()
    return trace, sim


class TestRecycleDifferential:
    @settings(max_examples=60, deadline=None)
    @given(plan=st.lists(_OPS, min_size=1, max_size=24))
    def test_recycled_trace_matches_allocating_trace(self, plan):
        recycled_trace, recycled_sim = _run_plan(plan)
        reference_trace, reference_sim = _run_plan(plan, AllocatingSimulator)
        assert recycled_trace == reference_trace
        assert recycled_sim.now == reference_sim.now
        assert recycled_sim.events_processed == reference_sim.events_processed

    @settings(max_examples=20, deadline=None)
    @given(plan=st.lists(_OPS, min_size=8, max_size=24))
    def test_reference_mode_never_reuses(self, plan):
        _trace, sim = _run_plan(plan, AllocatingSimulator)
        assert sim.deferred_reuses == 0
        assert sim.deferred_allocations > 0

    def test_tie_heavy_chain_mostly_reuses(self):
        # Steady-state chained defers should be near-allocation-free:
        # each firing record is recycled into the next defer.
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 500:
                sim.defer(0.0, tick)

        sim.defer(0.0, tick)
        sim.run()
        assert count[0] == 500
        assert sim.deferred_reuses >= 498
        assert sim.deferred_allocations <= 2

    def test_interleaved_event_states_survive_recycling(self):
        # Events triggered from recycled records keep their own
        # identity/state; the free list only ever holds _Deferred
        # records, never Events.
        sim = Simulator()
        events = [sim.event() for _ in range(5)]
        for index, ev in enumerate(events):
            sim.defer(0.1 * index, lambda e=ev, i=index: e.succeed(i))
        sim.run()
        assert [ev.value for ev in events] == list(range(5))
        assert all(ev._state == Event.PROCESSED for ev in events)


class TestAllocationReuse:
    def test_scale_quick_mostly_recycles_deferred_records(self):
        # The zero-allocation contract on the real workload (the quick
        # scale_stress shape): steady-state defer traffic must be
        # served overwhelmingly from the free list, not the allocator.
        runtime, records = scale_workload(seed=0, n_clients=250, background=25)
        sim = runtime.platform.sim
        assert all(rec.finished for rec in records)
        assert sim.deferred_reuses > 0
        total = sim.deferred_reuses + sim.deferred_allocations
        assert sim.deferred_reuses / total > 0.95, (
            f"free list served only {sim.deferred_reuses}/{total} defers"
        )
