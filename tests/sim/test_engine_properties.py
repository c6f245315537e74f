"""Property-based tests for the simulation kernel.

Random interleavings of the four scheduling primitives (``timeout``,
``call_at``, ``defer``, manually triggered ``event``), including
callbacks that schedule more work mid-run, must never violate the
engine's contract: events process in timestamp order, ``run(until=...)``
never overshoots, identical schedules replay identically, entries due
at the same instant fire in the order they were scheduled, and
triggering an event twice always raises :class:`SimulationError`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimulationError, Simulator
from tests.core.process_reference import timeout

pytestmark = pytest.mark.metrics

_KINDS = ("timeout", "call_at", "defer", "event")

_delays = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)

#: One scheduling op: (primitive, delay, optional nested defer delay).
_ops = st.tuples(
    st.sampled_from(_KINDS), _delays, st.one_of(st.none(), _delays)
)


def _schedule(sim: Simulator, ops, log):
    """Install every op at t=0; fired ops append (time, op_index)."""
    for index, (kind, delay, nested) in enumerate(ops):

        def fire(index=index, nested=nested):
            log.append((sim.now, index))
            if nested is not None:
                # Work scheduled *from* a callback interleaves too.
                sim.defer(nested, lambda: log.append((sim.now, index)))

        if kind == "timeout":
            ev = timeout(sim, delay)
            ev.callbacks.append(lambda _ev, fire=fire: fire())
        elif kind == "call_at":
            sim.call_at(delay, fire)  # absolute == relative at t=0
        elif kind == "defer":
            sim.defer(delay, fire)
        else:
            ev = sim.event()
            ev.callbacks.append(lambda _ev, fire=fire: fire())
            sim.defer(delay, lambda ev=ev: ev.succeed())


#: Kinds of entry a tie-dense schedule mixes: the two timed calls, and
#: an event triggered (succeeded, or failed and defused) right away.
_TIE_KINDS = st.sampled_from(("defer", "call_at", "succeed", "fail"))

#: A delay palette biased toward 0.0, so most entries tie.
_TIE_DELAYS = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0])

#: One entry: (kind, delay, the entries its callback schedules).
_tie_ops = st.recursive(
    st.tuples(_TIE_KINDS, _TIE_DELAYS, st.just(())),
    lambda inner: st.tuples(
        _TIE_KINDS, _TIE_DELAYS, st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=12,
)


def _place(sim: Simulator, op, label, expected, log):
    """Schedule ``op`` now; note its due time and scheduling rank in
    ``expected``. Firing logs ``label`` and schedules the children."""
    kind, delay, children = op

    def fire(*_event):
        log.append((sim.now, label))
        for index, child in enumerate(children):
            _place(sim, child, label + (index,), expected, log)

    if kind in ("defer", "call_at"):
        expected.append((sim.now + delay, len(expected), label))
        if kind == "defer":
            sim.defer(delay, fire)
        else:
            sim.call_at(sim.now + delay, fire)
        return
    ev = sim.event()
    ev.callbacks.append(fire)
    expected.append((sim.now, len(expected), label))
    if kind == "succeed":
        ev.succeed()
    else:
        ev.defused = True
        ev.fail(RuntimeError("expected"))


class TestSameInstantOrder:
    @settings(deadline=None, max_examples=200)
    @given(plan=st.lists(_tie_ops, min_size=1, max_size=12))
    def test_entries_due_together_fire_in_scheduling_order(self, plan):
        sim = Simulator()
        expected: list = []
        log: list = []
        for index, op in enumerate(plan):
            _place(sim, op, (index,), expected, log)
        sim.run()
        assert log == [(due, label) for due, _rank, label in sorted(expected)]


class TestTimestampOrder:
    @settings(deadline=None, max_examples=200)
    @given(ops=st.lists(_ops, max_size=30))
    def test_events_never_process_out_of_order(self, ops):
        sim = Simulator()
        log: list[tuple[float, int]] = []
        _schedule(sim, ops, log)
        sim.run()
        times = [t for t, _ in log]
        assert times == sorted(times)
        # Everything scheduled actually fired.
        expected = len(ops) + sum(1 for _, _, nested in ops if nested is not None)
        assert len(log) == expected

    @settings(deadline=None, max_examples=100)
    @given(ops=st.lists(_ops, max_size=20))
    def test_identical_schedules_replay_identically(self, ops):
        logs = []
        for _ in range(2):
            sim = Simulator()
            log: list[tuple[float, int]] = []
            _schedule(sim, ops, log)
            sim.run()
            logs.append(log)
        assert logs[0] == logs[1]


class TestRunUntil:
    @settings(deadline=None, max_examples=200)
    @given(ops=st.lists(_ops, max_size=20), until=_delays)
    def test_run_until_never_overshoots(self, ops, until):
        sim = Simulator()
        log: list[tuple[float, int]] = []
        _schedule(sim, ops, log)
        sim.run(until=until)
        assert all(t <= until for t, _ in log)
        # Time lands exactly on the horizon, even if the last event
        # fired earlier, and nothing beyond the horizon was consumed.
        assert sim.now == until
        assert sim.peek() is None or sim.peek() > until

    @settings(deadline=None, max_examples=50)
    @given(ops=st.lists(_ops, max_size=15), until=_delays)
    def test_resuming_after_until_processes_the_rest(self, ops, until):
        sim = Simulator()
        log: list[tuple[float, int]] = []
        _schedule(sim, ops, log)
        sim.run(until=until)
        seen_at_pause = len(log)
        sim.run()
        times = [t for t, _ in log]
        assert times == sorted(times)
        assert all(t > until for t, _ in log[seen_at_pause:])

    def test_run_until_in_the_past_raises(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)


class TestRetrigger:
    @settings(deadline=None, max_examples=100)
    @given(
        first=st.sampled_from(["succeed", "fail"]),
        second=st.sampled_from(["succeed", "fail"]),
    )
    def test_retriggering_always_raises(self, first, second):
        sim = Simulator()
        ev = sim.event()
        ev.defused = True  # keep a failed value from crashing the queue
        getattr(ev, first)(RuntimeError("x") if first == "fail" else None)
        with pytest.raises(SimulationError):
            getattr(ev, second)(RuntimeError("y") if second == "fail" else None)

    @settings(deadline=None, max_examples=50)
    @given(delay=_delays)
    def test_timeouts_are_born_triggered(self, delay):
        sim = Simulator()
        ev = timeout(sim, delay)
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            timeout(sim, -1.0)
