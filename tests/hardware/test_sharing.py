"""Unit + property tests for the fair-share (processor-sharing) server."""

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import BackgroundLoad
from repro.hardware.sharing import FairShareServer, _completion_tolerance
from repro.sim import SimulationError, Simulator
from tests.core.process_reference import timeout


def make_server(capacity=6.0, job_cap=1.0):
    sim = Simulator()
    return sim, FairShareServer(sim, "cpu", capacity=capacity, job_cap=job_cap)


class TestBasics:
    def test_single_job_runs_at_cap(self):
        sim, srv = make_server()
        job = srv.submit(2.0)
        sim.run_until_event(job.done)
        assert sim.now == pytest.approx(2.0)

    def test_jobs_below_capacity_run_independently(self):
        sim, srv = make_server(capacity=6, job_cap=1)
        for _ in range(6):
            srv.submit(1.0)
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_oversubscription_dilates_linearly(self):
        # 12 unit jobs on 6 cores: each runs at rate 0.5 -> done at 2.0.
        sim, srv = make_server()
        jobs = [srv.submit(1.0) for _ in range(12)]
        sim.run()
        assert sim.now == pytest.approx(2.0)
        assert all(j.finish_time == pytest.approx(2.0) for j in jobs)

    def test_uncapped_job_uses_full_capacity(self):
        sim, srv = make_server(capacity=100.0, job_cap=None)
        job = srv.submit(200.0)
        sim.run_until_event(job.done)
        assert sim.now == pytest.approx(2.0)

    def test_zero_work_completes_immediately(self):
        sim, srv = make_server()
        job = srv.submit(0.0)
        assert job.done.triggered
        assert srv.active_jobs == 0

    def test_negative_work_rejected(self):
        _sim, srv = make_server()
        with pytest.raises(SimulationError):
            srv.submit(-1.0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            FairShareServer(Simulator(), "x", capacity=0)


class TestDynamics:
    def test_late_arrival_slows_everyone(self):
        # 1 core. Job A (2s) starts alone; B (1s) arrives at t=1.
        sim, srv = make_server(capacity=1, job_cap=1)
        job_a = srv.submit(2.0, tag="a")
        sim.call_in(1.0, lambda: srv.submit(1.0, tag="b"))
        sim.run()
        # At t=1, A has 1.0 left, B has 1.0; each at rate 0.5 -> both at t=3.
        assert job_a.finish_time == pytest.approx(3.0)
        assert sim.now == pytest.approx(3.0)

    def test_cancel_removes_job_and_speeds_up_rest(self):
        sim, srv = make_server(capacity=1)
        job_a = srv.submit(4.0, tag="a")
        job_b = srv.submit(4.0, tag="b")
        sim.call_in(2.0, lambda: srv.cancel(job_b))
        sim.run()
        # 2s shared (1.0 each done), then A alone finishes remaining 3.0.
        assert job_a.finish_time == pytest.approx(5.0)
        assert not job_b.done.triggered

    def test_remaining_work_tracks_service(self):
        sim, srv = make_server(capacity=1)
        job = srv.submit(4.0)
        srv.submit(4.0)
        sim.run(until=2.0)
        assert srv.remaining_work(job) == pytest.approx(3.0)

    def test_load_metrics(self):
        sim, srv = make_server(capacity=2, job_cap=1)
        srv.submit(1.0)
        srv.submit(1.0)
        sim.run()
        assert srv.utilization() == pytest.approx(1.0)
        assert srv.mean_load() == pytest.approx(2.0)

    def test_rate_per_job_query(self):
        _sim, srv = make_server(capacity=6, job_cap=1)
        assert srv.rate_per_job(3) == 1.0
        assert srv.rate_per_job(12) == 0.5
        assert srv.rate_per_job(0) == 0.0


def _reference_finish_times(arrivals, capacity, job_cap):
    """Per-event processor sharing: O(n) remaining-work rescaling.

    The pre-optimization model the virtual-time server replaced: walk
    membership changes chronologically and drain every active job's
    remaining work at the common rate. Used as ground truth.
    """
    pending = sorted(
        ((t, w, i) for i, (t, w) in enumerate(arrivals)), key=lambda p: (p[0], p[2])
    )
    active = {}  # index -> remaining work
    finish = {}
    now = 0.0
    while pending or active:
        if active:
            n = len(active)
            rate = min(capacity / n, job_cap) if job_cap is not None else capacity / n
            to_completion = min(active.values()) / rate
        else:
            rate = 0.0
            to_completion = math.inf
        to_arrival = pending[0][0] - now if pending else math.inf
        dt = min(to_completion, to_arrival)
        for i in active:
            active[i] -= rate * dt
        now += dt
        if to_arrival <= to_completion:
            t, w, i = pending.pop(0)
            active[i] = w
        else:
            done = [i for i, rem in active.items() if rem <= 1e-12 * max(1.0, now)]
            for i in done:
                finish[i] = now
                del active[i]
    return finish


class TestProperties:
    @given(
        arrivals=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=20.0),
                st.floats(min_value=0.01, max_value=30.0),
            ),
            min_size=1,
            max_size=15,
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_epoch_batched_server_matches_per_event_model(self, arrivals, capacity):
        """The virtual-time (epoch-batched) server must produce the same
        completion times as the per-event O(n)-rescaling model it
        replaced, for arbitrary staggered arrival patterns."""
        sim = Simulator()
        srv = FairShareServer(sim, "cpu", capacity=capacity, job_cap=1.0)
        jobs = {}

        def submit(index, work):
            jobs[index] = srv.submit(work)

        for index, (t, work) in enumerate(arrivals):
            sim.call_in(t, lambda i=index, w=work: submit(i, w))
        sim.run()

        expected = _reference_finish_times(arrivals, float(capacity), 1.0)
        assert set(expected) == set(jobs)
        for index, job in jobs.items():
            assert job.finish_time == pytest.approx(
                expected[index], rel=1e-6, abs=1e-6
            ), f"job {index} (work={arrivals[index][1]})"
    @given(
        works=st.lists(
            st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=20
        ),
        capacity=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_makespan_matches_ps_theory_for_simultaneous_jobs(self, works, capacity):
        """For jobs all submitted at t=0 on a capped PS server, each job's
        finish time is exactly computable; check the makespan."""
        sim = Simulator()
        srv = FairShareServer(sim, "cpu", capacity=capacity, job_cap=1.0)
        jobs = [srv.submit(w) for w in works]
        sim.run()
        # Work conservation: total service = total work, and the server
        # never idles while jobs remain, so makespan >= both bounds:
        total = sum(works)
        lower = max(max(works), total / capacity)
        assert sim.now >= lower - 1e-6
        # All jobs completed, exactly once.
        assert all(j.done.processed for j in jobs)
        assert srv.active_jobs == 0

    @given(
        works=st.lists(
            st.floats(min_value=0.05, max_value=10.0), min_size=2, max_size=12
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_shorter_jobs_never_finish_after_longer_ones(self, works):
        """PS preserves ordering: with identical start times, a job with
        less work finishes no later than one with more."""
        sim = Simulator()
        srv = FairShareServer(sim, "cpu", capacity=3, job_cap=1.0)
        jobs = [(w, srv.submit(w)) for w in works]
        sim.run()
        finished = sorted(jobs, key=lambda pair: pair[0])
        for (w1, j1), (w2, j2) in zip(finished, finished[1:]):
            assert j1.finish_time <= j2.finish_time + 1e-9

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),  # arrival
                st.floats(min_value=0.01, max_value=5.0),  # work
            ),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_every_job_eventually_completes(self, arrivals):
        sim = Simulator()
        srv = FairShareServer(sim, "cpu", capacity=2, job_cap=1.0)
        jobs = []

        for at, work in arrivals:
            sim.call_in(at, lambda w=work: jobs.append(srv.submit(w)))
        sim.run()
        assert len(jobs) == len(arrivals)
        assert all(j.done.processed for j in jobs)
        assert srv.active_jobs == 0


def test_no_zeno_loop_with_extreme_rates():
    """Regression: a tiny transfer at link-like rates (32e9/s) late in
    simulated time must not spin on sub-ulp reschedules."""
    sim = Simulator()
    srv = FairShareServer(sim, "pcie", capacity=32e9, job_cap=None)
    # Advance the clock far enough that ulp(now) * rate >> work dust.
    timeout(sim, 1e5)
    sim.run()
    job = srv.submit(4096.0)
    other = srv.submit(1e9)
    sim.run_until_event(job.done)
    sim.run_until_event(other.done)
    assert srv.active_jobs == 0


# -- copies: one job standing for k identical processes ----------------------


class _UnitJobPool:
    """BackgroundLoad's duty-1.0 pool as it ran before ``copies``: one
    unit job per process, submitted back to back, each resubmitting
    itself from its own ``on_complete``. The copies oracle's reference."""

    def __init__(self, runtime, n_processes: int, work_s: float):
        self._stopped = False
        self.completed_rounds = 0
        x86 = runtime.platform.x86.cpu

        def spin_round(job=None) -> None:
            if job is not None:
                self.completed_rounds += 1
            if self._stopped:
                return
            x86.execute_job(work_s, tag="background", on_complete=spin_round)

        for _index in range(n_processes):
            spin_round()

    def stop(self) -> None:
        self._stopped = True


class _DriftCounter(FairShareServer):
    """Counts completion events that take the floating-point drift
    branch: the head job is outside the completion tolerance, so no job
    drains normally and the head is forced out."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.drifts = 0

    def _on_completion(self, epoch):
        if epoch == self._epoch and self._jobs:
            rate = self.rate_per_job()
            virtual = self._virtual
            dt = self.sim.now - self._last_update
            if dt > 0.0:
                virtual += rate * dt
            head = self._next_finish()
            residual = head.entry_virtual + head.work - virtual
            if residual > _completion_tolerance(self.sim.now, rate, head.work):
                self.drifts += 1
        super()._on_completion(epoch)


@dataclass(frozen=True)
class _PoolScenario:
    capacity: float
    job_cap: Optional[float]
    #: (start, processes, work per round, stop after) per pool
    pools: tuple
    #: (arrival, work) per interleaved unit job
    units: tuple
    #: (time, new capacity) of the mid-run set_capacity call
    capacity_change: tuple
    #: extra times to compare the two forms at; reading the load there
    #: folds service into the shared integral between job-set changes
    probes: tuple = ()
    #: (clock, solo work, capacity after): before the scenario starts,
    #: one solo job at that clock builds up the shared service integral,
    #: then the capacity drops — the regime where finish marks are
    #: coarse next to the work, and the drift branch is reachable.
    warmup: Optional[tuple] = None


class _PoolWorld:
    """One server driven through a scenario with one form of pool."""

    def __init__(self, scenario: _PoolScenario, pool_form):
        sim = self.sim = Simulator()
        srv = self.srv = _DriftCounter(
            sim, "srv", capacity=scenario.capacity, job_cap=scenario.job_cap
        )
        if scenario.warmup is not None:
            clock, work, capacity = scenario.warmup
            sim.call_at(clock, lambda: srv.submit(work))
            sim.run()
            srv.set_capacity(capacity)
        # BackgroundLoad touches only platform.sim and x86.cpu.execute_job,
        # whose signature is the server's submit.
        cpu = SimpleNamespace(execute_job=srv.submit)
        runtime = SimpleNamespace(
            platform=SimpleNamespace(sim=sim, x86=SimpleNamespace(cpu=cpu))
        )
        self.pools = [None] * len(scenario.pools)
        self.units = []
        for index, (start, processes, work, stop_after) in enumerate(scenario.pools):

            def begin(index=index, processes=processes, work=work):
                self.pools[index] = pool_form(runtime, processes, work)

            sim.call_in(start, begin)
            sim.call_in(
                start + stop_after, lambda index=index: self.pools[index].stop()
            )
        for at, work in scenario.units:
            sim.call_in(at, lambda work=work: self.units.append(srv.submit(work)))
        at, capacity = scenario.capacity_change
        sim.call_in(at, lambda: srv.set_capacity(capacity))
        for at in scenario.probes:
            sim.call_in(at, lambda: None)

    def observe(self):
        srv = self.srv
        return (
            srv.active_jobs,
            srv.load_snapshot(),
            srv.mean_load(),
            srv.utilization(),
            [pool.completed_rounds if pool else None for pool in self.pools],
            srv.drifts,
        )


def _run_copies_oracle(scenario: _PoolScenario, max_steps: int = 20_000):
    """Drive the unit-job reference and BackgroundLoad's copies form in
    lockstep, comparing them after every event time of either; returns
    both worlds once drained."""
    ref = _PoolWorld(scenario, _UnitJobPool)
    new = _PoolWorld(scenario, BackgroundLoad)
    assert ref.observe() == new.observe()
    for _step in range(max_steps):
        times = [t for t in (ref.sim.peek(), new.sim.peek()) if t is not None]
        if not times:
            break
        at = min(times)
        ref.sim.run(until=at)
        new.sim.run(until=at)
        assert ref.observe() == new.observe(), f"diverged at t={at!r}"
    else:
        pytest.fail("scenario did not drain")
    assert [u.finish_time.hex() for u in ref.units] == [
        u.finish_time.hex() for u in new.units
    ]
    return ref, new


@st.composite
def _cpu_pool_scenarios(draw):
    """A 1-8 core CPU (per-job cap 1) with pools, unit jobs and a
    capacity change; unit jobs sometimes tie a pool's start and work."""
    pools = tuple(
        draw(
            st.lists(
                st.tuples(
                    st.floats(0.0, 3.0),
                    st.integers(1, 6),
                    st.floats(0.05, 4.0),
                    st.floats(0.0, 12.0),
                ),
                min_size=1,
                max_size=3,
            )
        )
    )
    starts = [start for start, _k, _w, _s in pools]
    works = [work for _t, _k, work, _s in pools]
    units = tuple(
        draw(
            st.lists(
                st.tuples(
                    st.one_of(st.floats(0.0, 12.0), st.sampled_from(starts)),
                    st.one_of(st.floats(0.0, 6.0), st.sampled_from(works)),
                ),
                max_size=8,
            )
        )
    )
    return _PoolScenario(
        capacity=draw(st.integers(1, 8)),
        job_cap=1.0,
        pools=pools,
        units=units,
        capacity_change=(draw(st.floats(0.0, 12.0)), draw(st.integers(1, 8))),
        probes=tuple(draw(st.lists(st.floats(0.0, 12.0), max_size=6))),
    )


@st.composite
def _link_pool_scenarios(draw):
    """The extreme rates of test_no_zeno_loop_with_extreme_rates: an
    uncapped 32 GB/s server late in simulated time, degraded after a
    solo transfer of up to 3 s, serving millibyte rounds. The shared
    integral then has a few ulps per round, so probes between job-set
    changes let rounding reach the drift branch (most examples do).
    Much larger integrals would swallow a round whole and spin the pool
    at one instant. Times are in units of one lone copy's round."""
    capacity = 32e9 * draw(st.sampled_from([1e-6, 1e-9]))
    round_s = 1e-3 / capacity
    pools = tuple(
        draw(
            st.lists(
                st.tuples(
                    st.floats(0.0, 5.0).map(lambda t: t * round_s),
                    st.integers(1, 6),
                    st.sampled_from([1e-3, 2e-3]),
                    st.floats(0.0, 60.0).map(lambda t: t * round_s),
                ),
                min_size=1,
                max_size=3,
            )
        )
    )
    units = tuple(
        draw(
            st.lists(
                st.tuples(
                    st.floats(0.0, 60.0).map(lambda t: t * round_s),
                    st.sampled_from([1e-3, 2e-3, 5e-4]),
                ),
                max_size=6,
            )
        )
    )
    change = (
        draw(st.floats(0.0, 60.0)) * round_s,
        capacity * draw(st.sampled_from([0.5, 2.0, 1e-3])),
    )
    probes = draw(
        st.lists(st.floats(0.0, 60.0).map(lambda t: t * round_s), max_size=30)
    )
    return _PoolScenario(
        capacity=32e9,
        job_cap=None,
        pools=pools,
        units=units,
        capacity_change=change,
        probes=tuple(probes),
        warmup=(1e5, 32e9 * draw(st.floats(0.01, 3.0)), capacity),
    )


class TestCopies:
    """One job with ``copies=k`` is k identical processes: it must leave
    every observable exactly as k unit jobs submitted back to back and
    resubmitted from their ``on_complete`` — the pool BackgroundLoad ran
    before it submitted one job per pool."""

    @given(_cpu_pool_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_copies_job_matches_unit_jobs_on_a_cpu(self, scenario):
        _run_copies_oracle(scenario)

    @given(_link_pool_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_copies_job_matches_unit_jobs_at_extreme_rates(self, scenario):
        _run_copies_oracle(scenario)

    def test_drift_branch_is_covered(self):
        """Identical finish marks do reach the drift branch at extreme
        rates: a load read between job-set changes leaves the pool's
        shared mark a rounding step out of tolerance. Jobs tied at the
        head's mark are forced out together, so the forms agree there."""
        scenario = _PoolScenario(
            capacity=32e9,
            job_cap=None,
            pools=((0.0, 3, 1e-3, 2.1875e-07),),
            units=(),
            capacity_change=(1.375e-07, 16e3),
            probes=(1.9375e-07,),
            warmup=(1e5, 25.6e9, 32e3),
        )
        ref, new = _run_copies_oracle(scenario)
        assert ref.srv.drifts == new.srv.drifts == 1
        assert ref.pools[0].completed_rounds == new.pools[0].completed_rounds == 6

    def test_copies_count_toward_the_load(self):
        sim, srv = make_server(capacity=6, job_cap=1)
        job = srv.submit(3.0, copies=12)
        assert srv.active_jobs == 12
        assert srv.rate_per_job() == 0.5
        sim.run_until_event(job.done)
        assert sim.now == pytest.approx(6.0)
        assert srv.load_snapshot()["updates"] == 13

    @pytest.mark.parametrize("copies", [0, -2])
    def test_copies_below_one_rejected(self, copies):
        _sim, srv = make_server()
        with pytest.raises(SimulationError, match="copies"):
            srv.submit(1.0, copies=copies)

    def test_cancel_removes_every_copy(self):
        sim, srv = make_server(capacity=2)
        job = srv.submit(4.0, copies=3)
        other = srv.submit(1.0)
        sim.run(until=1.0)
        srv.cancel(job)
        assert srv.active_jobs == 1
        snapshot = srv.load_snapshot()
        # As three unit cancels would leave it: loads 3, 2, 1 visited.
        assert (snapshot["min"], snapshot["max"], snapshot["updates"]) == (1, 4, 7)
        sim.run_until_event(other.done)
        assert not job.done.triggered
