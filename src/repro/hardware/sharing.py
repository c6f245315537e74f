"""Generalized processor-sharing service model.

Both CPU clusters and network links are *fair-share servers*: a pool of
service capacity divided equally among active jobs, with an optional
per-job rate cap. A 6-core CPU is capacity 6 with per-job cap 1 (a
single-threaded process cannot use more than one core); a 1 Gbps link is
capacity 125 MB/s with no per-job cap (a lone transfer gets the whole
pipe).

This model is what makes the paper's threshold arithmetic reproducible:
with N compute-bound processes on C cores, each runs at rate
``min(1, C/N)``, so the execution time of a T-second job under load N is
``T * max(1, N/C)`` — exactly the relation Xar-Trek's threshold
estimation tool (Section 3.1, step G) exploits.

Service accounting is *virtual-time* (epoch-batched): because every
active job receives the same instantaneous rate, the service each job
has accumulated is a single shared integral ``V`` (per-job service
since t=0). A job entering at ``V = v0`` with demand ``w`` finishes
exactly when ``V`` reaches ``v0 + w``, so the server keeps one float
and a min-heap of finish marks instead of rescaling every job's
residual work on every membership change. That turns the per-event
cost from O(active jobs) to O(log active jobs) — the difference
between the Figure 5 experiments (120 resident processes) crawling
and flying — without changing a single completion time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Optional

from repro.sim import Event, SimulationError, Simulator

__all__ = ["FairShareServer", "Job"]

#: Relative tolerance for treating residual work as complete; guards
#: against floating-point dust when rescaling remaining work.
_EPSILON = 1e-9


def _completion_tolerance(now: float, rate: float, work: float) -> float:
    """Residual work below this counts as complete.

    Two guards combine: relative floating-point dust on the work
    amount, and — crucially — the *clock's* resolution: once a job's
    remaining service time falls below the ulp of the current simulated
    time, ``now + delay == now`` and the simulation could spin forever
    re-scheduling a zero-width step (e.g. the last bytes of a PCIe
    transfer at 32 GB/s when ``now`` is minutes). Anything that cannot
    advance the clock is, by definition, already finished.
    """
    work_dust = _EPSILON * max(1.0, work)
    time_dust = rate * max(1e-12, 8 * math.ulp(max(1.0, now)))
    return max(work_dust, time_dust)


@dataclass(slots=True)
class Job:
    """One unit of work in a fair-share server.

    Completion is delivered through ``done`` (an event the caller can
    yield on) *or*, when the caller only needs a notification, through
    ``on_complete`` — a plain callable invoked synchronously, skipping
    the event-queue round trip entirely. Exactly one of the two is set.

    ``copies`` is the number of identical processes the job stands for
    (a background pool): each one counts toward the active-job count
    and is served at the per-job rate, and they finish together, so
    the job completes once. It is not a weighted-fair-queueing share.
    """

    job_id: int
    work: float  # total demand, in capacity-units * seconds
    remaining: float
    done: Optional[Event]
    start_time: float = 0.0
    finish_time: Optional[float] = None
    copies: int = 1
    #: Shared-service integral at entry; served = V - entry_virtual.
    entry_virtual: float = field(default=0.0, repr=False)
    on_complete: Any = field(default=None, repr=False)
    _cancelled: bool = field(default=False, repr=False)


class FairShareServer:
    """Capacity shared equally among active jobs, each capped at ``job_cap``.

    Jobs are submitted with a total work demand; the server tracks
    remaining work analytically via the shared virtual-service integral
    and schedules a single "next completion" event, re-derived whenever
    the job set changes. This is exact (not time-stepped) processor
    sharing.
    """

    __slots__ = (
        "sim",
        "name",
        "capacity",
        "job_cap",
        "_jobs",
        "_active",
        "_next_id",
        "_last_update",
        "_epoch",
        "_load_integral",
        "_busy_integral",
        "_virtual",
        "_finish_heap",
        "_first_submit",
        "_min_jobs",
        "_max_jobs",
        "_transitions",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity: float,
        job_cap: Optional[float] = None,
    ):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = float(capacity)
        self.job_cap = float(job_cap) if job_cap is not None else None
        self._jobs: dict[int, Job] = {}
        #: Active-job count: the copies of every job in ``_jobs``.
        self._active = 0
        self._next_id = 1
        self._last_update = sim.now
        self._epoch = 0  # invalidates stale completion callbacks
        #: cumulative (active_jobs * dt) integral, for utilization stats
        self._load_integral = 0.0
        self._busy_integral = 0.0
        #: cumulative per-job service delivered since t=0 (virtual time)
        self._virtual = 0.0
        #: (entry_virtual + work, job_id, Job) min-heap; entries for
        #: cancelled/finished jobs are skipped lazily.
        self._finish_heap: list[tuple[float, int, Job]] = []
        #: O(1) load aggregates, maintained on every job start/finish
        #: (submit / completion / cancel) so schedulers and metrics can
        #: read load statistics without walking the active set.
        self._first_submit: Optional[float] = None
        self._min_jobs: Optional[int] = None
        self._max_jobs: Optional[int] = None
        self._transitions = 0

    # -- queries ---------------------------------------------------------
    @property
    def active_jobs(self) -> int:
        """Number of jobs currently in service (the paper's "load")."""
        return self._active

    def rate_per_job(self, n: Optional[int] = None) -> float:
        """Service rate each job receives when ``n`` jobs are active."""
        n = self._active if n is None else n
        if n == 0:
            return 0.0
        share = self.capacity / n
        if self.job_cap is not None and share > self.job_cap:
            share = self.job_cap
        return share

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of capacity in use since time ``since``."""
        self._advance()
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.capacity)

    def mean_load(self, since: float = 0.0) -> float:
        """Time-averaged number of active jobs since time ``since``."""
        self._advance()
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self._load_integral / elapsed

    def load_snapshot(self) -> dict[str, float]:
        """A gauge-shaped view of the load timeline, in O(1).

        Equivalent to push-sampling a gauge with ``active_jobs`` on
        every job start/finish — value, extrema, and the exact
        time-weighted mean over [first submit, now] — but derived from
        the running aggregates, so nothing is recomputed per scheduler
        decision or metrics export. Suitable for
        :meth:`repro.metrics.Gauge.bind_sampler`.
        """
        self._advance()
        n = self._active
        if self._first_submit is None:
            return {
                "value": 0.0,
                "min": 0.0,
                "max": 0.0,
                "time_weighted_mean": 0.0,
                "updates": 0,
            }
        elapsed = self.sim.now - self._first_submit
        mean = self._load_integral / elapsed if elapsed > 0 else float(n)
        return {
            "value": float(n),
            "min": float(self._min_jobs),
            "max": float(self._max_jobs),
            "time_weighted_mean": mean,
            "updates": self._transitions,
        }

    def _record_transition(self, low: int, high: int, count: int) -> None:
        """Fold ``count`` back-to-back load changes, whose post-change
        loads span ``low`` to ``high``, into the O(1) aggregates."""
        if self._first_submit is None:
            self._first_submit = self.sim.now
        if self._min_jobs is None or low < self._min_jobs:
            self._min_jobs = low
        if self._max_jobs is None or high > self._max_jobs:
            self._max_jobs = high
        self._transitions += count

    # -- capacity changes --------------------------------------------------
    def set_capacity(self, capacity: float) -> None:
        """Change the service capacity from *now* on (link degradation,
        core offlining). Exact under the virtual-time model: service
        already delivered was folded into the shared integral at the old
        rate by :meth:`_advance`; the next completion is re-derived at
        the new per-job rate. A no-op when the capacity is unchanged.
        """
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        if capacity == self.capacity:
            return
        self._advance()
        self.capacity = float(capacity)
        self._reschedule()

    # -- job lifecycle -----------------------------------------------------
    def submit(self, work: float, on_complete=None, copies: int = 1) -> Job:
        """Enter a job with total demand ``work``; returns its handle.

        The job's ``done`` event triggers (with the job as value) when
        the demand has been served — unless ``on_complete`` is given, in
        which case that callable is invoked with the job instead and no
        ``done`` event is allocated (the cheap path for callers that
        chain callbacks rather than block a process).

        ``copies`` enters that many identical processes, each with
        demand ``work``, under one handle: every copy counts toward the
        load and is served at the per-job rate, the load aggregates end
        up exactly as ``copies`` back-to-back unit submits would leave
        them, and the handle completes once.
        """
        if work < 0:
            raise SimulationError(f"negative work {work!r}")
        if copies < 1:
            raise SimulationError(f"copies must be >= 1, got {copies!r}")
        # Inlined _advance/_record_transition/_reschedule (profile-hot:
        # one submit per job the simulation ever runs; the method-call
        # fan-out costs more than the arithmetic it performs).
        sim = self.sim
        now = sim.now
        n = self._active
        dt = now - self._last_update
        if dt != 0.0:
            if dt > 0.0 and n:
                capacity = self.capacity
                rate = capacity / n
                cap = self.job_cap
                if cap is not None and rate > cap:
                    rate = cap
                self._virtual += rate * dt
                self._load_integral += n * dt
                busy = rate * n
                self._busy_integral += (
                    capacity if busy > capacity else busy
                ) * dt
            self._last_update = now
        job_id = self._next_id
        self._next_id = job_id + 1
        job = Job(
            job_id=job_id,
            work=float(work),
            remaining=float(work),
            done=None if on_complete is not None else self.sim.event(),
            start_time=now,
            copies=copies,
            entry_virtual=self._virtual,
            on_complete=on_complete,
        )
        if work == 0:
            job.finish_time = now
            self._record_transition(n, n, copies)
            if on_complete is not None:
                on_complete(job)
            else:
                job.done.succeed(job)
            return job
        self._jobs[job.job_id] = job
        n += copies
        self._active = n
        heappush(self._finish_heap, (job.entry_virtual + job.work, job.job_id, job))
        # _record_transition, inline: the copies' post-change loads run
        # from n - copies + 1 up to n
        if self._first_submit is None:
            self._first_submit = now
        low = n - copies + 1
        if self._min_jobs is None or low < self._min_jobs:
            self._min_jobs = low
        if self._max_jobs is None or n > self._max_jobs:
            self._max_jobs = n
        self._transitions += copies
        # _reschedule, inline (the new job may or may not be the head)
        self._epoch += 1
        head = self._next_finish()
        if head is not None:
            capacity = self.capacity
            rate = capacity / n
            cap = self.job_cap
            if cap is not None and rate > cap:
                rate = cap
            if rate > 0:
                shortest = head.entry_virtual + head.work - self._virtual
                if shortest < 0.0:
                    shortest = 0.0
                sim.defer(shortest / rate, self._on_completion, self._epoch)
        return job

    def cancel(self, job: Job) -> None:
        """Remove a job before completion; its ``done`` event never fires.

        A job's copies leave together, as back-to-back unit cancels would.
        """
        self._advance()
        if self._jobs.pop(job.job_id, None) is not None:
            job._cancelled = True
            job.remaining = max(0.0, job.entry_virtual + job.work - self._virtual)
            n = self._active = self._active - job.copies
            self._record_transition(n, n + job.copies - 1, job.copies)
            self._reschedule()

    def remaining_work(self, job: Job) -> float:
        self._advance()
        if job.job_id not in self._jobs:
            return 0.0
        return max(0.0, job.entry_virtual + job.work - self._virtual)

    # -- internals -----------------------------------------------------------
    def _advance(self) -> None:
        """Account for service delivered since the last state change.

        O(1): every active job receives the same rate, so the service
        delivered is folded into the shared ``_virtual`` integral
        instead of being written back to each job.
        """
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0.0:
            n = self._active
            if n:
                rate = self.rate_per_job(n)
                self._virtual += rate * dt
                self._load_integral += n * dt
                busy = rate * n
                if busy > self.capacity:
                    busy = self.capacity
                self._busy_integral += busy * dt
            self._last_update = now
        elif dt != 0.0:
            self._last_update = now

    def _next_finish(self) -> Optional[Job]:
        """The live job with the smallest finish mark (lazy heap cleanup)."""
        heap = self._finish_heap
        jobs = self._jobs
        while heap:
            _mark, job_id, job = heap[0]
            if job_id in jobs:
                return job
            heappop(heap)
        return None

    def _reschedule(self) -> None:
        """Re-derive the next completion after any job-set change."""
        self._last_update = self.sim.now
        self._epoch += 1
        head = self._next_finish()
        if head is None:
            return
        rate = self.rate_per_job()
        if rate <= 0:
            return
        shortest = max(0.0, head.entry_virtual + head.work - self._virtual)
        # defer() takes the epoch as a plain argument — no per-reschedule
        # closure or event allocation on what profiling shows is the
        # single hottest call site.
        self.sim.defer(shortest / rate, self._on_completion, self._epoch)

    def _on_completion(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # job set changed since this was scheduled
        # Fully inlined _advance / rate / _record_transition /
        # _reschedule (profile-hot: one call per completion event; the
        # helper fan-out used to dominate the arithmetic).
        sim = self.sim
        now = sim.now
        jobs = self._jobs
        n = self._active
        capacity = self.capacity
        cap = self.job_cap
        rate = 0.0
        if n:
            rate = capacity / n
            if cap is not None and rate > cap:
                rate = cap
        dt = now - self._last_update
        if dt != 0.0:
            if dt > 0.0 and n:
                self._virtual += rate * dt
                self._load_integral += n * dt
                busy = rate * n
                self._busy_integral += (
                    capacity if busy > capacity else busy
                ) * dt
            self._last_update = now
        finished: list[Job] = []
        # Inlined head-draining loop. The completion tolerance's
        # time-dust term depends only on (now, rate), both
        # loop-invariant, so it is hoisted; the per-job work-dust term
        # stays inside. Bit-for-bit the same arithmetic as
        # _completion_tolerance.
        heap = self._finish_heap
        virtual = self._virtual
        time_dust = rate * max(1e-12, 8 * math.ulp(now if now > 1.0 else 1.0))
        while heap:
            _mark, job_id, head = heap[0]
            if job_id not in jobs:
                heappop(heap)  # cancelled/finished: lazy cleanup
                continue
            work = head.work
            work_dust = _EPSILON * (work if work > 1.0 else 1.0)
            if head.entry_virtual + work - virtual > (
                work_dust if work_dust > time_dust else time_dust
            ):
                break
            heappop(heap)
            del jobs[job_id]
            n -= head.copies
            finished.append(head)
        if not finished and jobs:
            # Pure floating-point drift: the event fired for the
            # shortest job, so force it out rather than risk a
            # zero-width reschedule loop — together with every job at
            # its exact finish mark, which has had the same service
            # (k unit jobs then leave as one job with k copies does).
            mark = heap[0][0]
            while heap and heap[0][0] == mark:
                _mark, job_id, head = heappop(heap)
                if job_id in jobs:
                    del jobs[job_id]
                    n -= head.copies
                    finished.append(head)
        for job in finished:
            job.remaining = 0.0
            job.finish_time = now
        self._active = n
        if finished:
            # _record_transition, inline
            if self._first_submit is None:
                self._first_submit = now
            if self._min_jobs is None or n < self._min_jobs:
                self._min_jobs = n
            if self._max_jobs is None or n > self._max_jobs:
                self._max_jobs = n
            self._transitions += 1
        # _reschedule, inline
        self._last_update = now
        self._epoch += 1
        head = self._next_finish()
        if head is not None and n:
            rate = capacity / n
            if cap is not None and rate > cap:
                rate = cap
            if rate > 0:
                shortest = head.entry_virtual + head.work - self._virtual
                if shortest < 0.0:
                    shortest = 0.0
                sim.defer(shortest / rate, self._on_completion, self._epoch)
        for job in finished:
            if job.on_complete is not None:
                job.on_complete(job)
            else:
                job.done.succeed(job)
