"""Cohort-vectorized client simulation (the 1M-events/sec load model).

``scale_stress``-class scenarios drive thousands of statistically
identical clients against the scheduler. Simulating each client as its
own generator process costs O(clients x calls) simulator events; this
module batches clients that share a workload, arrival law, and
threshold profile into a *cohort* backed by numpy arrays and advances
each cohort as a single event per call round — O(cohorts x calls)
events total, with array-valued arrival/decision/completion times.

The model is *open loop*: the x86 load a decision sees is computed
from the population's arrival/departure schedule (a searchsorted over
two presorted arrays), not from feedback of earlier decisions. That
makes the per-client reference path (one generator per client, scalar
:func:`repro.core.policy.decide` per call; it lives in
``tests/core/cohort_reference.py``) and the vectorized path
bit-identical by construction, and the equivalence is enforced as a
continuously-tested contract by ``tests/core/test_cohort_oracle.py``:
identical per-client completion times, decision targets/rules, metrics
snapshots, and checksum lines.

Client lifecycle (both paths, all times float64):

- arrive at ``a`` (sampled once per cohort from the arrival law);
- host setup work ``H`` (``profile.host_work_s``);
- per call: host work ``h`` (``profile.per_call_host_s``), then a
  scheduling decision at ``t = F + h`` using load ``L(t)``, then the
  round trip plus service ``rt + s(target)`` where ``rt`` is two
  socket hops;
- completion time is ``F`` after the last call.

``L(t) = background + |arrivals <= t| - |departures <= t| + 1`` where
departures use the nominal all-x86 window and the ``+ 1`` mirrors the
server counting the requesting process itself
(:meth:`repro.core.server.SchedulerServer._decide`).

Known simplifications versus the full per-client event model in
:mod:`repro.core.application`: thresholds are static (Algorithm 1 does
not refine them mid-run), the FPGA's resident-kernel set is fixed for
the whole run (steady state after warmup), and the decision samples
load at request-issue time rather than one socket hop later. Both
paths share these simplifications, so the differential oracle tests
the vectorization, not the simplifications.

Faults: ``fault_targets`` is a set of ``(cohort, client, call)``
triples (see :func:`repro.faults.cohort.resolve_cohort_faults`). A
faulted call whose decision chose the FPGA runs the failed FPGA
attempt to completion and then re-runs on x86 (service
``s_fpga + s_x86``), is recorded as served by x86, and increments the
fallback counter. Faults on calls decided to a CPU target are no-ops.

Bit-identity requires the run to start at simulated time 0.0 (so that
``0.0 + a == a`` exactly); :meth:`CohortPopulation.run` asserts this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

# Unused here; bench/trace.py wraps ``repro.core.cohort.decide`` by name,
# so the binding stays until that entry-point list changes.
from repro.core.policy import decide  # noqa: F401
from repro.core.server import DEFAULT_SOCKET_LATENCY_S, SchedulerServer, ServerStats
from repro.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.thresholds import ThresholdTable
from repro.types import Target
from repro.workloads import profile_for

__all__ = [
    "ArrivalLaw",
    "CohortError",
    "CohortPopulation",
    "CohortResult",
    "CohortRunResult",
    "CohortSpec",
    "RULES",
    "sample_arrivals",
]

#: Algorithm 2 rule names, in the fixed order used for rule codes.
RULES = ("x86", "x86+reconfig", "arm", "arm+reconfig", "fpga", "arm-over-fpga")
_RULE_INDEX = {name: index for index, name in enumerate(RULES)}

_X86 = int(Target.X86)
_ARM = int(Target.ARM)
_FPGA = int(Target.FPGA)

_ARRIVAL_KINDS = ("uniform", "staggered", "poisson", "explicit")


class CohortError(Exception):
    """Raised for malformed cohort specs or misuse of the population."""


@dataclass(frozen=True)
class ArrivalLaw:
    """How a cohort's clients arrive over ``[start, start + span]``.

    ``uniform`` draws i.i.d. uniform offsets, ``staggered`` spaces the
    clients evenly (no RNG), ``poisson`` uses exponential interarrival
    times with mean ``span / clients``, and ``explicit`` takes the
    arrival times verbatim (the hypothesis split/merge strategies use
    this: splitting one explicit cohort into two preserves the global
    arrival multiset, hence every per-client result).
    """

    kind: str = "staggered"
    start: float = 0.0
    span: float = 1.0
    times: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in _ARRIVAL_KINDS:
            raise CohortError(
                f"unknown arrival law {self.kind!r}; expected one of {_ARRIVAL_KINDS}"
            )
        if self.start < 0:
            raise CohortError(f"arrival start must be >= 0, got {self.start!r}")
        if self.kind != "explicit" and self.span <= 0:
            raise CohortError(f"arrival span must be positive, got {self.span!r}")
        if self.kind == "explicit":
            if not self.times:
                raise CohortError("explicit arrival law needs a non-empty `times`")
            if any(t < 0 for t in self.times):
                raise CohortError("explicit arrival times must be >= 0")

    def sample(self, clients: int, seed: int) -> np.ndarray:
        """The cohort's arrival times: shape ``(clients,)`` float64."""
        if self.kind == "explicit":
            times = np.asarray(self.times, dtype=np.float64)
            if len(times) != clients:
                raise CohortError(
                    f"explicit arrival law has {len(times)} times for "
                    f"{clients} clients"
                )
            return times.copy()
        if self.kind == "staggered":
            return self.start + np.arange(clients, dtype=np.float64) * (
                self.span / clients
            )
        rng = np.random.default_rng(seed)
        if self.kind == "uniform":
            return self.start + rng.uniform(0.0, self.span, clients)
        # poisson
        return self.start + np.cumsum(rng.exponential(self.span / clients, clients))


@dataclass(frozen=True)
class CohortSpec:
    """One cohort: ``clients`` identical clients of one application."""

    app: str
    clients: int
    calls: Optional[int] = None  # None -> the profile's calls_per_run
    arrival: ArrivalLaw = ArrivalLaw()
    seed: int = 0

    def __post_init__(self):
        if self.clients < 1:
            raise CohortError(f"{self.app}: clients must be >= 1, got {self.clients}")
        if self.calls is not None and self.calls < 1:
            raise CohortError(f"{self.app}: calls must be >= 1, got {self.calls}")


def sample_arrivals(spec: CohortSpec) -> np.ndarray:
    """The deterministic arrival times for ``spec``.

    Shared by :class:`CohortPopulation` and the cohort-aware fault
    resolver so both see the same per-client schedule without one
    having to be constructed before the other.
    """
    return spec.arrival.sample(spec.clients, spec.seed)


@dataclass
class _Cohort:
    """Precomputed per-cohort state shared by both execution paths."""

    index: int
    spec: CohortSpec
    entry: object  # ThresholdEntry
    n: int
    calls: int
    arrivals: np.ndarray
    host_s: float
    call_host_s: float
    available: bool
    fpga_thr: float
    arm_thr: float
    #: Round-trip-plus-service delay per decided target (len 3; the
    #: FPGA slot is NaN when the kernel is not resident).
    rts: np.ndarray
    #: Decided target -> serving target (ARM falls back to x86 for
    #: arm-incapable workloads).
    served_map: np.ndarray
    #: Delay for a faulted FPGA call (failed attempt + x86 re-run).
    fault_delay: float
    #: Nominal all-x86 residency window (for the departure schedule).
    window_s: float
    #: ``(client, call)`` pairs targeted by the fault plan.
    faults: frozenset = frozenset()


@dataclass
class CohortResult:
    """One cohort's per-client outcome arrays (identical on both paths)."""

    index: int
    spec: CohortSpec
    calls: int
    arrivals: np.ndarray
    completions: np.ndarray
    #: Decided target per (client, call), Algorithm 2's output.
    targets: np.ndarray
    #: Serving target per (client, call) (after fault/capability fallback).
    served: np.ndarray
    #: Algorithm 2 rule code per (client, call); see :data:`RULES`.
    rules: np.ndarray
    fault_fallbacks: int = 0


@dataclass
class CohortRunResult:
    """A whole population run: per-cohort results plus aggregates."""

    path: str  # "vectorized" | "reference"
    cohorts: list[CohortResult]
    clients: int
    #: Client-visible events the run stands for (arrival + host done +
    #: one per call + termination per client); the bench divides this
    #: by wall time, which is the whole point of the vectorization.
    logical_events: int
    #: Simulator events actually processed (O(cohorts) when vectorized).
    sim_events: int
    sim_seconds: float
    decisions_by_target: dict[Target, int] = field(default_factory=dict)
    decisions_by_rule: dict[str, int] = field(default_factory=dict)
    fault_fallbacks: int = 0

    def completions(self) -> np.ndarray:
        """All clients' completion times, cohort-major."""
        return np.concatenate([r.completions for r in self.cohorts])

    def served_by_target(self) -> dict[Target, int]:
        counts = np.zeros(3, dtype=np.int64)
        for result in self.cohorts:
            counts += np.bincount(result.served.ravel(), minlength=3)
        return {Target(i): int(c) for i, c in enumerate(counts) if c}

    def lines(self) -> list[str]:
        """Deterministic summary lines (the contract checksum input).

        Floats are rendered with ``repr`` so the checksum only matches
        when the two paths are bit-identical, not merely close.
        """
        out = []
        for r in self.cohorts:
            served = np.bincount(r.served.ravel(), minlength=3)
            out.append(
                f"cohort {r.index} app={r.spec.app} n={r.spec.clients} "
                f"calls={r.calls} last={float(r.completions.max())!r} "
                f"sum={float(r.completions.sum())!r} "
                f"x86={int(served[_X86])} arm={int(served[_ARM])} "
                f"fpga={int(served[_FPGA])} faults={r.fault_fallbacks}"
            )
        for rule in sorted(self.decisions_by_rule):
            out.append(f"rule {rule} {self.decisions_by_rule[rule]}")
        return out


class CohortPopulation:
    """All cohorts of one run plus the shared open-loop load model.

    Construct either standalone (pass ``thresholds``) or bound to a
    :class:`~repro.core.server.SchedulerServer` (decision counts then
    land in the server's own metrics, bulk-recorded at run end so the
    scheduler counters agree with what a per-client run would report).
    ``background`` is a static number of extra always-runnable host
    processes (the MG-B pool, open-loop).
    """

    #: The ``cohort_runs_total{path}`` label and ``CohortRunResult.path``.
    path = "vectorized"

    def __init__(
        self,
        specs: Iterable[CohortSpec],
        background: int = 0,
        thresholds: Optional[ThresholdTable] = None,
        server: Optional[SchedulerServer] = None,
        metrics: Optional[MetricsRegistry] = None,
        socket_latency_s: Optional[float] = None,
        resident_kernels: Optional[Iterable[str]] = None,
        fault_targets: Optional[Iterable[tuple[int, int, int]]] = None,
    ):
        specs = tuple(specs)
        if not specs:
            raise CohortError("a population needs at least one cohort spec")
        if background < 0:
            raise ValueError(f"background must be >= 0, got {background}")
        if server is not None:
            thresholds = thresholds or server.thresholds
            metrics = metrics or server.metrics
            if socket_latency_s is None:
                socket_latency_s = server.socket_latency_s
        if thresholds is None:
            raise CohortError(
                "CohortPopulation needs a ThresholdTable (or a server to "
                "borrow one from)"
            )
        self.specs = specs
        self.background = int(background)
        self.thresholds = thresholds
        self.server = server
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.socket_latency_s = (
            DEFAULT_SOCKET_LATENCY_S if socket_latency_s is None else socket_latency_s
        )
        self._stats = server.stats if server is not None else ServerStats(self.metrics)
        self._clients_counter = self.metrics.counter(
            "cohort_clients_total", "clients simulated through the cohort model"
        )
        self._calls_counter = self.metrics.counter(
            "cohort_calls_total",
            "cohort-model calls by serving target",
            labelnames=("target",),
        )
        self._fallbacks_counter = self.metrics.counter(
            "cohort_fault_fallbacks_total",
            "faulted FPGA calls that re-ran on x86",
        )
        self._runs_counter = self.metrics.counter(
            "cohort_runs_total",
            "population runs by execution path",
            labelnames=("path",),
        )

        faults = frozenset(tuple(t) for t in (fault_targets or ()))
        if resident_kernels is None:
            resident = {
                thresholds.entry(spec.app).kernel_name
                for spec in specs
                if thresholds.entry(spec.app).kernel_name
            }
        else:
            resident = set(resident_kernels)

        rt = 2.0 * self.socket_latency_s
        self._cohorts: list[_Cohort] = []
        for index, spec in enumerate(specs):
            entry = thresholds.entry(spec.app)
            profile = profile_for(spec.app)
            calls = spec.calls if spec.calls is not None else profile.calls_per_run
            arrivals = sample_arrivals(spec)
            available = bool(
                profile.fpga_capable
                and entry.kernel_name
                and entry.kernel_name in resident
            )
            s_x86 = profile.func_x86_s
            s_arm = profile.arm_call_s() if profile.arm_capable else s_x86
            s_fpga = profile.fpga_call_s() if available else float("nan")
            cohort_faults = frozenset(
                (client, call)
                for (c, client, call) in faults
                if c == index and 0 <= client < spec.clients and 0 <= call < calls
            )
            self._cohorts.append(
                _Cohort(
                    index=index,
                    spec=spec,
                    entry=entry,
                    n=spec.clients,
                    calls=calls,
                    arrivals=arrivals,
                    host_s=profile.host_work_s,
                    call_host_s=profile.per_call_host_s,
                    available=available,
                    fpga_thr=entry.fpga_threshold,
                    arm_thr=entry.arm_threshold,
                    rts=np.array(
                        [rt + s_x86, rt + s_arm, rt + s_fpga], dtype=np.float64
                    ),
                    served_map=np.array(
                        [_X86, _ARM if profile.arm_capable else _X86, _FPGA],
                        dtype=np.int8,
                    ),
                    fault_delay=(
                        rt + (s_fpga + s_x86) if available else float("nan")
                    ),
                    window_s=profile.host_work_s
                    + calls * (profile.per_call_host_s + rt + s_x86),
                    faults=cohort_faults,
                )
            )
        # The open-loop load model: presorted global arrival/departure
        # schedules; L(t) is two searchsorted calls away for scalar and
        # array queries alike.
        self._starts = np.sort(
            np.concatenate([c.arrivals for c in self._cohorts])
        )
        self._ends = np.sort(
            np.concatenate([c.arrivals + c.window_s for c in self._cohorts])
        )
        self.clients = int(sum(c.n for c in self._cohorts))
        self.logical_events = int(sum(c.n * (c.calls + 3) for c in self._cohorts))

    # -- load model ---------------------------------------------------------
    def loads_at(self, times: np.ndarray) -> np.ndarray:
        """``L(t)`` for an array of query times (int64 process counts)."""
        present = np.searchsorted(self._starts, times, side="right")
        departed = np.searchsorted(self._ends, times, side="right")
        return present - departed + (self.background + 1)

    # -- execution ----------------------------------------------------------
    def run(self, sim: Optional[Simulator] = None) -> CohortRunResult:
        """Simulate the whole population; return per-client results."""
        if sim is None:
            sim = Simulator()
        if sim.now != 0.0:
            raise CohortError(
                f"cohort runs must start at simulated time 0.0 (now={sim.now}); "
                "bit-identity between the vectorized and reference paths "
                "relies on arrival times being absolute"
            )
        results = [
            CohortResult(
                index=c.index,
                spec=c.spec,
                calls=c.calls,
                arrivals=c.arrivals,
                completions=np.zeros(c.n, dtype=np.float64),
                targets=np.zeros((c.n, c.calls), dtype=np.int8),
                served=np.zeros((c.n, c.calls), dtype=np.int8),
                rules=np.zeros((c.n, c.calls), dtype=np.uint8),
            )
            for c in self._cohorts
        ]
        target_tally = np.zeros(3, dtype=np.int64)
        rule_tally = np.zeros(len(RULES), dtype=np.int64)
        events_before = sim.events_processed
        for cohort, result in zip(self._cohorts, results):
            self._start(sim, cohort, result, target_tally, rule_tally)
        sim.run()
        run_result = CohortRunResult(
            path=self.path,
            cohorts=results,
            clients=self.clients,
            logical_events=self.logical_events,
            sim_events=sim.events_processed - events_before,
            sim_seconds=sim.now,
            decisions_by_target={
                Target(i): int(c) for i, c in enumerate(target_tally) if c
            },
            decisions_by_rule={
                RULES[i]: int(c) for i, c in enumerate(rule_tally) if c
            },
            fault_fallbacks=int(sum(r.fault_fallbacks for r in results)),
        )
        self._record_metrics(run_result)
        return run_result

    def _record_metrics(self, run: CohortRunResult) -> None:
        """Bulk-record the finished run's decisions and counters."""
        self._stats.record_decisions(run.decisions_by_target, run.decisions_by_rule)
        self._clients_counter.inc(run.clients)
        for target, count in sorted(run.served_by_target().items()):
            self._calls_counter.labels(target=str(target)).inc(count)
        if run.fault_fallbacks:
            self._fallbacks_counter.inc(run.fault_fallbacks)
        self._runs_counter.labels(path=run.path).inc()

    # -- the vectorized path ------------------------------------------------
    def _start(self, sim, cohort, result, target_tally, rule_tally):
        """Schedule ``cohort``'s first call round on ``sim``."""
        finish = cohort.arrivals + cohort.host_s
        sim.call_at(
            float(np.max(finish + cohort.call_host_s)),
            lambda: self._vectorized_call(
                sim, cohort, 0, finish, result, target_tally, rule_tally
            ),
        )

    def _vectorized_call(self, sim, cohort, call, finish, result, target_tally, rule_tally):
        """Advance every client in ``cohort`` through call ``call``."""
        decide_at = finish + cohort.call_host_s
        loads = self.loads_at(decide_at)
        targets, rules = self._decide_array(cohort, loads)
        delays = cohort.rts[targets]
        served = cohort.served_map[targets]
        for client, faulted_call in cohort.faults:
            if faulted_call == call and targets[client] == _FPGA:
                delays[client] = cohort.fault_delay
                served[client] = _X86
                result.fault_fallbacks += 1
        result.targets[:, call] = targets
        result.served[:, call] = served
        result.rules[:, call] = rules
        target_tally += np.bincount(targets, minlength=3)
        rule_tally += np.bincount(rules, minlength=len(RULES))
        finish = decide_at + delays
        if call + 1 < cohort.calls:
            sim.call_at(
                float(np.max(finish + cohort.call_host_s)),
                lambda: self._vectorized_call(
                    sim, cohort, call + 1, finish, result, target_tally, rule_tally
                ),
            )
        else:
            completions = finish

            def done() -> None:
                result.completions[:] = completions

            sim.call_at(float(np.max(finish)), done)

    def _decide_array(self, cohort, loads):
        """Algorithm 2 over a load array; mirrors :func:`.policy.decide`.

        The branch structure is the scalar function's, re-expressed as
        masks; ``tests/core/test_cohort_oracle.py`` pins the mirror to
        the scalar implementation over the full condition space.
        """
        gt_fpga = loads > cohort.fpga_thr
        gt_arm = loads > cohort.arm_thr
        if not cohort.available:
            # Lines 9-24: the kernel is absent; ARM iff hot for ARM.
            targets = np.where(gt_arm, _ARM, _X86).astype(np.int8)
            rules = (2 * gt_arm + gt_fpga).astype(np.uint8)
            return targets, rules
        # Kernel resident: below the FPGA threshold it is the plain
        # x86/arm split; above it, the smaller threshold wins.
        hot_target = _FPGA if cohort.fpga_thr < cohort.arm_thr else _ARM
        hot_rule = (
            _RULE_INDEX["fpga"]
            if cohort.fpga_thr < cohort.arm_thr
            else _RULE_INDEX["arm-over-fpga"]
        )
        targets = np.where(
            gt_fpga, hot_target, np.where(gt_arm, _ARM, _X86)
        ).astype(np.int8)
        rules = np.where(gt_fpga, hot_rule, 2 * gt_arm).astype(np.uint8)
        return targets, rules
