"""The chaos harness: run a fleet-scale workload under a fault plan.

The contract under test is the paper's transparency promise taken to
its robustness limit: **under any seeded finite-fault plan, every
invocation still completes, and every run's observable result is
identical to the fault-free run** — only *where* calls executed (and
how long they took) may differ, because retries and x86 fallbacks are
allowed.

:func:`run_chaos` therefore runs the same seeded scale_stress-shaped
workload twice — once fault-free as the baseline, once with the plan
armed — and diffs the outcomes record by record. The resulting
:class:`ChaosReport` carries the completion rate (must be 1.0), the
fallback mix, retry/quarantine counts, and the chaos leg's events/sec.
Both ``repro chaos`` (the CLI) and the ``chaos_stress`` wall-clock
scenario are thin wrappers over it.

The two legs are fully independent (each builds its own runtime and
simulator from the same seed), so ``jobs > 1`` runs them concurrently
in two processes of the persistent sweep worker pool — roughly halving
harness wall time on a multi-core host with per-leg results unchanged
(each leg is a pure function of its arguments either way).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.resilience import ResilienceConfig

__all__ = ["BrownoutCriteria", "ChaosReport", "default_plan", "run_chaos"]

#: Workload shape (mirrors the scale_stress contract scenario).
_QUICK_CLIENTS, _QUICK_BACKGROUND = 250, 25
_FULL_CLIENTS, _FULL_BACKGROUND = 1000, 50
_CALLS_PER_CLIENT = 3
#: Client start times are staggered over [0, 30) s (scale_stress shape);
#: default plans strike inside the busy window that follows.
_DEFAULT_HORIZON_S = 45.0


def default_plan(seed: int) -> FaultPlan:
    """The generated plan ``repro chaos`` uses when none is given:
    every fault kind at least once, aimed at the paper benchmarks'
    hardware kernels, deterministic in ``seed``."""
    from repro.workloads import PAPER_BENCHMARKS, profile_for

    kernels = sorted(
        {
            profile_for(app).kernel_name
            for app in PAPER_BENCHMARKS
            if profile_for(app).kernel_name
        }
    )
    return FaultPlan.generate(seed=seed, horizon_s=_DEFAULT_HORIZON_S, kernels=kernels)


@dataclass(frozen=True)
class BrownoutCriteria:
    """Acceptance criteria for a chaos run in *brownout mode*.

    The classic chaos contract (``completion_rate == 1.0``) makes
    graceful degradation unrepresentable: a run that deliberately
    sheds 20% of a flash crowd to protect the other 80% would "fail".
    Brownout mode replaces it with the SLO-shaped contract:

    * goodput (fraction of clients fully served) >= ``goodput_floor``;
    * every shed client is *explicitly accounted* (carries a shed
      reason) — zero clients may simply vanish;
    * every admitted client's outcome is still bit-identical to the
      fault-free leg (the transparency promise is unchanged for work
      the system accepted).
    """

    goodput_floor: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.goodput_floor <= 1.0:
            raise ValueError(
                f"goodput_floor must be in [0, 1], got {self.goodput_floor!r}"
            )


@dataclass
class ChaosReport:
    """Everything one chaos run proved (or failed to prove)."""

    seed: int
    clients: int
    background: int
    plan_faults: dict[str, int]
    completed: int
    mismatches: list[str]
    faults_injected: int
    retries: int
    fallbacks: dict[str, int]
    quarantines: int
    goodput: float
    breaker_states: dict[str, str]
    events: int
    sim_seconds: float
    wall_s: float
    #: Checksum lines for the chaos leg (bench-scenario format).
    lines: list[str] = field(default_factory=list)
    #: The fault-free differential leg's simulator totals. ``events``/
    #: ``wall_s`` describe the chaos leg alone; callers that time the
    #: whole harness run (both legs) must add these in, or the reported
    #: events/sec undercounts by roughly half.
    baseline_events: int = 0
    baseline_sim_seconds: float = 0.0
    #: The baseline leg's own wall time (worker-side when parallel).
    baseline_wall_s: float = 0.0
    #: How the legs executed: ``"serial"`` (back-to-back in-process)
    #: or ``"parallel"`` (two pool workers). Never part of the
    #: deterministic payload.
    mode: str = "serial"
    #: Shed accounting (brownout/overload runs): clients cut short by
    #: admission control or deadline expiry, by reason.
    shed: dict[str, int] = field(default_factory=dict)
    #: Clients neither completed nor explicitly shed. Must be 0 in
    #: brownout mode — nobody may simply vanish.
    unaccounted: int = 0
    #: Brownout-mode goodput floor; ``None`` keeps the classic
    #: completion_rate == 1.0 contract.
    brownout_floor: Optional[float] = None
    #: Per-app SLO scores (app -> SLOReport-shaped dict), present when
    #: SLO targets were passed to :func:`run_chaos`.
    slo: dict[str, dict] = field(default_factory=dict)

    @property
    def completion_rate(self) -> float:
        # Zero clients is a real outcome (empty cohort / everything
        # shed at the gate): report 0.0 rather than a vacuous 1.0.
        return self.completed / self.clients if self.clients else 0.0

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def ok(self) -> bool:
        """The (possibly brownout-shaped) degradation contract held."""
        if self.brownout_floor is not None:
            return (
                self.completion_rate >= self.brownout_floor
                and self.unaccounted == 0
                and not self.mismatches
            )
        return self.completion_rate == 1.0 and not self.mismatches

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "clients": self.clients,
            "background": self.background,
            "plan_faults": dict(self.plan_faults),
            "completed": self.completed,
            "completion_rate": self.completion_rate,
            "mismatches": list(self.mismatches),
            "faults_injected": self.faults_injected,
            "retries": self.retries,
            "fallbacks": dict(self.fallbacks),
            "quarantines": self.quarantines,
            "goodput": round(self.goodput, 6),
            "breaker_states": dict(self.breaker_states),
            "events": self.events,
            "events_per_sec": round(self.events_per_sec, 1),
            "sim_seconds": round(self.sim_seconds, 6),
            "wall_s": round(self.wall_s, 6),
            "baseline_wall_s": round(self.baseline_wall_s, 6),
            "mode": self.mode,
            "shed": dict(self.shed),
            "unaccounted": self.unaccounted,
            "brownout_floor": self.brownout_floor,
            "slo": {app: dict(score) for app, score in self.slo.items()},
            "ok": self.ok,
        }

    def to_text(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"chaos {status}: {self.completed}/{self.clients} runs completed "
            f"({self.completion_rate:.1%}), {len(self.mismatches)} result "
            "mismatches vs fault-free baseline",
            f"  plan: {sum(self.plan_faults.values())} faults "
            + (
                ", ".join(f"{kind} x{n}" for kind, n in self.plan_faults.items())
                if self.plan_faults
                else "(empty)"
            ),
            f"  injected: {self.faults_injected} faults -> {self.retries} "
            f"retries, {sum(self.fallbacks.values())} fallbacks, "
            f"{self.quarantines} quarantines (goodput {self.goodput:.1%})",
        ]
        for reason, count in sorted(self.fallbacks.items()):
            if count:
                lines.append(f"    fallback {reason}: {count}")
        if self.brownout_floor is not None:
            lines.append(
                f"  brownout: goodput {self.completion_rate:.1%} vs floor "
                f"{self.brownout_floor:.1%}, {self.shed_total} shed, "
                f"{self.unaccounted} unaccounted"
            )
            for reason, count in sorted(self.shed.items()):
                if count:
                    lines.append(f"    shed {reason}: {count}")
        for app, score in sorted(self.slo.items()):
            verdict = (
                "ok" if not score.get("violations") else
                "+".join(score["violations"])
            )
            lines.append(
                f"  slo {app}: p99={score.get('p99_latency_s')} "
                f"goodput={score.get('goodput')} {verdict}"
            )
        lines.append(
            f"  {self.events} events in {self.wall_s:.2f} s wall "
            f"({self.events_per_sec:,.0f} events/sec, "
            f"{self.sim_seconds:.1f} simulated s)"
        )
        for mismatch in self.mismatches[:10]:
            lines.append(f"  MISMATCH {mismatch}")
        if len(self.mismatches) > 10:
            lines.append(f"  ... and {len(self.mismatches) - 10} more mismatches")
        return "\n".join(lines)


def _run_workload(
    seed: int,
    n_clients: int,
    background: int,
    plan: Optional[FaultPlan],
    config: Optional[ResilienceConfig],
    trace=None,
    horizon_s: Optional[float] = None,
):
    """One scale_stress-shaped run; returns (runtime, records).

    The client mix and stagger are drawn from ``seed`` alone, so the
    baseline and chaos legs issue the *same* workload. With ``trace``
    (a :class:`repro.traffic.Trace`) the workload is the trace instead:
    one client per entry, launched open-loop at its recorded arrival
    time with its recorded session length and deadline — no RNG at
    all, so replay identity is the trace's own. ``horizon_s`` is
    forwarded to the injector's never-fires validation.
    """
    from repro.core import SystemMode, build_system
    from repro.workloads import PAPER_BENCHMARKS

    if trace is not None:
        app_names = sorted({entry.app for entry in trace})
    else:
        app_names = sorted(set(PAPER_BENCHMARKS))
    runtime = build_system(app_names, seed=seed, resilience=config)
    if plan is not None and len(plan):
        FaultInjector(runtime).arm(plan, horizon_s=horizon_s)
    load = runtime.launch_background(background)
    handles = []
    if trace is not None:
        for index, entry in enumerate(trace):
            handles.append(
                runtime.launch(
                    entry.app,
                    seed=seed + index,
                    mode=SystemMode.XAR_TREK,
                    calls=entry.calls,
                    delay_s=entry.arrival_s,
                    deadline_s=entry.deadline_s,
                )
            )
    else:
        pool = tuple(PAPER_BENCHMARKS)
        rng = np.random.default_rng(seed)
        for index in range(n_clients):
            app = pool[int(rng.integers(len(pool)))]
            delay = float(rng.uniform(0.0, 30.0))
            handles.append(
                runtime.launch(
                    app,
                    seed=seed + index,
                    mode=SystemMode.XAR_TREK,
                    calls=_CALLS_PER_CLIENT,
                    delay_s=delay,
                )
            )
    records = runtime.wait_all(handles)
    load.stop()
    return runtime, records


def _record_lines(records) -> list[str]:
    lines = []
    for rec in records:
        line = (
            f"{rec.app},{rec.start_s:.9f},{rec.end_s:.9f},{rec.calls_completed},"
            f"{rec.migrations},{','.join(str(t) for t in rec.targets)}"
        )
        # Shed decisions are part of the replay-stable payload; fully
        # served records keep the historical format byte-for-byte.
        if rec.shed_reason is not None:
            line += f",shed={rec.shed_reason}"
        lines.append(line)
    return lines


@dataclass
class _LegOutcome:
    """One leg's picklable result (what travels back from a worker)."""

    records: list
    events: int
    sim_seconds: float
    wall_s: float
    summary: dict


def _run_leg(args: tuple) -> _LegOutcome:
    """Run one harness leg; the worker entry point for ``jobs > 1``.

    Top-level (picklable) and a pure function of its arguments, so the
    serial path calls it in-process and gets the identical outcome.
    The wall clock is measured leg-side, preserving the "chaos leg
    alone" semantics of :attr:`ChaosReport.wall_s` in both modes.
    """
    seed, n_clients, background, plan, config = args[:5]
    trace = args[5] if len(args) > 5 else None
    horizon_s = args[6] if len(args) > 6 else None
    started = time.perf_counter()
    runtime, records = _run_workload(
        seed, n_clients, background, plan, config, trace, horizon_s
    )
    wall_s = time.perf_counter() - started
    sim = runtime.platform.sim
    return _LegOutcome(
        records=list(records),
        events=sim.events_processed,
        sim_seconds=sim.now,
        wall_s=wall_s,
        summary=runtime.resilience.summary(),
    )


def run_chaos(
    plan: Optional[FaultPlan] = None,
    seed: int = 0,
    quick: bool = False,
    config: Optional[ResilienceConfig] = None,
    clients: Optional[int] = None,
    background: Optional[int] = None,
    jobs: Optional[int | str] = None,
    traffic=None,
    brownout: Optional[BrownoutCriteria] = None,
    slo: Sequence = (),
    horizon_s: Optional[float] = None,
) -> ChaosReport:
    """Prove (or disprove) graceful degradation under ``plan``.

    Runs the seeded workload fault-free, then again with the plan
    armed, and compares per-client outcomes: same app, same seed, same
    number of completed calls. ``clients``/``background`` override the
    quick/full workload shape (tests use tiny fleets).

    ``traffic`` (a :class:`repro.traffic.Trace`) replaces the seeded
    workload with open-loop trace replay — one client per entry, with
    per-entry session lengths and deadlines. ``brownout`` switches the
    acceptance criterion to the graceful-degradation contract (see
    :class:`BrownoutCriteria`); shed clients are then accounted, not
    failures. ``slo`` is a sequence of
    :class:`repro.traffic.SLOTarget` scored over the chaos leg's
    records; the per-app scores land in the report (and its checksum
    lines). ``horizon_s`` enables the injector's
    would-never-fire plan validation.

    The two legs are independent, so ``jobs > 1`` (0 or ``"auto"``
    means all CPUs) runs them concurrently in two workers of the
    persistent sweep pool; per-leg results — and hence the report's
    deterministic payload — are identical to serial. ``jobs=None``
    runs the legs serially.
    """
    from repro.experiments.sweep import resolve_jobs

    if plan is None:
        plan = default_plan(seed)
    if traffic is not None:
        n_clients = len(traffic)
    else:
        n_clients = clients if clients is not None else (
            _QUICK_CLIENTS if quick else _FULL_CLIENTS
        )
    n_background = background if background is not None else (
        _QUICK_BACKGROUND if quick else _FULL_BACKGROUND
    )

    leg_args = [
        # fault-free baseline
        (seed, n_clients, n_background, None, config, traffic, None),
        # chaos
        (seed, n_clients, n_background, plan, config, traffic, horizon_s),
    ]
    mode = "serial"
    legs = None
    if jobs is not None and resolve_jobs(jobs) > 1:
        from concurrent.futures.process import BrokenProcessPool

        from repro.experiments.sweep import _pool_for, shutdown_pool

        pool = _pool_for(2)
        try:
            legs = list(pool.map(_run_leg, leg_args, chunksize=1))
            mode = "parallel"
        except BrokenProcessPool:
            # A worker died; both legs are deterministic, so finish
            # the harness serially instead of failing it.
            shutdown_pool()
            legs = None
    if legs is None:
        legs = [_run_leg(args) for args in leg_args]
    baseline_leg, chaos_leg = legs
    baseline, records = baseline_leg.records, chaos_leg.records

    # Expected session length per client: the trace entry's, or the
    # harness's fixed _CALLS_PER_CLIENT for the seeded workload.
    if traffic is not None:
        expected_calls = [entry.calls for entry in traffic]
    else:
        expected_calls = [_CALLS_PER_CLIENT] * n_clients

    completed = 0
    shed: dict[str, int] = {}
    for rec, expected in zip(records, expected_calls):
        if rec.shed_reason is not None:
            shed[rec.shed_reason] = shed.get(rec.shed_reason, 0) + 1
        elif rec.finished and rec.calls_completed == expected:
            completed += 1
    unaccounted = n_clients - completed - sum(shed.values())

    mismatches = []
    for index, (base, chaos) in enumerate(zip(baseline, records)):
        if (base.app, base.seed) != (chaos.app, chaos.seed):
            mismatches.append(
                f"client {index}: workload diverged "
                f"({base.app}/{base.seed} vs {chaos.app}/{chaos.seed})"
            )
            continue
        if brownout is not None and (
            base.shed_reason is not None or chaos.shed_reason is not None
        ):
            # Brownout mode: shed clients are accounted via `shed`, not
            # diffed — the bit-identity promise covers admitted work.
            continue
        if base.calls_completed != chaos.calls_completed:
            mismatches.append(
                f"client {index} ({chaos.app}): completed "
                f"{chaos.calls_completed} calls, baseline {base.calls_completed}"
            )

    summary = chaos_leg.summary
    lines = [f"chaos_stress:{n_clients}:{n_background}:{len(plan)}"]
    lines.extend(_record_lines(records))
    for reason in sorted(shed):
        lines.append(f"shed:{reason}:{shed[reason]}")

    slo_scores: dict[str, dict] = {}
    if slo:
        from repro.traffic import SLOTracker

        tracker = SLOTracker(slo)
        tracker.observe_all(records)
        for app, report in sorted(tracker.score().items()):
            slo_scores[app] = {
                "clients": report.clients,
                "completed": report.completed,
                "shed": report.shed,
                "deadline_hits": report.deadline_hits,
                "p99_latency_s": report.p99_latency_s,
                "goodput": round(report.goodput, 6),
                "violations": list(report.violations),
            }
        lines.extend(tracker.lines())

    return ChaosReport(
        seed=seed,
        clients=n_clients,
        background=n_background,
        plan_faults=plan.counts_by_kind(),
        completed=completed,
        mismatches=mismatches,
        faults_injected=summary["faults_injected"],
        retries=summary["retries"],
        fallbacks={k: v for k, v in summary["fallbacks"].items() if v},
        quarantines=summary["quarantines"],
        goodput=summary["goodput"],
        breaker_states=summary["breaker_states"],
        events=chaos_leg.events,
        sim_seconds=chaos_leg.sim_seconds,
        wall_s=chaos_leg.wall_s,
        lines=lines,
        baseline_events=baseline_leg.events,
        baseline_sim_seconds=baseline_leg.sim_seconds,
        baseline_wall_s=baseline_leg.wall_s,
        mode=mode,
        shed=shed,
        unaccounted=unaccounted,
        brownout_floor=(
            brownout.goodput_floor if brownout is not None else None
        ),
        slo=slo_scores,
    )
