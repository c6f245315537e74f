"""The benchmark's four workloads, driven only through the public API.

Each workload splits into ``setup(seed)``, which generates every input
from the seed and names the application sets it deploys (compiled once
per process by :func:`compile_app_sets`), and ``run(inputs)``, one
complete experiment on those inputs (deployment build included)
returning an :class:`Outcome`. Running the same inputs twice must give
the same outcome; the checksum over :attr:`Outcome.lines` is how the
benchmark checks that.

Library entry points are looked up on their modules at call time
(``core.build_system``, not a name imported here) so the traced run's
wrappers, installed after this module is imported, see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import repro.core as core
import repro.experiments.harness as harness
import repro.faults as faults
import repro.fleet as fleet_mod
import repro.traffic as traffic
from repro.core import SystemMode
from repro.workloads import PAPER_BENCHMARKS

#: The five-application pool of the paper's randomized sets.
POOL = tuple(PAPER_BENCHMARKS)
#: The same apps as one deployment's application set.
APPS = tuple(sorted(set(POOL)))


@dataclass
class Outcome:
    """What one iteration produced, as the benchmark scores it."""

    #: Checksum input: one line per client run record (app, start, end,
    #: calls, migrations, targets, shed reason) plus cohort summaries.
    lines: list[str] = field(default_factory=list)
    #: Simulated latency of every admitted client that completed.
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    completed: int = 0
    shed: int = 0
    unfinished: int = 0
    #: Completed clients that also met their deadline (all completed
    #: clients when there is no deadline).
    good: int = 0
    #: Deployments the iteration built, for reading simulated counters.
    runtimes: list = field(default_factory=list)
    fleet: object = None
    cohorts: object = None
    #: Workload-specific diagnostics (paper_grid's Fig. 4/5 gains).
    diagnostics: dict = field(default_factory=dict)


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _score_records(outcome: Outcome, records, expected_calls, latency=True) -> None:
    """Classify every client once and fold it into ``outcome``.

    Each class has its own predicate (no ``else`` bucket), so a record
    that fits two classes or none breaks the conservation check
    ``completed + shed + unfinished == attempted``. ``latency=False``
    keeps the clients out of the latency sample (paper_grid's baseline
    systems).
    """
    for rec, expected in zip(records, expected_calls):
        outcome.attempted += 1
        line = (
            f"{rec.app},{rec.start_s!r},{rec.end_s!r},{rec.calls_completed},"
            f"{rec.migrations},{','.join(str(t) for t in rec.targets)},"
            f"shed={rec.shed_reason}"
        )
        outcome.lines.append(line)
        shed = rec.shed_reason is not None
        done = rec.finished and rec.calls_completed == expected
        if shed:
            outcome.shed += 1
        if not shed and done:
            outcome.completed += 1
            if latency:
                outcome.latencies.append(rec.elapsed_s)
            if rec.deadline_s is None or rec.elapsed_s <= rec.deadline_s:
                outcome.good += 1
        if not shed and not done:
            outcome.unfinished += 1


# -- percall_scale -------------------------------------------------------------

_SCALE_CLIENTS = 1000
_SCALE_CALLS = 3
_SCALE_SPAN_S = 30.0
_SCALE_BACKGROUND = 50


def setup_percall_scale(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    # An equal share per app (in seeded order), as in fleet_cohort.
    apps = [POOL[i % len(POOL)] for i in rng.permutation(_SCALE_CLIENTS)]
    delays = [float(d) for d in rng.uniform(0.0, _SCALE_SPAN_S, _SCALE_CLIENTS)]
    return {
        "seed": seed,
        "app_sets": {APPS},
        "clients": list(zip(apps, delays, _seeds(rng, _SCALE_CLIENTS))),
    }


def run_percall_scale(inputs: dict) -> Outcome:
    runtime = core.build_system(APPS, seed=inputs["seed"])
    load = runtime.launch_background(_SCALE_BACKGROUND)
    handles = [
        runtime.launch(
            app, seed=seed, mode=SystemMode.XAR_TREK, calls=_SCALE_CALLS,
            delay_s=delay,
        )
        for app, delay, seed in inputs["clients"]
    ]
    records = runtime.wait_all(handles)
    load.stop()
    outcome = Outcome(runtimes=[runtime])
    _score_records(outcome, records, [_SCALE_CALLS] * len(records))
    return outcome


# -- flash_crowd ---------------------------------------------------------------

_FLASH_HORIZON_S = 30.0
_FLASH_DEADLINE_S = 15.0
_FLASH_BACKGROUND = 10
_FLASH_CROWDS = 8


def _flash_config():
    return faults.ResilienceConfig(
        overload=faults.OverloadConfig(
            x86_only_enter_load=70.0,
            x86_only_exit_load=40.0,
            shed_enter_load=120.0,
            shed_exit_load=60.0,
            deadline_load_cost_s=0.25,
        )
    )


def _flash_plan():
    # A device crash inside the 10x spike, then a 20x slow scheduler.
    return faults.FaultPlan(
        specs=(
            faults.FaultSpec(at_s=11.0, kind="device_crash", duration_s=3.0),
            faults.FaultSpec(at_s=12.0, kind="server_slow", duration_s=2.0, factor=20.0),
        ),
        seed=0,
    )


def setup_flash_crowd(seed: int) -> dict:
    # One crowd's cost and goodput swing with how many clients its spike
    # draws, so an iteration replays several independent crowds.
    crowds = []
    for child in np.random.SeedSequence(seed).spawn(_FLASH_CROWDS):
        crowd_seed = int(child.generate_state(1)[0])
        spec = traffic.TrafficSpec(
            apps=("digit.500", "facedet.320", "facedet.640"),
            base_rate_per_s=3.0,
            horizon_s=_FLASH_HORIZON_S,
            diurnal_period_s=_FLASH_HORIZON_S,
            diurnal_amplitude=0.4,
            spikes=(traffic.SpikeWindow(at_s=10.0, duration_s=5.0, factor=10.0),),
            calls_alpha=1.5,
            calls_max=4,
            deadline_s=_FLASH_DEADLINE_S,
            seed=crowd_seed,
        )
        trace = traffic.generate_trace(spec)
        rng = np.random.default_rng(crowd_seed)
        crowds.append({
            "seed": crowd_seed,
            "apps": sorted({entry.app for entry in trace}),
            "trace": trace,
            "seeds": _seeds(rng, len(trace)),
        })
    return {"app_sets": {tuple(c["apps"]) for c in crowds}, "crowds": crowds}


def run_flash_crowd(inputs: dict) -> Outcome:
    outcome = Outcome()
    for crowd in inputs["crowds"]:
        runtime = core.build_system(
            crowd["apps"], seed=crowd["seed"], resilience=_flash_config()
        )
        faults.FaultInjector(runtime).arm(_flash_plan(), horizon_s=_FLASH_HORIZON_S)
        load = runtime.launch_background(_FLASH_BACKGROUND)
        trace = crowd["trace"]
        handles = [
            runtime.launch(
                entry.app, seed=seed, mode=SystemMode.XAR_TREK, calls=entry.calls,
                delay_s=entry.arrival_s, deadline_s=entry.deadline_s,
            )
            for entry, seed in zip(trace, crowd["seeds"])
        ]
        records = runtime.wait_all(handles)
        load.stop()
        outcome.runtimes.append(runtime)
        _score_records(outcome, records, [entry.calls for entry in trace])
    return outcome


# -- fleet_cohort --------------------------------------------------------------

_FLEET_NODES = 10
_FLEET_PER_CLIENT = 120
_FLEET_KEYS = 40
_FLEET_CALLS = 2
#: The routed runs start within this window, so they contend on their
#: nodes: latencies then spread out instead of sitting on a few
#: uncontended values, and stale gossip has load differences to act on.
_FLEET_SPAN_S = 2.0
_FLEET_COHORT_CLIENTS = 10_000
_FLEET_COHORT_CALLS = 4
_FLEET_BACKGROUND = 20
_LAWS = ("uniform", "poisson", "staggered")


def setup_fleet_cohort(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    # Each app gets an equal share of the routed runs: per-app latency
    # barely moves, so a random mix would make the median jump between
    # apps from one seed to the next.
    mix = [APPS[i % len(APPS)] for i in rng.permutation(_FLEET_PER_CLIENT)]
    runs = [
        (app, f"client{index % _FLEET_KEYS}", float(rng.uniform(0.0, _FLEET_SPAN_S)))
        for index, app in enumerate(mix)
    ]
    per_app = _FLEET_COHORT_CLIENTS // len(APPS)
    specs = []
    for index, app in enumerate(APPS):
        clients = per_app + (
            _FLEET_COHORT_CLIENTS - per_app * len(APPS) if index == 0 else 0
        )
        specs.append(
            core.CohortSpec(
                app,
                clients,
                calls=_FLEET_COHORT_CALLS,
                arrival=core.ArrivalLaw(
                    _LAWS[index % len(_LAWS)],
                    start=float(rng.uniform(0.0, 5.0)),
                    span=30.0,
                ),
                seed=int(rng.integers(2**32)),
            )
        )
    return {
        "seed": seed,
        "app_sets": {APPS},
        "runs": list(zip(runs, _seeds(rng, _FLEET_PER_CLIENT))),
        "specs": specs,
    }


def run_fleet_cohort(inputs: dict) -> Outcome:
    fleet = fleet_mod.FleetDeployment(
        fleet_mod.FleetConfig(
            nodes=_FLEET_NODES, apps=APPS, seed=inputs["seed"]
        )
    )
    handles = [
        fleet.launch(
            app, client=key, seed=seed, mode=SystemMode.XAR_TREK,
            calls=_FLEET_CALLS, delay_s=delay,
        )
        for (app, key, delay), seed in inputs["runs"]
    ]
    records = fleet.wait_all(handles)
    cohorts = fleet.run_cohorts(inputs["specs"], background=_FLEET_BACKGROUND, jobs=1)
    fleet.stop()
    outcome = Outcome(
        runtimes=[node.runtime for node in fleet.nodes], fleet=fleet, cohorts=cohorts
    )
    _score_records(outcome, records, [_FLEET_CALLS] * len(records))
    outcome.lines.extend(cohorts.lines())
    # Cohort clients count toward completion but not the latency sample:
    # their latency is a closed-form function of each decision, so its
    # order statistics take a handful of values that no seed moves.
    for _index, result in cohorts.node_results:
        for cohort in result.cohorts:
            done = int(np.count_nonzero(cohort.completions >= cohort.arrivals))
            outcome.attempted += len(cohort.completions)
            outcome.completed += done
            outcome.good += done
            outcome.unfinished += len(cohort.completions) - done
    return outcome


# -- paper_grid ----------------------------------------------------------------

_GRID_SIZES = (5, 10, 15, 20, 25)
#: Total resident processes per panel: Fig. 3 shape (no background),
#: Fig. 4 (60) and Fig. 5 (120); background tops the set up to the total.
_GRID_LOADS = (0, 60, 120)
_GRID_MODES = (SystemMode.VANILLA_X86, SystemMode.ALWAYS_FPGA, SystemMode.XAR_TREK)
_GRID_SETS = 4
#: The paper's reported Xar-Trek gain over vanilla x86 (percent).
PAPER_GAIN_BANDS = {60: (1.0, 88.0), 120: (19.0, 31.0)}


def setup_paper_grid(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cells = []
    for load in _GRID_LOADS:
        for size in _GRID_SIZES:
            background = max(0, load - size)
            for _repeat in range(_GRID_SETS):
                apps = harness.sample_application_set(rng, size, POOL)
                cells.append((load, background, apps, _seeds(rng, 1)[0]))
    return {
        "app_sets": {tuple(sorted(set(apps))) for _l, _b, apps, _s in cells},
        "cells": cells,
    }


def run_paper_grid(inputs: dict) -> Outcome:
    outcome = Outcome()
    # load -> mode -> summed per-set average execution time (seconds)
    totals = {load: {mode: 0.0 for mode in _GRID_MODES} for load in _GRID_LOADS}
    for load, background, apps, seed in inputs["cells"]:
        for mode in _GRID_MODES:
            runtime = core.build_system(sorted(set(apps)), seed=seed)
            result = harness.run_application_set(
                apps, mode, background=background, seed=seed, runtime=runtime
            )
            outcome.runtimes.append(runtime)
            outcome.lines.append(f"{mode.value}:{load}:{len(apps)}:{background}")
            expected = [
                runtime.result.application(app).profile.calls_per_run for app in apps
            ]
            _score_records(
                outcome, result.records, expected,
                latency=mode is SystemMode.XAR_TREK,
            )
            totals[load][mode] += result.average_s
    for load, band in PAPER_GAIN_BANDS.items():
        x86 = totals[load][SystemMode.VANILLA_X86]
        xar = totals[load][SystemMode.XAR_TREK]
        outcome.diagnostics[f"sim_gain_fig{4 if load == 60 else 5}_pct"] = {
            "value": (1.0 - xar / x86) * 100.0,
            "paper_band_pct": list(band),
        }
    return outcome


def compile_app_sets(inputs: list[dict]) -> None:
    """Compile every application set the inputs deploy (the compiler
    result is cached per process, so iterations reuse it)."""
    for apps in sorted(set().union(*(i["app_sets"] for i in inputs))):
        core.build_system(list(apps))


WORKLOADS = {
    "percall_scale": (setup_percall_scale, run_percall_scale),
    "flash_crowd": (setup_flash_crowd, run_flash_crowd),
    "fleet_cohort": (setup_fleet_cohort, run_fleet_cohort),
    "paper_grid": (setup_paper_grid, run_paper_grid),
}


def latency_summary(latencies: list[float]) -> dict:
    """Median and the highest of p90/p99/p99.9 with >= 10 samples beyond
    it (nearest rank), with the sample count, as the benchmark reports
    simulated latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        raise ValueError("no completed clients to take a latency from")

    def rank(q: float) -> int:
        return max(0, math.ceil(q / 100.0 * n) - 1)

    tail_q, tail_index = 50.0, rank(50.0)
    for q in (99.9, 99.0, 90.0):
        index = rank(q)
        if n - 1 - index >= 10:
            tail_q, tail_index = q, index
            break
    return {
        "p50": ordered[rank(50.0)],
        "tail": ordered[tail_index],
        "tail_q": tail_q,
        "n": n,
    }
