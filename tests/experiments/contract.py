"""The behaviour contract's scenarios: nine seeded workloads and their checksums.

Each scenario drives one figure- or stress-shaped workload through the
simulator at a given seed and returns the lines its checksum folds
over: run records, cohort lines, sweep and chaos payloads. A change
that only makes the simulator faster or smaller must leave every
seed-0 checksum byte-identical; ``test_bench_contract.py`` holds them
to committed values.

The scenarios also keep the behavioural assertions their workloads
exist for: ``chaos_stress`` must degrade gracefully, and
``flash_crowd``'s protected run must hold its SLOs while the
unprotected control, at seed 0, violates a p99 target.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core import SystemMode, build_system
from repro.core.cohort import ArrivalLaw, CohortSpec
from repro.experiments.harness import run_application_set, sample_application_set
from repro.experiments.sweep import cells_for_sets, results_checksum, run_cells
from repro.experiments.throughput import measure_throughput
from repro.workloads import PAPER_BENCHMARKS

__all__ = ["SCENARIOS", "checksum", "cohort_stress_specs", "fold", "scale_workload"]

#: High-load process target of Figure 5 (more than the testbed's 102 cores).
_HIGH_LOAD_PROCESSES = 120

#: The committed fault plan of ``flash_crowd``: a device crash and a
#: slow-scheduler window inside the spike.
_FLASH_PLAN = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "flash_crowd_plan.json"
)

#: The paper benchmark set, one entry per application.
_APPS = tuple(sorted(set(PAPER_BENCHMARKS)))


def _lines_for_records(records) -> list[str]:
    return [
        f"{rec.app},{rec.start_s:.9f},{rec.end_s:.9f},{rec.calls_completed},"
        f"{rec.migrations},{','.join(str(t) for t in rec.targets)}"
        for rec in records
    ]


def _run_sets(configs: Sequence[tuple[int, int, SystemMode]], seed: int) -> list[str]:
    """One seeded application set per (size, background, mode) config."""
    lines: list[str] = []
    rng = np.random.default_rng(seed)
    for index, (size, background, mode) in enumerate(configs):
        apps = sample_application_set(rng, size)
        runtime = build_system(sorted(set(apps)), seed=seed + index)
        outcome = run_application_set(
            apps, mode, background=background, seed=seed + index, runtime=runtime
        )
        lines.append(f"{mode.value}:{size}:{background}")
        lines.extend(_lines_for_records(outcome.records))
    return lines


def _cohort_specs(rng, apps, n_clients: int, calls: int) -> list[CohortSpec]:
    """Deal ``n_clients`` across ``apps`` (the remainder to the first),
    one cohort each, cycling through three arrival laws."""
    laws = ("uniform", "poisson", "staggered")
    per_app = n_clients // len(apps)
    specs = []
    for index, app in enumerate(apps):
        clients = per_app + (n_clients - per_app * len(apps) if index == 0 else 0)
        specs.append(
            CohortSpec(
                app,
                clients,
                calls=calls,
                arrival=ArrivalLaw(
                    laws[index % len(laws)],
                    start=float(rng.uniform(0.0, 5.0)),
                    span=30.0,
                ),
                seed=int(rng.integers(2**32)),
            )
        )
    return specs


def fig3_low_load(seed: int) -> list[str]:
    """Figure-3 shape: small sets, no background, all four systems."""
    modes = (
        SystemMode.VANILLA_X86,
        SystemMode.XAR_TREK,
        SystemMode.ALWAYS_FPGA,
        SystemMode.VANILLA_ARM,
    )
    return _run_sets([(size, 0, mode) for size in (2, 4) for mode in modes], seed)


def fig5_high_load(seed: int) -> list[str]:
    """Figure-5 shape: 120 resident processes, sets of 5-25 apps, twice."""
    modes = (SystemMode.VANILLA_X86, SystemMode.ALWAYS_FPGA, SystemMode.XAR_TREK)
    configs = [
        (size, _HIGH_LOAD_PROCESSES - size, mode)
        for _repeat in range(2)
        for size in (5, 15, 25)
        for mode in modes
    ]
    return _run_sets(configs, seed)


def fig6_throughput(seed: int) -> list[str]:
    """Figure-6 shape: 60 s face-detection window over MG-B background."""
    lines = []
    for background in (0, 50, 100):
        for mode in (SystemMode.XAR_TREK, SystemMode.VANILLA_X86):
            throughput = measure_throughput(mode, background, seed=seed)
            lines.append(f"{mode.value}:{background}:{throughput:.9f}")
    return lines


def report_sweep(seed: int) -> list[str]:
    """Report shape: a Figure-5-style cell grid through the sweep executor."""
    modes = (SystemMode.VANILLA_X86, SystemMode.ALWAYS_FPGA, SystemMode.XAR_TREK)
    cells = [
        cell
        for size in (5, 15, 25)
        for cell in cells_for_sets(
            size, modes, background=_HIGH_LOAD_PROCESSES - size, repeats=3, seed=seed
        )
    ]
    serial = run_cells(cells, jobs=1)
    lines = [f"report_sweep:{len(cells)}:{results_checksum(serial.results)}"]
    for result in serial.results:
        lines.extend(_lines_for_records(result.outcome.records))
    return lines


def scale_workload(seed: int, n_clients: int, background: int):
    """N staggered XAR_TREK clients over the full benchmark pool on one
    deployment, with DSM-heavy migration churn. Returns (runtime, records).
    """
    pool = tuple(PAPER_BENCHMARKS)
    rng = np.random.default_rng(seed)
    runtime = build_system(sorted(set(pool)), seed=seed)
    load = runtime.launch_background(background)
    handles = []
    for index in range(n_clients):
        app = pool[int(rng.integers(len(pool)))]
        delay = float(rng.uniform(0.0, 30.0))
        handles.append(
            runtime.launch(
                app, seed=seed + index, mode=SystemMode.XAR_TREK, calls=3, delay_s=delay
            )
        )
    records = runtime.wait_all(handles)
    load.stop()
    return runtime, records


def scale_stress(seed: int) -> list[str]:
    """1000 staggered clients on one deployment over 50 background processes."""
    _runtime, records = scale_workload(seed, 1000, 50)
    return ["scale_stress:1000:50", *_lines_for_records(records)]


def cohort_stress_specs(seed: int) -> list[CohortSpec]:
    """The population of ``cohort_stress``: 10k clients over the paper
    benchmark set, five calls each."""
    return _cohort_specs(np.random.default_rng(seed), _APPS, 10_000, calls=5)


def cohort_stress(seed: int) -> list[str]:
    """10k cohort-vectorized clients on one deployment. With
    ``repro.core.cohort.CohortPopulation`` patched to the per-client
    ``ReferencePopulation`` it must give the same lines."""
    result = build_system(_APPS, seed=seed).run_cohorts(
        cohort_stress_specs(seed), background=50
    )
    return ["cohort_stress:10000:50", *result.lines()]


def fleet_stress(seed: int) -> list[str]:
    """A 10-node fleet: 120 sticky per-client runs on the shared clock,
    then 10k cohort clients sharded on the stale gossip view."""
    from repro.fleet import FleetConfig, FleetDeployment

    fleet = FleetDeployment(FleetConfig(nodes=10, apps=_APPS, seed=seed))
    rng = np.random.default_rng(seed)
    handles = []
    for index in range(120):
        app = _APPS[int(rng.integers(len(_APPS)))]
        handles.append(
            fleet.launch(
                app,
                client=f"client{index % 40}",
                seed=seed + index,
                mode=SystemMode.XAR_TREK,
                calls=2,
                delay_s=float(rng.uniform(0.0, 20.0)),
            )
        )
    records = fleet.wait_all(handles)
    specs = _cohort_specs(rng, _APPS, 10_000, calls=4)
    cohorts = fleet.run_cohorts(specs, background=20)
    fleet.stop()
    return ["fleet_stress:10:120:10000", *_lines_for_records(records), *cohorts.lines()]


def chaos_stress(seed: int) -> list[str]:
    """The scale workload under a seeded plan that fires every fault kind;
    every client must still complete with fault-free results."""
    from repro.faults import default_plan, run_chaos

    report = run_chaos(plan=default_plan(seed), seed=seed, jobs=1)
    assert report.ok, report.to_text()
    return report.lines


def flash_crowd(seed: int) -> list[str]:
    """A trace-driven flash crowd over a mid-surge device crash and a
    slow-scheduler window, with and without overload protection.

    The crowd is the interactive tier (face detection and digit
    recognition), whose latency SLOs a crowd can violate. The protected
    run must pass the brownout contract and every SLO. The unprotected
    control, on the same trace and faults, must violate a p99 target at
    seed 0: that proves the spike is lethal and the protected pass is
    the guard's doing. Lethality is a property of that one trace, so
    other seeds do not demand it.
    """
    from repro.faults import (
        BrownoutCriteria,
        FaultPlan,
        OverloadConfig,
        ResilienceConfig,
        run_chaos,
    )
    from repro.traffic import SLOTarget, SpikeWindow, TrafficSpec, generate_trace

    horizon, deadline = 30.0, 15.0
    spec = TrafficSpec(
        apps=("digit.500", "facedet.320", "facedet.640"),
        base_rate_per_s=3.0,
        horizon_s=horizon,
        diurnal_period_s=horizon,
        diurnal_amplitude=0.4,
        spikes=(SpikeWindow(at_s=10.0, duration_s=5.0, factor=10.0),),
        calls_alpha=1.5,
        calls_max=4,
        deadline_s=deadline,
        seed=seed,
    )
    # Deadline-aware shedding is the working lever; the ladder rungs sit
    # far above peak as the catastrophic-regime backstop.
    protected = ResilienceConfig(
        overload=OverloadConfig(
            x86_only_enter_load=70.0,
            x86_only_exit_load=40.0,
            shed_enter_load=120.0,
            shed_exit_load=60.0,
            deadline_load_cost_s=0.25,
        )
    )
    shared = dict(
        plan=FaultPlan.from_file(str(_FLASH_PLAN)),
        seed=seed,
        jobs=1,
        # Kept below the ladder's exit thresholds so brownout can clear.
        background=10,
        traffic=generate_trace(spec),
        slo=tuple(
            SLOTarget(app, p99_latency_s=deadline, goodput_floor=0.3)
            for app in spec.apps
        ),
        horizon_s=horizon,
    )
    report = run_chaos(
        config=protected, brownout=BrownoutCriteria(goodput_floor=0.5), **shared
    )
    assert report.ok, report.to_text()
    assert not any(score["violations"] for score in report.slo.values()), (
        report.to_text()
    )
    if seed == 0:
        unprotected = run_chaos(config=None, **shared)
        assert any(
            "p99_latency" in score["violations"] for score in unprotected.slo.values()
        ), unprotected.to_text()
    return report.lines


#: name -> fn(seed) -> checksum lines.
SCENARIOS: dict[str, Callable[[int], list[str]]] = {
    "fig3_low_load": fig3_low_load,
    "fig5_high_load": fig5_high_load,
    "fig6_throughput": fig6_throughput,
    "report_sweep": report_sweep,
    "scale_stress": scale_stress,
    "cohort_stress": cohort_stress,
    "chaos_stress": chaos_stress,
    "fleet_stress": fleet_stress,
    "flash_crowd": flash_crowd,
}


def fold(lines: Sequence[str]) -> str:
    """sha256 over the lines, each followed by a NUL byte; 16 hex digits."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def checksum(name: str, seed: int = 0) -> str:
    """The checksum of scenario ``name`` at ``seed``."""
    return fold(SCENARIOS[name](seed))
