"""Chain-path vs generator-path differential oracle.

``ApplicationRun.start`` drives a client run as a precompiled callback
chain (``_chain_begin`` and friends). The generator process it was
compiled from is kept as the reference in
``tests/core/client_path_reference.py`` and selected per test by
patching the class ``XarTrekRuntime.launch`` builds. These tests pin
the equivalence contract: for any workload shape, fault plan or
overload setting, the two paths must produce byte-identical run
records, the same metrics snapshot, and the same threshold table.
"""

import math

import pytest

import repro.core.runtime
from repro.core import SystemMode, build_system
from repro.core.application import ApplicationRun
from repro.faults import (
    FALLBACK_REASONS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    OverloadConfig,
    ResilienceConfig,
)
from repro.workloads import profile_for
from tests.core.client_path_reference import GeneratorRun

APPS = ["digit.2000", "facedet.320", "cg.A", "facedet.640"]
MODES = [
    SystemMode.XAR_TREK,
    SystemMode.VANILLA_X86,
    SystemMode.ALWAYS_FPGA,
    SystemMode.VANILLA_ARM,
]
PATHS = {"chain": ApplicationRun, "generator": GeneratorRun}


def _lines(records):
    return [
        f"{rec.app},{rec.mode.value},{rec.start_s:.9f},{rec.end_s:.9f},"
        f"{rec.calls_completed},{rec.migrations},{rec.fpga_fallbacks},"
        f"{rec.retries},{rec.shed_reason},{','.join(str(t) for t in rec.targets)}"
        for rec in records
    ]


def _run(monkeypatch, path, launches, *, background=10, plan=None, **options):
    """Run ``launches`` ((app, launch kwargs) pairs) under one client path."""
    monkeypatch.setattr(repro.core.runtime, "ApplicationRun", PATHS[path])
    runtime = build_system(APPS, seed=7, **options)
    if plan is not None:
        FaultInjector(runtime).arm(plan)
    load = runtime.launch_background(background)
    records = runtime.wait_all(
        [runtime.launch(app, **kwargs) for app, kwargs in launches]
    )
    load.stop()
    return runtime, records


def _mixed_launches(*, deadline=False, modes=None):
    """One seeded mixed workload: 28 staggered clients over the apps,
    the last four starting at one instant."""
    modes = modes or [SystemMode.XAR_TREK]
    launches = []
    for index in range(28):
        kwargs = dict(
            seed=300 + index,
            mode=modes[index % len(modes)],
            calls=1 + index % 3,
            delay_s=0.35 * min(index, 24),
        )
        if deadline and index % 5 == 0:
            kwargs["deadline_s"] = 2.0
            kwargs.pop("calls")
        launches.append((APPS[index % len(APPS)], kwargs))
    return launches


def _assert_paths_agree(monkeypatch, launches, **options):
    """Both paths on the same arcs: same records, same metrics."""
    chain_rt, chain = _run(monkeypatch, "chain", launches, **options)
    generator_rt, generator = _run(monkeypatch, "generator", launches, **options)
    assert _lines(chain) == _lines(generator)
    assert chain_rt.metrics.snapshot() == generator_rt.metrics.snapshot()
    return chain_rt, chain


class TestChainGeneratorEquivalence:
    def test_mixed_workload_records_are_bit_identical(self, monkeypatch):
        _assert_paths_agree(monkeypatch, _mixed_launches())

    def test_all_system_modes_agree(self, monkeypatch):
        _assert_paths_agree(monkeypatch, _mixed_launches(modes=MODES))

    def test_deadline_runs_agree(self, monkeypatch):
        # Deadline-capped runs exercise the early-exit arcs of the
        # lifecycle state machine (no Algorithm 1 pass at exit).
        _assert_paths_agree(monkeypatch, _mixed_launches(deadline=True))

    def test_threshold_tables_agree(self, monkeypatch):
        # Algorithm 1 runs at client exit on both paths; the refined
        # table is observable scheduler state and must not diverge.
        chain_rt, _ = _run(monkeypatch, "chain", _mixed_launches())
        generator_rt, _ = _run(monkeypatch, "generator", _mixed_launches())
        chain_table = chain_rt.server.thresholds
        generator_table = generator_rt.server.thresholds
        for app in APPS:
            chain_entry = chain_table.entry(app)
            generator_entry = generator_table.entry(app)
            assert math.isclose(
                chain_entry.fpga_threshold, generator_entry.fpga_threshold
            ), app
            assert math.isclose(
                chain_entry.arm_threshold, generator_entry.arm_threshold
            ), app


def _fault_plan():
    """Strikes that reach every fallback arc and the retry arc."""
    kernels = sorted({profile_for(app).kernel_name for app in APPS})
    return FaultPlan((
        FaultSpec(at_s=0.5, kind="reconfig_fault"),
        *(
            FaultSpec(at_s=1.0, kind="kernel_fault", target=kernel, count=4)
            for kernel in kernels
        ),
        FaultSpec(at_s=4.0, kind="server_outage", duration_s=0.8),
        FaultSpec(at_s=5.0, kind="server_slow", duration_s=1.0, factor=400.0),
        FaultSpec(at_s=7.0, kind="reconfig_fault"),
        FaultSpec(at_s=9.0, kind="device_crash", duration_s=1.0),
        # Two 50 us socket hops x 200 = 20 ms: replies due exactly at
        # the default request timeout.
        FaultSpec(at_s=10.0, kind="server_slow", duration_s=5.0, factor=200.0),
    ))


class TestFaultAndOverloadArcs:
    def test_reply_due_at_the_timeout_is_within_budget(self, monkeypatch):
        # Every reply in the slow window lands exactly at the 20 ms
        # budget. The generator's AnyOf resumes after the events queued
        # for that instant, so the reply wins; the chain must agree.
        plan = FaultPlan((
            FaultSpec(at_s=2.0, kind="server_slow", duration_s=3.0, factor=200.0),
        ))
        launches = [
            (
                APPS[index % len(APPS)],
                dict(seed=300 + index, calls=1 + index % 3, delay_s=0.3 * index),
            )
            for index in range(24)
        ]
        runtime, _ = _assert_paths_agree(
            monkeypatch, launches, background=0, plan=plan
        )
        assert "scheduler_timeout" not in runtime.resilience.summary()["fallbacks"]

    def test_fault_plan_arcs_agree(self, monkeypatch):
        # Every app meets every mode (the mode index shifts by one per
        # round of apps), so ALWAYS_FPGA and XAR_TREK reach each kernel.
        launches = [
            (
                APPS[index % len(APPS)],
                dict(
                    seed=300 + index,
                    mode=MODES[(index + index // len(APPS)) % len(MODES)],
                    calls=1 + index % 3,
                    delay_s=0.35 * index,
                ),
            )
            for index in range(24)
        ]
        runtime, records = _assert_paths_agree(
            monkeypatch, launches, plan=_fault_plan(),
            resilience=ResilienceConfig(
                kernel_retry_limit=2,
                breaker_failure_threshold=2,
                breaker_cooldown_s=4.0,
            ),
        )
        # The plan must keep reaching every arc it exists to cover.
        summary = runtime.resilience.summary()
        assert set(summary["fallbacks"]) == set(FALLBACK_REASONS)
        assert sum(rec.retries for rec in records) > 0

    def test_admission_shedding_agrees(self, monkeypatch):
        config = ResilienceConfig(
            overload=OverloadConfig(
                x86_only_enter_load=12.0,
                x86_only_exit_load=6.0,
                shed_enter_load=20.0,
                shed_exit_load=14.0,
                deadline_load_cost_s=0.5,
            )
        )
        launches = []
        for index in range(48):
            kwargs = dict(seed=300 + index, delay_s=0.1 * index)
            if index % 2:
                kwargs["deadline_s"] = 2.0
            else:
                kwargs["calls"] = 1 + index % 3
            launches.append((APPS[index % len(APPS)], kwargs))
        _, records = _assert_paths_agree(
            monkeypatch, launches, background=4, resilience=config
        )
        shed = {rec.shed_reason for rec in records}
        assert {"brownout", "deadline", None} <= shed


@pytest.mark.parametrize("path", PATHS)
def test_a_delayed_run_starts_in_the_slot_its_launch_queued(monkeypatch, path):
    # The run's first step configures the FPGA early, so a probe queued
    # for the start instant before the launch sees the card idle and
    # one queued after it sees the reconfiguration under way.
    monkeypatch.setattr(repro.core.runtime, "ApplicationRun", PATHS[path])
    runtime = build_system(["digit.500"])
    sim = runtime.platform.sim
    sim.run()  # the daemon is online and the deployment idle
    start = sim.now + 1.0
    seen = []

    def probe():
        seen.append(runtime.xrt.reconfiguring)

    sim.call_at(start, probe)
    run = runtime.launch("digit.500", calls=1, delay_s=1.0)
    sim.call_at(start, probe)
    record = sim.run_until_event(run)
    assert seen == [False, True]
    assert record.start_s == start


def test_chain_completes_every_run(monkeypatch):
    _, records = _run(monkeypatch, "chain", _mixed_launches())
    assert all(rec.finished for rec in records)
    assert all(rec.calls_completed > 0 for rec in records)
