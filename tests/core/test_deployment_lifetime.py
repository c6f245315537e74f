"""A finished deployment is freed by reference counting.

The paper's evaluation runs hundreds of short deployments, one per
application set. If a finished deployment is a reference cycle, its
memory comes back only at a full collection, and peak RSS carries
every deployment that died since the last one. So nothing a component
stores may point back at its owner: clocks close over the simulator,
load generators keep the simulator and the x86 cluster, and a
cancelled timer or a crashed device drops its callbacks.

What may stay is the simulator's pending queue: entries still queued
when a run is dropped (a stopped background round, a stale
processor-sharing timer, a cancelled gossip tick) name components that
hold the simulator. That cycle must reach none of the deployment's
runtime, platform, registry, server, devices, policy, fleet or run
records.

Each shape runs with the collector off, then drops every reference and
checks, before any collection, that weak references to the deployment's
components are dead.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro import core, faults, traffic
from repro.core import SystemMode
from repro.core.application import RunRecord
from repro.experiments import harness
from repro.experiments.periodic import WaveLoad
from repro.fleet import FleetConfig, FleetDeployment

APPS = ("cg.A", "digit.500", "facedet.320")


@contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def components(runtime) -> list:
    """The objects one node's deployment is made of."""
    return [
        runtime,
        runtime.platform,
        runtime.metrics,
        runtime.server,
        runtime.xrt,
        runtime.platform.fpga,
        runtime.resilience,
    ]


def saved_garbage() -> list:
    """Run a full collection that keeps what it finds, and return it."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


# -- the deployment shapes: each returns what its caller would hold --------


def percall_scale():
    """Duty-1 background plus staggered launches."""
    runtime = core.build_system(APPS, seed=0)
    load = runtime.launch_background(20)
    handles = [
        runtime.launch(app, seed=i, calls=2, delay_s=0.3 * i)
        for i, app in enumerate(APPS * 4)
    ]
    runtime.wait_all(handles)
    load.stop()
    return runtime, components(runtime)


def duty_cycled_background():
    runtime = core.build_system(APPS, seed=0)
    load = runtime.launch_background(8, duty=0.5)
    handles = [runtime.launch(app, seed=i, delay_s=0.05) for i, app in enumerate(APPS)]
    runtime.wait_all(handles)
    load.stop()
    return runtime, components(runtime)


def flash_crowd():
    """A trace, a device crash with invocations queued on the card, a
    slow scheduler and overload protection."""
    spec = traffic.TrafficSpec(
        apps=("digit.500", "facedet.320", "facedet.640"),
        base_rate_per_s=3.0,
        horizon_s=30.0,
        diurnal_period_s=30.0,
        diurnal_amplitude=0.4,
        spikes=(traffic.SpikeWindow(at_s=10.0, duration_s=5.0, factor=10.0),),
        calls_alpha=1.5,
        calls_max=4,
        deadline_s=15.0,
        seed=1,
    )
    trace = traffic.generate_trace(spec)
    runtime = core.build_system(
        sorted({entry.app for entry in trace}),
        seed=1,
        resilience=faults.ResilienceConfig(
            overload=faults.OverloadConfig(
                x86_only_enter_load=70.0,
                x86_only_exit_load=40.0,
                shed_enter_load=120.0,
                shed_exit_load=60.0,
                deadline_load_cost_s=0.25,
            )
        ),
    )
    plan = faults.FaultPlan(
        specs=(
            faults.FaultSpec(at_s=11.0, kind="device_crash", duration_s=3.0),
            faults.FaultSpec(at_s=12.0, kind="server_slow", duration_s=2.0, factor=20.0),
        ),
        seed=0,
    )
    faults.FaultInjector(runtime).arm(plan, horizon_s=30.0)
    load = runtime.launch_background(10)
    handles = [
        runtime.launch(
            entry.app, seed=i, calls=entry.calls, delay_s=entry.arrival_s,
            deadline_s=entry.deadline_s,
        )
        for i, entry in enumerate(trace)
    ]
    runtime.wait_all(handles)
    load.stop()
    assert runtime.platform.fpga.crash_count == 1
    return runtime, components(runtime)


def application_set():
    """The paper grid's cell: a prebuilt runtime under background load."""
    apps = ["cg.A", "digit.500", "facedet.320", "digit.500"]
    runtime = core.build_system(sorted(set(apps)), seed=3)
    outcome = harness.run_application_set(
        apps, SystemMode.XAR_TREK, background=30, seed=3, runtime=runtime
    )
    return (runtime, outcome), components(runtime)


def fleet():
    """Four nodes with gossip, routed runs and a cohort run, then stop()."""
    deployment = FleetDeployment(FleetConfig(nodes=4, apps=APPS, seed=0))
    handles = [
        deployment.launch(app, client=f"c{i % 3}", seed=i, calls=2, delay_s=0.1 * i)
        for i, app in enumerate(APPS * 3)
    ]
    deployment.wait_all(handles)
    specs = [
        core.CohortSpec(
            app, 50, calls=2,
            arrival=core.ArrivalLaw("uniform", start=0.0, span=5.0), seed=i,
        )
        for i, app in enumerate(APPS)
    ]
    result = deployment.run_cohorts(specs, background=5)
    deployment.stop()
    parts = [deployment, deployment.metrics]
    for node in deployment.nodes:
        parts.extend(components(node.runtime))
    return (deployment, result), parts


def wave_load():
    """Figure 8: throughput windows over a triangle-wave background."""
    runtime = core.build_system(["facedet.320"], seed=0)
    wave = WaveLoad(runtime, low=2, high=12, period_s=60.0, duration_s=120.0)
    handles = [
        runtime.launch(
            "facedet.320", seed=i, calls=1000, deadline_s=10.0,
            delay_s=i * 40.0 + 0.01,
        )
        for i in range(2)
    ]
    runtime.wait_all(handles)
    wave.stop()
    return runtime, components(runtime)


SHAPES = [
    percall_scale,
    duty_cycled_background,
    flash_crowd,
    application_set,
    fleet,
    wave_load,
]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape.__name__)
def test_finished_deployment_is_freed_by_reference_counting(shape):
    with collector_off():
        held, parts = shape()
        refs = [weakref.ref(part) for part in parts]
        del held, parts
        alive = [type(ref()).__name__ for ref in refs if ref() is not None]
        assert alive == []
        # Whatever the pending queue still ties together, no run record
        # is part of it.
        garbage = saved_garbage()
        assert not [obj for obj in garbage if isinstance(obj, RunRecord)]


def drained_runtime():
    runtime = core.build_system(APPS, seed=0)
    runtime.wait_all([runtime.launch(app, seed=i) for i, app in enumerate(APPS)])
    runtime.platform.sim.run()
    return runtime


def cohort_run():
    runtime = core.build_system(APPS, seed=0)
    specs = [
        core.CohortSpec(
            app, 40, calls=2,
            arrival=core.ArrivalLaw("poisson", start=0.0, span=5.0), seed=i,
        )
        for i, app in enumerate(APPS)
    ]
    return runtime, runtime.run_cohorts(specs, background=4)


@pytest.mark.parametrize("shape", [drained_runtime, cohort_run],
                         ids=lambda shape: shape.__name__)
def test_deployment_with_empty_queue_leaves_no_garbage(shape):
    with collector_off():
        held = shape()
        del held
        assert gc.collect() == 0
