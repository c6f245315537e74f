"""What one call costs the event engine, per target.

The engine queues an event only where simulated time passes or a
waiter really queues; a hand-off between two phases at the same
instant (the scheduler's reply, a link's propagation, a kernel's
finish, a migration's commit) runs in place. These budgets pin that:
a change that reintroduces a queued hop, or a process, on one call's
path shows up as a larger count. A delayed run costs what an
immediate one does: it starts in the slot its launch queued.
"""

import math

import pytest

from repro.core import build_system
from repro.sim import Simulator
from repro.types import Target

#: Engine events for one idle-deployment run of digit.500 with one
#: XAR_TREK call, by the target Algorithm 2 picks, whether it starts at
#: once or after a delay. With the scheduler's accept loop and queued
#: hand-offs the same immediate runs cost 9, 23 and 18; while a wrapper
#: event started a delayed run, that run cost 9, 17 and 13.
BUDGET = {Target.X86: 7, Target.ARM: 15, Target.FPGA: 11}


def _one_call(target: Target, delay_s: float = 0.0):
    runtime = build_system(["digit.500"], early_configure=False)
    sim = runtime.platform.sim
    entry = runtime.server.thresholds.entry("digit.500")
    entry.fpga_threshold = 0.0 if target is Target.FPGA else math.inf
    entry.arm_threshold = 0.0 if target is Target.ARM else math.inf
    if target is Target.FPGA:
        sim.run_until_event(runtime.preload_fpga())
    sim.run()  # the daemon is online and the deployment idle
    before = sim.events_processed
    record = sim.run_until_event(
        runtime.launch("digit.500", calls=1, delay_s=delay_s)
    )
    sim.run()  # the client's unused reply timeout
    return record, sim.events_processed - before, runtime


@pytest.mark.parametrize(
    "target, delay_s",
    [
        pytest.param(target, delay_s, id=f"{target}{suffix}")
        for target in BUDGET
        for delay_s, suffix in ((0.0, ""), (1.0, "-delayed"))
    ],
)
def test_one_call_costs_its_budget(target, delay_s):
    record, events, runtime = _one_call(target, delay_s)
    assert record.targets == [target]
    if target is Target.ARM:
        assert runtime.dsm.stats.page_transfers > 0
    assert events == BUDGET[target]


def test_simulator_runs_no_processes():
    assert not hasattr(Simulator, "spawn")
