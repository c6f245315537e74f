"""What a finished deployment keeps for the cyclic collector.

The paper's evaluation runs hundreds of small deployments and keeps
each one's records until the experiment ends. Every container a
finished deployment still holds (a metric family, a memo, a closure
cell, a threshold row) is one more object each young collection and
every full one must traverse, so these budgets pin the GC-tracked
objects one finished application set retains, by type: a change that
makes a deployment keep more names the type it added.

The shape is one of the paper's Figure-4 sets (ten applications above
50 background processes) under each system ``paper_grid`` runs. The
compilation and its shared artifacts (initial states, transform memos)
exist before counting, as they do after the first deployment of an
experiment. Python 3.10 keeps a separate ``__dict__`` object per
instance where 3.11+ stores the attributes inline; instance dicts are
left out so the count is the same on both.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.core import SystemMode, build_system
from repro.experiments.harness import run_application_set

APPS = (
    "cg.A", "digit.500", "digit.500", "facedet.320", "digit.2000",
    "facedet.640", "digit.500", "cg.A", "facedet.320", "digit.2000",
)
BACKGROUND = 50
SEED = 0

#: Tracked objects a finished deployment of ``APPS`` keeps, by type.
#: Before metric families were declared and made on first use, the
#: transform memo moved to the compilation and threshold rows were
#: copied on first read, the same runs kept 157 (x86), 184 (FPGA) and
#: 231 (Xar-Trek) objects.
BUDGET = {
    SystemMode.VANILLA_X86: {  # 87
        "BackgroundLoad": 1, "CPUCluster": 2, "CircuitBreaker": 1, "Counter": 6,
        "FPGADevice": 1, "FairShareServer": 4, "Gauge": 3,
        "HeterogeneousPlatform": 1, "Histogram": 2, "Job": 1, "Link": 2,
        "MetricsRegistry": 1, "RandomStreams": 1, "ResiliencePolicy": 1,
        "RunRecord": 10, "SchedulerServer": 1, "Server": 2, "ServerStats": 1,
        "Simulator": 1, "ThresholdTable": 1, "ThresholdUpdater": 1,
        "XRTDevice": 1, "XarTrekRuntime": 1, "array": 1,
        "builtin_function_or_method": 1, "cell": 1, "deque": 1, "dict": 7,
        "function": 1, "list": 18, "method": 5, "set": 1, "tuple": 5,
    },
    SystemMode.ALWAYS_FPGA: {  # 120
        "BackgroundLoad": 1, "CPUCluster": 2, "CircuitBreaker": 1, "Counter": 8,
        "FPGADevice": 1, "FairShareServer": 4, "Gauge": 4,
        "HeterogeneousPlatform": 1, "Histogram": 9, "Job": 1, "Link": 2,
        "MetricsRegistry": 1, "RandomStreams": 1, "ResiliencePolicy": 1,
        "RunRecord": 10, "SchedulerServer": 1, "Server": 2, "ServerStats": 1,
        "Simulator": 1, "ThresholdTable": 1, "ThresholdUpdater": 1,
        "XRTDevice": 1, "XarTrekRuntime": 1, "_ComputeUnits": 5, "array": 7,
        "builtin_function_or_method": 1, "cell": 1, "deque": 5, "dict": 9,
        "function": 1, "list": 24, "method": 5, "set": 1, "tuple": 5,
    },
    SystemMode.XAR_TREK: {  # 137
        "BackgroundLoad": 1, "CPUCluster": 2, "CircuitBreaker": 1,
        "Counter": 17, "DSM": 1, "DSMStats": 1, "FPGADevice": 1,
        "FairShareServer": 4, "Gauge": 3, "HeterogeneousPlatform": 1,
        "Histogram": 4, "Job": 1, "Link": 2, "MetricsRegistry": 1,
        "PopcornRuntime": 5, "RandomStreams": 1, "ResiliencePolicy": 1,
        "RunRecord": 10, "SchedulerServer": 1, "Server": 2, "ServerStats": 1,
        "Simulator": 1, "ThresholdEntry": 5, "ThresholdTable": 1,
        "ThresholdUpdater": 1, "XRTDevice": 1, "XarTrekRuntime": 1,
        "_ComputeUnits": 5, "_Span": 1, "array": 3,
        "builtin_function_or_method": 1, "cell": 1, "deque": 1, "dict": 18,
        "function": 1, "list": 21, "method": 6, "set": 2, "tuple": 6,
    },
}


def _kept_by_type(mode: SystemMode) -> Counter:
    warm = build_system(sorted(set(APPS)), seed=SEED)
    run_application_set(APPS, mode, background=BACKGROUND, seed=SEED, runtime=warm)
    del warm
    gc.collect()
    before = {id(obj) for obj in gc.get_objects()}
    runtime = build_system(sorted(set(APPS)), seed=SEED)
    outcome = run_application_set(
        APPS, mode, background=BACKGROUND, seed=SEED, runtime=runtime
    )
    assert len(outcome.records) == len(APPS)
    del outcome
    gc.collect()
    kept = [obj for obj in gc.get_objects() if id(obj) not in before]
    instance_dicts = {
        id(obj.__dict__)
        for obj in kept
        if hasattr(obj, "__dict__") and not isinstance(obj, type)
    }
    counts = Counter(
        type(obj).__name__ for obj in kept if id(obj) not in instance_dicts
    )
    assert runtime.records  # the deployment stays alive while counting
    return counts


@pytest.mark.parametrize("mode", list(BUDGET), ids=lambda mode: mode.value)
def test_a_finished_deployment_keeps_its_budget(mode):
    counts = _kept_by_type(mode)
    budget = BUDGET[mode]
    over = {
        name: (count, budget.get(name, 0))
        for name, count in sorted(counts.items())
        if count > budget.get(name, 0)
    }
    assert not over, f"types over budget (kept, budget): {over}"
    assert sum(counts.values()) <= sum(budget.values())
