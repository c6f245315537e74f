"""Step G — threshold estimation.

For each application, the estimation tool (Section 3.1) measures total
execution time in isolation for the two migration scenarios (x86-to-ARM
and x86-to-FPGA), *with all migration/communication overhead included*
("in locus"). It then re-runs the application on x86 while raising the
CPU load one process at a time, until the x86 time exceeds each
migrated time; those loads become the FPGA and ARM thresholds
(Table 2's rows).

Two measurement back ends produce identical numbers (a test asserts
it): an analytic processor-sharing formula, and an actual mini-
simulation on the hardware model — the latter is the honest "measure in
locus" reproduction, the former documents why the numbers are what they
are.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.hardware.cpu import CPUCluster, CPUSpec
from repro.hardware.platform import XEON_BRONZE_3104
from repro.sim import Simulator
from repro.thresholds import ThresholdEntry, ThresholdTable
from repro.types import Target
from repro.workloads.perfmodel import WorkloadProfile

__all__ = [
    "x86_time_under_load",
    "simulate_x86_time_under_load",
    "estimate_thresholds",
]


def x86_time_under_load(
    profile: WorkloadProfile, load: int, cores: int = XEON_BRONZE_3104.cores
) -> float:
    """Analytic x86 time with ``load`` total compute processes resident.

    Processor sharing: each of ``load`` identical single-threaded jobs
    on ``cores`` cores progresses at ``min(1, cores/load)``.
    """
    if load < 1:
        raise ValueError(f"load must be >= 1, got {load}")
    return profile.vanilla_x86_s * max(1.0, load / cores)


def simulate_x86_time_under_load(
    profile: WorkloadProfile, load: int, spec: CPUSpec = XEON_BRONZE_3104
) -> float:
    """Measured x86 time: run ``load`` instances on the cluster model."""
    if load < 1:
        raise ValueError(f"load must be >= 1, got {load}")
    sim = Simulator()
    cluster = CPUCluster(sim, spec)
    done = cluster.execute(profile.vanilla_x86_s)
    for _ in range(load - 1):
        cluster.execute(profile.vanilla_x86_s)
    sim.run_until_event(done)
    return sim.now


def _search_threshold(
    profile: WorkloadProfile, migrated_s: float, cores: int, max_load: int
) -> int:
    """Smallest load whose x86 time exceeds ``migrated_s`` (paper's sweep).

    A threshold of 0 means migration already wins with an idle host;
    ``max_load`` caps the sweep for never-profitable targets (the tool
    then reports the cap, and the scheduler will effectively never
    migrate — the BFS case of Section 4.4).
    """
    if migrated_s < profile.vanilla_x86_s:
        return 0
    if math.isinf(migrated_s):
        return max_load
    for load in range(1, max_load + 1):
        if x86_time_under_load(profile, load, cores) > migrated_s:
            return load
    return max_load


def estimate_thresholds(
    profiles: Iterable[WorkloadProfile],
    cores: int = XEON_BRONZE_3104.cores,
    max_load: int = 256,
) -> ThresholdTable:
    """Run step G for a set of applications.

    Each entry's observed times are seeded with the isolated
    measurements, exactly what Algorithm 1 starts refining at run-time.
    """
    table = ThresholdTable()
    for profile in profiles:
        fpga_s = profile.x86_fpga_s if profile.fpga_capable else math.inf
        arm_s = profile.x86_arm_s if profile.arm_capable else math.inf
        entry = ThresholdEntry(
            application=profile.name,
            kernel_name=profile.kernel_name,
            fpga_threshold=_search_threshold(profile, fpga_s, cores, max_load),
            arm_threshold=_search_threshold(profile, arm_s, cores, max_load),
        )
        entry.record(Target.X86, profile.vanilla_x86_s)
        if profile.fpga_capable:
            entry.record(Target.FPGA, fpga_s)
        if profile.arm_capable:
            entry.record(Target.ARM, arm_s)
        table.add(entry)
    return table
