"""The heterogeneous platform: x86 + ARM servers and an FPGA card.

:func:`paper_testbed` reproduces the evaluation hardware of Section 4:
a Dell 7920 (Xeon Bronze 3104, 6 cores @ 1.7 GHz, 64 GB), a Cavium
ThunderX (96 ARM cores @ 2 GHz, 128 GB), a Xilinx Alveo U50 card,
1 Gbps Ethernet between the servers, and 32 GB/s PCIe to the FPGA.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.cpu import CPUCluster, CPUSpec
from repro.hardware.fpga import ALVEO_U50, FPGADevice, FPGASpec
from repro.hardware.interconnect import ETHERNET_1GBPS, PCIE_GEN3_X16, Link, LinkSpec
from repro.hardware.server import Server, ServerSpec
from repro.metrics import MetricsRegistry
from repro.sim import RandomStreams, Simulator, TimelineEvent
from repro.types import Target

__all__ = ["HeterogeneousPlatform", "paper_testbed", "XEON_BRONZE_3104", "THUNDERX"]

#: Dell 7920 host CPU (Section 4).
XEON_BRONZE_3104 = CPUSpec(name="x86", isa="x86_64", cores=6, freq_ghz=1.7)

#: Cavium ThunderX (Section 4). Per-core throughput on the paper's
#: compute kernels is well below the Xeon's (Table 1 shows 2.5-4x
#: slowdowns); 0.4 is the default for unprofiled work.
THUNDERX = CPUSpec(
    name="arm", isa="aarch64", cores=96, freq_ghz=2.0, relative_core_perf=0.4
)


#: The testbed's two servers. Specs are frozen values, so every
#: platform on the paper's CPUs shares these two.
_X86_SERVER = ServerSpec(cpu=XEON_BRONZE_3104, memory_bytes=64 * 2**30)
_ARM_SERVER = ServerSpec(cpu=THUNDERX, memory_bytes=128 * 2**30)


class HeterogeneousPlatform:
    """x86 server + ARM server + FPGA card, with their interconnects."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        x86_spec: CPUSpec = XEON_BRONZE_3104,
        arm_spec: CPUSpec = THUNDERX,
        fpga_spec: FPGASpec = ALVEO_U50,
        ethernet_spec: LinkSpec = ETHERNET_1GBPS,
        pcie_spec: LinkSpec = PCIE_GEN3_X16,
        seed: int = 0,
        trace: bool = False,
    ):
        self.sim = sim = sim or Simulator()
        #: The run timeline when ``trace`` is on (the scheduler server
        #: appends its decisions and FPGA loads), else None.
        self.timeline: Optional[list[TimelineEvent]] = [] if trace else None
        #: The simulated clock as a function, for every component that
        #: timestamps (the metrics registry, the resilience policy). It
        #: closes over the simulator, never over the platform: a clock
        #: that held the platform would make the whole deployment a
        #: reference cycle.
        self.clock = clock = lambda: sim.now
        #: The shared telemetry spine: every component attached to this
        #: platform records into the same registry, timestamped by the
        #: simulated clock and seeded by the platform RNG family.
        self.metrics = MetricsRegistry(
            clock=clock, rng=RandomStreams(seed).spawn("metrics")
        )

        self.ethernet = Link(self.sim, ethernet_spec)
        self.pcie = Link(self.sim, pcie_spec)
        self.x86 = Server(
            self.sim,
            _X86_SERVER
            if x86_spec is _X86_SERVER.cpu
            else ServerSpec(cpu=x86_spec, memory_bytes=_X86_SERVER.memory_bytes),
            nic=self.ethernet,
            metrics=self.metrics,
        )
        self.arm = Server(
            self.sim,
            _ARM_SERVER
            if arm_spec is _ARM_SERVER.cpu
            else ServerSpec(cpu=arm_spec, memory_bytes=_ARM_SERVER.memory_bytes),
            nic=self.ethernet,
            metrics=self.metrics,
        )
        self.fpga = FPGADevice(self.sim, fpga_spec)

    # -- convenience accessors ----------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def total_cores(self) -> int:
        """All CPU cores in the platform (102 in the paper's testbed)."""
        return self.x86.cpu.cores + self.arm.cpu.cores

    def cluster(self, target: Target) -> CPUCluster:
        """The CPU cluster for a CPU target; raises for FPGA."""
        if target is Target.X86:
            return self.x86.cpu
        if target is Target.ARM:
            return self.arm.cpu
        raise ValueError("FPGA is not a CPU cluster")

    @property
    def x86_load(self) -> int:
        """The scheduler's primary input: active processes on the x86 host."""
        return self.x86.cpu.load

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until)

    def __repr__(self) -> str:
        return (
            f"HeterogeneousPlatform(x86={self.x86.cpu.cores}c, "
            f"arm={self.arm.cpu.cores}c, fpga={self.fpga.spec.name})"
        )


def paper_testbed(seed: int = 0, trace: bool = False) -> HeterogeneousPlatform:
    """The exact evaluation platform of the paper (Section 4)."""
    return HeterogeneousPlatform(seed=seed, trace=trace)
