"""Interconnect models: Ethernet between servers, PCIe to the FPGA.

A :class:`Link` is a fair-share bandwidth server plus a fixed
per-transfer propagation latency. Both interconnects in the paper's
testbed are *shared* — the paper stresses that their transfer cost is
non-trivial to estimate statically, which is why Xar-Trek measures
migrated execution time "in locus". The link model reproduces that
property: concurrent transfers slow each other down.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.sharing import FairShareServer
from repro.sim import Event, SimulationError, Simulator

__all__ = ["LinkSpec", "Link", "ETHERNET_1GBPS", "PCIE_GEN3_X16"]


@dataclass(frozen=True)
class LinkSpec:
    """Static description of an interconnect."""

    name: str
    bandwidth_bytes_per_s: float
    latency_s: float = 0.0

    def __post_init__(self):
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")


#: The paper's server interconnect: 1 Gbps Ethernet (Section 4).
ETHERNET_1GBPS = LinkSpec("ethernet", bandwidth_bytes_per_s=125e6, latency_s=100e-6)

#: The paper's FPGA interconnect: PCIe at 32 GB/s (Section 4).
PCIE_GEN3_X16 = LinkSpec("pcie", bandwidth_bytes_per_s=32e9, latency_s=5e-6)


class Link:
    """A bidirectional, fair-shared interconnect."""

    def __init__(self, sim: Simulator, spec: LinkSpec):
        self.sim = sim
        self.spec = spec
        self._server = FairShareServer(
            sim, spec.name, capacity=spec.bandwidth_bytes_per_s, job_cap=None
        )
        self._degradation = 1.0

    @property
    def active_transfers(self) -> int:
        return self._server.active_jobs

    @property
    def degradation(self) -> float:
        """Current bandwidth fraction (1.0 = healthy)."""
        return self._degradation

    def set_degradation(self, factor: float) -> None:
        """Run the link at ``factor`` of its nominal bandwidth.

        ``factor`` in (0, 1]; 1.0 restores full speed. In-flight
        transfers finish later/earlier accordingly (exact fair-share
        rescheduling — see :meth:`FairShareServer.set_capacity`). The
        fault injector uses this for link-degradation windows.
        """
        if not 0.0 < factor <= 1.0:
            raise SimulationError(f"degradation factor must be in (0, 1], got {factor!r}")
        if factor == self._degradation:
            return
        self._degradation = factor
        self._server.set_capacity(self.spec.bandwidth_bytes_per_s * factor)

    def transfer(self, nbytes: float) -> Event:
        """Move ``nbytes`` across the link; the event fires on completion."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes!r}")
        sim = self.sim
        done = sim.event()
        latency = self.spec.latency_s

        def after_bandwidth(_job) -> None:
            # Propagation latency applies once the pipe has drained.
            sim.defer(latency, done.succeed_in_place, nbytes)

        self._server.submit(float(nbytes), on_complete=after_bandwidth)
        return done

    def ideal_transfer_time(self, nbytes: float) -> float:
        """Uncontended transfer time for ``nbytes``."""
        return nbytes / self.spec.bandwidth_bytes_per_s + self.spec.latency_s

    def __repr__(self) -> str:
        gbps = self.spec.bandwidth_bytes_per_s * 8 / 1e9
        return f"Link({self.spec.name}: {gbps:.1f} Gbps, {self.active_transfers} active)"
