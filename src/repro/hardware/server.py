"""A server: one CPU cluster plus its memory and network attachment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.cpu import CPUCluster, CPUSpec
from repro.hardware.interconnect import Link
from repro.metrics import MetricsRegistry
from repro.sim import Simulator

__all__ = ["ServerSpec", "Server"]


@dataclass(frozen=True)
class ServerSpec:
    """Static description of a server machine."""

    cpu: CPUSpec
    memory_bytes: int

    @property
    def name(self) -> str:
        return self.cpu.name


class Server:
    """A machine with a CPU cluster and a NIC onto the shared Ethernet."""

    def __init__(
        self,
        sim: Simulator,
        spec: ServerSpec,
        nic: Optional[Link] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.spec = spec
        self.cpu = CPUCluster(sim, spec.cpu, metrics=metrics)
        self.nic = nic

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def isa(self) -> str:
        return self.cpu.isa

    def __repr__(self) -> str:
        return f"Server({self.name}, {self.cpu!r})"
