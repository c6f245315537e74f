"""CPU cluster model.

A :class:`CPUCluster` is a multi-core, processor-sharing compute server.
Work is expressed in *dedicated-core seconds on this cluster*; callers
that want cross-ISA comparisons scale the demand by the workload's
per-ISA performance profile before submitting (see
:mod:`repro.workloads.perfmodel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.hardware.sharing import FairShareServer, Job
from repro.metrics import MetricsRegistry
from repro.sim import Event, Simulator, Tracer

__all__ = ["CPUSpec", "CPUCluster"]


@dataclass(frozen=True)
class CPUSpec:
    """Static description of a CPU cluster."""

    name: str
    isa: str  # "x86_64" or "aarch64"
    cores: int
    freq_ghz: float
    #: Per-core relative throughput vs. the reference x86 core; used only
    #: as a default when a workload has no measured per-ISA profile.
    relative_core_perf: float = 1.0

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.freq_ghz <= 0:
            raise ValueError(f"freq_ghz must be positive, got {self.freq_ghz}")
        if self.isa not in ("x86_64", "aarch64", "riscv64"):
            raise ValueError(f"unknown ISA {self.isa!r}")


class CPUCluster:
    """A processor-sharing multi-core CPU.

    ``load`` is the number of active compute jobs — the same metric the
    paper's scheduler samples ("x86 CPU load" in Algorithms 1/2 and the
    process-count-based definition of Table 3).
    """

    def __init__(
        self,
        sim: Simulator,
        spec: CPUSpec,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.spec = spec
        self.tracer = tracer or Tracer(enabled=False)
        self._server = FairShareServer(sim, spec.name, capacity=spec.cores, job_cap=1.0)
        self._load_gauge = None
        if metrics is not None:
            # The scheduler's primary input. Pull-sampled: the fair-share
            # server already maintains the load timeline's aggregates
            # incrementally (O(1) per job start/finish), so the gauge
            # reads them at snapshot time instead of push-sampling on
            # every transition — the exported series is identical, the
            # per-job instrumentation cost is gone.
            self._load_gauge = metrics.gauge(
                "cpu_load",
                "active compute jobs per CPU cluster",
                labelnames=("cluster",),
            ).labels(cluster=spec.name)
            self._load_gauge.bind_sampler(self._server.load_snapshot)

    # -- load metrics -------------------------------------------------------
    @property
    def load(self) -> int:
        """Current number of active compute jobs on this cluster."""
        return self._server.active_jobs

    @property
    def cores(self) -> int:
        return self.spec.cores

    @property
    def isa(self) -> str:
        return self.spec.isa

    def utilization(self, since: float = 0.0) -> float:
        return self._server.utilization(since)

    def load_snapshot(self) -> dict[str, float]:
        """O(1) gauge-shaped load aggregates (see FairShareServer)."""
        return self._server.load_snapshot()

    def mean_load(self, since: float = 0.0) -> float:
        return self._server.mean_load(since)

    def busy_core_seconds(self) -> float:
        """Cumulative core-busy seconds served since t=0.

        Differencing this across a window gives the CPU work executed
        *during* that window — how reconfiguration-overlap accounting
        measures the latency Algorithm 2 hides behind CPU execution.
        """
        return self._server.utilization(0.0) * self.sim.now * self._server.capacity

    # -- execution --------------------------------------------------------
    def execute(self, core_seconds: float, tag: Any = None) -> Event:
        """Run ``core_seconds`` of single-threaded work; returns done event."""
        job = self.execute_job(core_seconds, tag=tag)
        if self.tracer.enabled:
            self.tracer.record(
                "cpu",
                f"{self.spec.name}: job {job.job_id} submitted",
                cluster=self.spec.name,
                work=core_seconds,
                load=self.load,
                tag=tag,
            )
        return job.done

    def execute_job(
        self, core_seconds: float, tag: Any = None, on_complete=None, copies: int = 1
    ) -> Job:
        """Like :meth:`execute` but returns the cancellable job handle.

        ``on_complete`` and ``copies`` forward to
        :meth:`FairShareServer.submit`: the callable is invoked with the
        job at completion and no ``done`` event is allocated; ``copies``
        runs that many identical single-threaded processes as one job.
        Load metrics need no per-job hooks here — the server's own
        aggregates feed the pull-sampled gauge.
        """
        return self._server.submit(
            core_seconds, tag=tag, on_complete=on_complete, copies=copies
        )

    def cancel(self, job: Job) -> None:
        self._server.cancel(job)

    def predicted_time(self, core_seconds: float, extra_jobs: int = 0) -> float:
        """Time to finish ``core_seconds`` if the load stayed constant.

        ``extra_jobs`` lets callers ask "what if N more jobs arrive?" —
        used by threshold estimation.
        """
        n = self._server.active_jobs + extra_jobs + 1  # +1 for the new job
        rate = self._server.rate_per_job(n)
        return core_seconds / rate if rate > 0 else float("inf")

    def __repr__(self) -> str:
        return (
            f"CPUCluster({self.spec.name}: {self.spec.cores}x{self.spec.isa}"
            f"@{self.spec.freq_ghz}GHz, load={self.load})"
        )
