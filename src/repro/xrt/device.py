"""XRT-like host API over the simulated FPGA card.

Xar-Trek's hardware migration path uses OpenCL APIs from the Xilinx
Runtime Library (Section 3.2) to (1) configure the accelerator card,
(2) manage host<->card data movement, and (3) orchestrate kernel
execution. :class:`XRTDevice` reproduces that API surface against the
:class:`~repro.hardware.fpga.FPGADevice` model: configuration goes
through the device's reconfiguration path, buffers move over the shared
PCIe link, and kernel runs occupy the kernel's compute unit for the
latency recorded in the XCLBIN (or a caller-supplied duration).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.hardware.fpga import FPGADevice
from repro.hardware.interconnect import Link
from repro.metrics import MetricsRegistry
from repro.sim import Event, SimulationError, Simulator, Tracer

__all__ = ["Buffer", "KernelRun", "XRTDevice", "XRTError"]


class XRTError(Exception):
    """Raised for API misuse (unknown kernel, image not loaded, ...)."""


@dataclass
class Buffer:
    """A device buffer handle (``cl::Buffer`` / ``xrt::bo`` analogue)."""

    buffer_id: int
    nbytes: int
    on_device: bool = False


@dataclass(frozen=True)
class KernelRun:
    """Completed-run record, for tests and traces."""

    kernel_name: str
    bytes_in: int
    bytes_out: int
    started_at: float
    finished_at: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class XRTDevice:
    """The host-side runtime for one accelerator card."""

    def __init__(
        self,
        sim: Simulator,
        fpga: FPGADevice,
        pcie: Link,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        host_cpu=None,
    ):
        """``host_cpu`` (a :class:`~repro.hardware.cpu.CPUCluster`) lets
        the device account how much CPU work executed *while* the card
        reconfigured — the latency Algorithm 2 hides."""
        self.sim = sim
        self.fpga = fpga
        self.pcie = pcie
        self.tracer = tracer or Tracer(enabled=False)
        self.host_cpu = host_cpu
        self._buffer_ids = itertools.count(1)
        self._loaded_image = None
        #: In-flight kernel executions (the scheduler must not
        #: reconfigure under a running kernel).
        self.active_runs = 0
        self.completed_runs: list[KernelRun] = []
        self.failed_runs = 0
        self._fail_next_runs: dict[str, int] = {}
        self.metrics = metrics or MetricsRegistry(clock=lambda: sim.now)
        self._m_reconfig = self.metrics.histogram(
            "fpga_reconfiguration_seconds",
            "wall time of each FPGA reconfiguration (incl. failed)",
        )
        self._m_reconfig_total = self.metrics.counter(
            "fpga_reconfiguration_seconds_total",
            "total time spent programming the card",
        )
        self._m_overlap = self.metrics.counter(
            "fpga_reconfig_overlap_core_seconds_total",
            "x86 core-seconds executed while a reconfiguration was in flight",
        )
        self._m_occupancy = self.metrics.gauge(
            "fpga_active_runs", "in-flight kernel invocations on the card"
        )
        self._m_kernel_runs = self.metrics.histogram(
            "fpga_kernel_run_seconds",
            "end-to-end h2d+execute+d2h time per kernel invocation",
            labelnames=("kernel",),
        )
        self._m_run_failures = self.metrics.counter(
            "fpga_kernel_failures_total",
            "kernel invocations that failed mid-flight",
            labelnames=("kernel",),
        )
        #: kernel -> histogram child; labels() revalidation is hot on
        #: the per-invocation path.
        self._run_hist_children: dict = {}

    # -- fault injection ---------------------------------------------------
    def inject_run_failures(self, kernel_name: str, count: int = 1) -> None:
        """Make the next ``count`` runs of ``kernel_name`` fail mid-flight
        (ECC error, watchdog timeout, ...). Callers are expected to
        retry and/or fall back to a CPU target.

        All arguments are validated *before* any state changes, and
        repeated arming is **additive**: arming 2 then 3 failures makes
        the next 5 runs of the kernel fail. Counters are consumed
        strictly in run order, one per started run.
        """
        if not isinstance(kernel_name, str) or not kernel_name:
            raise XRTError(f"kernel name must be a non-empty string, got {kernel_name!r}")
        if not isinstance(count, int) or isinstance(count, bool):
            raise XRTError(f"failure count must be an int, got {count!r}")
        if count < 0:
            raise XRTError("failure count must be non-negative")
        self._fail_next_runs[kernel_name] = (
            self._fail_next_runs.get(kernel_name, 0) + count
        )

    def pending_run_failures(self, kernel_name: str) -> int:
        """Armed-but-unconsumed run failures for ``kernel_name``."""
        return self._fail_next_runs.get(kernel_name, 0)

    # -- configuration ------------------------------------------------------
    def load_xclbin(self, image) -> Event:
        """Program the card with ``image``; free if already loaded.

        ``image`` must satisfy the ``ConfigImage`` protocol (an
        :class:`~repro.compiler.xclbin.XCLBIN` does).
        """
        if self.active_runs and (
            self.fpga.configured_image is None
            or self.fpga.configured_image.name != image.name
        ):
            raise XRTError("cannot load a different XCLBIN while kernels run")
        self._loaded_image = image
        reconfigs_before = self.fpga.reconfiguration_count
        done = self.fpga.configure(image)
        if self.fpga.reconfiguration_count > reconfigs_before:
            # A real programming pass started (not a cache hit / shared
            # in-flight wait): account its duration and how much host
            # CPU work ran concurrently — the hidden latency.
            started_at = self.sim.now
            cpu_busy_before = (
                self.host_cpu.busy_core_seconds() if self.host_cpu else 0.0
            )

            def account(_event: Event) -> None:
                elapsed = self.sim.now - started_at
                self._m_reconfig.observe(elapsed)
                self._m_reconfig_total.inc(elapsed)
                if self.host_cpu is not None:
                    self._m_overlap.inc(
                        max(0.0, self.host_cpu.busy_core_seconds() - cpu_busy_before)
                    )

            done.callbacks.append(account)
        return done

    @property
    def ready(self) -> bool:
        return bool(self.fpga.available_kernels)

    def has_kernel(self, kernel_name: str) -> bool:
        return self.fpga.has_kernel(kernel_name)

    @property
    def reconfiguring(self) -> bool:
        return self.fpga.reconfiguring

    def wait_reconfigured(self) -> Event:
        """Event firing when the in-flight reconfiguration settles
        (successfully or not); immediate when none is in flight."""
        return self.fpga.settled()

    def load_snapshot(self) -> dict[str, float]:
        """O(1) gauge-shaped occupancy aggregates for the card, the
        accelerator analogue of ``CPUCluster.load_snapshot`` — so
        load-based placement (node-local or fleet gossip) is not blind
        to FPGA pressure.

        On top of the occupancy-gauge keys (``value`` = in-flight
        kernel runs, ``min``/``max``, ``time_weighted_mean``,
        ``updates``) it reports ``reconfiguring`` (1.0 while a
        programming pass is in flight — new runs queue behind it) and
        ``resident_kernels`` (CUs usable on the configured image).
        """
        snapshot = dict(self._m_occupancy.aggregates())
        snapshot["reconfiguring"] = 1.0 if self.reconfiguring else 0.0
        snapshot["resident_kernels"] = float(len(self.fpga.available_kernels))
        return snapshot

    # -- buffers -----------------------------------------------------------
    def alloc_buffer(self, nbytes: int) -> Buffer:
        if nbytes < 0:
            raise XRTError(f"negative buffer size {nbytes}")
        return Buffer(buffer_id=next(self._buffer_ids), nbytes=nbytes)

    def sync_to_device(self, buffer: Buffer) -> Event:
        """Host -> card over PCIe (``clEnqueueMigrateMemObjects``)."""
        done = self.sim.event()
        transfer = self.pcie.transfer(buffer.nbytes, tag=("xrt-h2d", buffer.buffer_id))

        def mark(_ev: Event) -> None:
            buffer.on_device = True
            done.succeed(buffer)

        transfer.callbacks.append(mark)
        return done

    def sync_from_device(self, buffer: Buffer) -> Event:
        """Card -> host over PCIe."""
        if not buffer.on_device:
            raise XRTError(f"buffer {buffer.buffer_id} is not on the device")
        done = self.sim.event()
        transfer = self.pcie.transfer(buffer.nbytes, tag=("xrt-d2h", buffer.buffer_id))
        transfer.callbacks.append(lambda _ev: done.succeed(buffer))
        return done

    # -- execution -----------------------------------------------------------
    def kernel_latency(self, kernel_name: str) -> float:
        """The synthesized latency recorded in the loaded XCLBIN."""
        image = self._loaded_image
        if image is None or not hasattr(image, "kernel"):
            raise XRTError(f"no XCLBIN with latency info for {kernel_name!r}")
        return image.kernel(kernel_name).kernel_latency_s

    def run_kernel(
        self,
        kernel_name: str,
        bytes_in: int,
        bytes_out: int,
        duration: Optional[float] = None,
    ) -> Event:
        """One complete hardware invocation: h2d, execute, d2h.

        ``duration`` overrides the XCLBIN's synthesized latency (the
        calibrated profiles use this). The event fires with a
        :class:`KernelRun` record.
        """
        if not self.has_kernel(kernel_name):
            raise XRTError(
                f"kernel {kernel_name!r} is not loaded "
                f"(available: {list(self.fpga.available_kernels)})"
            )
        if duration is None:
            duration = self.kernel_latency(kernel_name)
        sim = self.sim
        done = sim.event()
        started = sim.now
        self.active_runs += 1
        self._m_occupancy.set(self.active_runs)

        fail_this_run = self._fail_next_runs.get(kernel_name, 0) > 0
        if fail_this_run:
            self._fail_next_runs[kernel_name] -= 1

        in_buf = self.alloc_buffer(bytes_in)
        out_buf = self.alloc_buffer(bytes_out)

        # The h2d -> execute -> d2h sequence as a callback chain rather
        # than a generator process: one run used to cost two process
        # bootstraps plus an event per stage boundary, all on the
        # hottest path of the FPGA experiments.
        def fail(exc: Exception) -> None:
            self.active_runs -= 1
            self._m_occupancy.set(self.active_runs)
            self.failed_runs += 1
            self._m_run_failures.labels(kernel=kernel_name).inc()
            done.fail(XRTError(str(exc)))

        def finish(_ev: Optional[Event] = None) -> None:
            self.active_runs -= 1
            self._m_occupancy.set(self.active_runs)
            run = KernelRun(
                kernel_name=kernel_name,
                bytes_in=bytes_in,
                bytes_out=bytes_out,
                started_at=started,
                finished_at=sim.now,
            )
            self.completed_runs.append(run)
            hist = self._run_hist_children.get(kernel_name)
            if hist is None:
                hist = self._run_hist_children[kernel_name] = (
                    self._m_kernel_runs.labels(kernel=kernel_name)
                )
            hist.observe(run.duration)
            if self.tracer.enabled:
                self.tracer.record(
                    "xrt",
                    f"{kernel_name} run complete ({run.duration * 1e3:.2f} ms)",
                    kernel=kernel_name,
                    duration=run.duration,
                )
            done.succeed_in_place(run)

        def after_execute(ev: Event) -> None:
            if not ev.ok:
                # The device failed the run mid-flight (crash window).
                fail(ev.value)
                return
            out_buf.on_device = True
            if bytes_out:
                transfer = self.pcie.transfer(
                    bytes_out, tag=("xrt-d2h", out_buf.buffer_id)
                )
                transfer.callbacks.append(finish)
            else:
                finish()

        def start_execute(_ev: Optional[Event] = None) -> None:
            in_buf.on_device = bool(bytes_in)
            if fail_this_run:
                # The fault surfaces partway through the kernel run.
                sim.call_in(
                    duration / 2,
                    lambda: fail(SimulationError(f"kernel {kernel_name} run fault")),
                )
                return
            try:
                execute_done = self.fpga.execute(kernel_name, duration)
            except SimulationError as exc:
                fail(exc)
                return
            # A crash can fail the device-side event; the failure is
            # converted to an XRTError on `done` above, so defuse it.
            execute_done.defused = True
            execute_done.callbacks.append(after_execute)

        if bytes_in:
            transfer = self.pcie.transfer(bytes_in, tag=("xrt-h2d", in_buf.buffer_id))
            transfer.callbacks.append(start_execute)
        else:
            start_execute()
        return done
