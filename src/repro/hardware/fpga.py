"""FPGA accelerator-card model (Xilinx Alveo U50-like).

The device holds at most one configuration image (XCLBIN) at a time;
swapping images costs a reconfiguration delay. Each loaded hardware
kernel has one compute unit, so concurrent invocations of the same
kernel serialize — exactly the contention an always-FPGA baseline
suffers in the paper's multi-tenant experiments.

Resource capacities (:class:`FPGAResources`) are shared with the
compiler's partitioning step (paper step E), which bin-packs kernels
into XCLBINs under the device's area budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.sim import Event, SimulationError, Simulator, Tracer

__all__ = [
    "FPGAResources",
    "FPGASpec",
    "FPGADevice",
    "ConfigImage",
    "ALVEO_U50",
]


@dataclass(frozen=True)
class FPGAResources:
    """A resource vector: LUTs, flip-flops, BRAM36 blocks, DSPs, URAMs."""

    lut: int = 0
    ff: int = 0
    bram: int = 0
    dsp: int = 0
    uram: int = 0

    def __add__(self, other: "FPGAResources") -> "FPGAResources":
        return FPGAResources(
            lut=self.lut + other.lut,
            ff=self.ff + other.ff,
            bram=self.bram + other.bram,
            dsp=self.dsp + other.dsp,
            uram=self.uram + other.uram,
        )

    def fits_in(self, budget: "FPGAResources") -> bool:
        """True if this vector fits within ``budget`` on every axis."""
        return (
            self.lut <= budget.lut
            and self.ff <= budget.ff
            and self.bram <= budget.bram
            and self.dsp <= budget.dsp
            and self.uram <= budget.uram
        )

    def max_fraction_of(self, budget: "FPGAResources") -> float:
        """The binding-constraint fraction of ``budget`` this vector uses."""
        fractions = []
        for attr in ("lut", "ff", "bram", "dsp", "uram"):
            cap = getattr(budget, attr)
            use = getattr(self, attr)
            if cap > 0:
                fractions.append(use / cap)
            elif use > 0:
                return float("inf")
        return max(fractions) if fractions else 0.0

    def scaled(self, factor: float) -> "FPGAResources":
        return FPGAResources(
            lut=int(self.lut * factor),
            ff=int(self.ff * factor),
            bram=int(self.bram * factor),
            dsp=int(self.dsp * factor),
            uram=int(self.uram * factor),
        )


@dataclass(frozen=True)
class FPGASpec:
    """Static description of an FPGA accelerator card."""

    name: str
    resources: FPGAResources
    hbm_bytes: int
    #: Fraction of the die reserved for the static shell (host interface,
    #: memory controllers, reconfiguration control — paper step E).
    shell_fraction: float = 0.2
    #: Fixed reconfiguration setup cost plus programming throughput.
    #: Programming an Alveo-class card over PCIe takes on the order of
    #: seconds end-to-end (driver setup + bitstream download), which is
    #: why hiding it behind CPU execution (Algorithm 2) and configuring
    #: at application start (Section 3.1) are load-bearing choices.
    reconfig_base_s: float = 2.0
    reconfig_bytes_per_s: float = 250e6

    @property
    def usable_resources(self) -> FPGAResources:
        """Resources left for user kernels after the static shell."""
        return self.resources.scaled(1.0 - self.shell_fraction)

    def reconfig_time(self, image_bytes: float) -> float:
        return self.reconfig_base_s + image_bytes / self.reconfig_bytes_per_s


#: The paper's card: Xilinx Alveo U50 (Section 4), 8 GB HBM2.
ALVEO_U50 = FPGASpec(
    name="alveo-u50",
    resources=FPGAResources(lut=872_000, ff=1_743_000, bram=1_344, dsp=5_952, uram=640),
    hbm_bytes=8 * 2**30,
)


class ConfigImage(Protocol):
    """What the device needs to know about an XCLBIN-like image."""

    name: str
    size_bytes: int

    @property
    def kernel_names(self) -> tuple[str, ...]: ...  # pragma: no cover


class _ComputeUnits:
    """One kernel's compute units, granted FIFO.

    A grant hands over no simulated time, so it runs the waiting
    invocation's continuation in place: at once when a unit is free,
    otherwise when :meth:`release` frees one.
    """

    __slots__ = ("capacity", "free", "waiting")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.free = capacity
        self.waiting: deque[Callable[[], None]] = deque()

    def acquire(self, run: Callable[[], None]) -> None:
        if self.free:
            self.free -= 1
            run()
        else:
            self.waiting.append(run)

    def release(self) -> None:
        if self.waiting:
            self.waiting.popleft()()
        else:
            self.free += 1


class FPGADevice:
    """A reconfigurable accelerator card attached over PCIe."""

    def __init__(self, sim: Simulator, spec: FPGASpec, tracer: Optional[Tracer] = None):
        self.sim = sim
        self.spec = spec
        self.tracer = tracer or Tracer(enabled=False)
        self._image: Optional[ConfigImage] = None
        #: available_kernels memo, keyed on image identity.
        self._avail_image: Optional[ConfigImage] = None
        self._avail_kernels: tuple[str, ...] = ()
        self._reconfiguring = False
        self._reconfig_done: Optional[Event] = None
        self._compute_units: dict[str, _ComputeUnits] = {}
        self.reconfiguration_count = 0
        self.failed_reconfigurations = 0
        #: Accumulated kernel-occupancy seconds (for energy accounting).
        self.busy_seconds = 0.0
        self._fail_next_reconfigs = 0
        #: Crash state: while crashed the card is off the bus — no
        #: kernels callable, configuration attempts fail asynchronously,
        #: in-flight runs abort. crash()/recover() are the fault
        #: injector's device-loss window.
        self._crashed = False
        self.crash_count = 0
        #: In-flight kernel executions (done events), failed en masse on
        #: a crash; finish callbacks guard on `done.triggered`.
        self._inflight_execs: dict[int, Event] = {}
        self._exec_ids = 0

    # -- queries -------------------------------------------------------------
    @property
    def configured_image(self) -> Optional[ConfigImage]:
        return self._image

    @property
    def reconfiguring(self) -> bool:
        return self._reconfiguring

    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def available_kernels(self) -> tuple[str, ...]:
        """Kernels callable right now (none while reconfiguring/crashed)."""
        if self._image is None or self._reconfiguring or self._crashed:
            return ()
        # kernel_names rebuilds a tuple from the image's kernel dict on
        # every access; memoize per image identity (images are frozen).
        if self._avail_image is not self._image:
            self._avail_image = self._image
            self._avail_kernels = tuple(self._image.kernel_names)
        return self._avail_kernels

    def has_kernel(self, kernel_name: str) -> bool:
        if self._image is None or self._reconfiguring or self._crashed:
            return False
        if self._avail_image is not self._image:
            self._avail_image = self._image
            self._avail_kernels = tuple(self._image.kernel_names)
        return kernel_name in self._avail_kernels

    def settled(self) -> Event:
        """An event that fires once any in-flight reconfiguration settles.

        Succeeds regardless of the programming outcome — waiters
        re-check ``has_kernel`` — and immediately when nothing is in
        flight. Lets callers sleep until the card is decided instead of
        polling ``reconfiguring`` on a timer.
        """
        done = self.sim.event()
        inflight = self._reconfig_done
        if inflight is None:
            done.succeed()
        else:
            inflight.callbacks.append(lambda _ev: done.succeed())
        return done

    # -- fault injection ---------------------------------------------------
    def inject_reconfig_failures(self, count: int = 1) -> None:
        """Make the next ``count`` reconfigurations fail after their
        programming delay (driver/bitstream errors happen in practice;
        the scheduler must retry, not wedge).

        Validation happens *before* any state changes, and repeated
        arming is **additive**: ``inject_reconfig_failures(2)`` twice
        arms four failures. Injected failures are consumed strictly in
        reconfiguration order.
        """
        if not isinstance(count, int) or isinstance(count, bool):
            raise SimulationError(f"failure count must be an int, got {count!r}")
        if count < 0:
            raise SimulationError("failure count must be non-negative")
        self._fail_next_reconfigs += count

    @property
    def pending_reconfig_failures(self) -> int:
        """Armed-but-unconsumed reconfiguration failures."""
        return self._fail_next_reconfigs

    def crash(self) -> None:
        """The card drops off the bus (power fault, PCIe link loss).

        Idempotent while already crashed. Effects, all at the crash
        instant: the loaded image is lost, in-flight kernel runs fail,
        and an in-flight reconfiguration fails immediately (its
        ``configure`` event carries the error; ``settled`` waiters wake).
        """
        if self._crashed:
            return
        self._crashed = True
        self.crash_count += 1
        self.tracer.record("fpga", f"{self.spec.name}: device CRASHED")
        self._image = None
        self._compute_units = {}
        if self._reconfig_done is not None:
            done = self._reconfig_done
            self._reconfiguring = False
            self._reconfig_done = None
            self.failed_reconfigurations += 1
            done.fail(SimulationError(f"{self.spec.name}: device crashed mid-reconfiguration"))
        inflight = list(self._inflight_execs.values())
        self._inflight_execs.clear()
        for done in inflight:
            done.fail(SimulationError(f"{self.spec.name}: device crashed mid-run"))

    def recover(self) -> None:
        """The card comes back, unconfigured; the next ``configure``
        (e.g. the scheduler's background reconfiguration) restores it."""
        if not self._crashed:
            return
        self._crashed = False
        self.tracer.record("fpga", f"{self.spec.name}: device recovered (unconfigured)")

    # -- reconfiguration ------------------------------------------------------
    def configure(self, image: ConfigImage) -> Event:
        """Load ``image``; the event fires when kernels become callable.

        Configuring the already-loaded image is free. While a
        reconfiguration for the *same* image is in flight, callers share
        its completion event; requesting a *different* image mid-flight
        is an error (the paper serializes reconfigurations in the
        scheduler server).
        """
        if self._crashed:
            # Off the bus: fail asynchronously (callers treat it exactly
            # like a programming failure and retry after recovery).
            done = self.sim.event()
            done.fail(SimulationError(f"{self.spec.name}: device crashed"))
            return done
        if self._reconfiguring:
            assert self._reconfig_done is not None
            if self._image is not None and self._image.name == image.name:
                return self._reconfig_done
            raise SimulationError(
                f"{self.spec.name}: reconfiguration already in progress "
                f"(loading {self._image.name!r}, requested {image.name!r})"
            )
        if self._image is not None and self._image.name == image.name:
            done = self.sim.event()
            done.succeed(image.name)
            return done

        busy_cus = [
            name
            for name, cu in self._compute_units.items()
            if cu.free < cu.capacity
        ]
        if busy_cus:
            raise SimulationError(
                f"{self.spec.name}: cannot reconfigure while kernels run: {busy_cus}"
            )

        # Programming may fail; keep the outgoing image around so a
        # failure rolls back to it instead of leaving the card empty
        # (the resident kernels stayed valid — only the *new* bitstream
        # never took).
        prev_image = self._image
        prev_cus = self._compute_units
        self._image = image
        self._reconfiguring = True
        self.reconfiguration_count += 1
        delay = self.spec.reconfig_time(image.size_bytes)
        self.tracer.record(
            "fpga",
            f"{self.spec.name}: reconfiguring with {image.name} ({delay * 1e3:.1f} ms)",
            image=image.name,
            delay=delay,
        )
        done = self.sim.event()
        self._reconfig_done = done

        def finish() -> None:
            if done.triggered:
                return  # a crash already failed this reconfiguration
            self._reconfiguring = False
            self._reconfig_done = None
            if self._fail_next_reconfigs > 0:
                self._fail_next_reconfigs -= 1
                self.failed_reconfigurations += 1
                self._image = prev_image
                self._compute_units = prev_cus
                self.tracer.record(
                    "fpga",
                    f"{self.spec.name}: programming {image.name} FAILED"
                    + (f"; {prev_image.name} stays resident" if prev_image else ""),
                    image=image.name,
                )
                done.fail(
                    SimulationError(f"programming {image.name} failed")
                )
                return
            # Images may replicate compute units (space-sharing, paper
            # Section 7); default is one CU per kernel.
            cu_of = getattr(image, "compute_units", lambda _name: 1)
            self._compute_units = {
                name: _ComputeUnits(max(1, cu_of(name)))
                for name in image.kernel_names
            }
            self.tracer.record(
                "fpga",
                f"{self.spec.name}: {image.name} loaded",
                image=image.name,
                kernels=list(image.kernel_names),
            )
            done.succeed(image.name)

        self.sim.call_in(delay, finish)
        return done

    # -- execution -----------------------------------------------------------
    def execute(self, kernel_name: str, duration: float) -> Event:
        """Run ``kernel_name`` for ``duration`` seconds on its compute unit.

        Invocations of the same kernel queue FIFO on the single CU.
        """
        if not self.has_kernel(kernel_name):
            raise SimulationError(
                f"{self.spec.name}: kernel {kernel_name!r} not loaded "
                f"(available: {list(self.available_kernels)})"
            )
        if duration < 0:
            raise SimulationError(f"negative kernel duration {duration!r}")
        cu = self._compute_units[kernel_name]
        sim = self.sim
        done = sim.event()
        self._exec_ids += 1
        token = self._exec_ids
        self._inflight_execs[token] = done

        def finish() -> None:
            self._inflight_execs.pop(token, None)
            if done.triggered:
                return  # aborted by a device crash mid-run
            cu.release()
            self.busy_seconds += duration
            self.tracer.record(
                "fpga",
                f"{self.spec.name}: {kernel_name} completed",
                kernel=kernel_name,
                duration=duration,
            )
            done.succeed_in_place(kernel_name)

        # Grant -> hold the CU for ``duration`` -> release and report.
        cu.acquire(lambda: sim.defer(duration, finish))
        return done

    def queue_length(self, kernel_name: str) -> int:
        """Waiting invocations for ``kernel_name`` (excluding the running one)."""
        cu = self._compute_units.get(kernel_name)
        return len(cu.waiting) if cu is not None else 0

    def __repr__(self) -> str:
        image = self._image.name if self._image else None
        return f"FPGADevice({self.spec.name}, image={image!r})"
