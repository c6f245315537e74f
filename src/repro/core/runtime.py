"""The deployed Xar-Trek system: platform + compiled bundle + scheduler.

:class:`XarTrekRuntime` wires everything together: the heterogeneous
platform model, the XRT device, one Popcorn runtime per application
(each binary carries its own liveness metadata), the shared DSM, the
scheduler server, and the Algorithm 1 updater. Experiments launch
application runs and background load through it and read back
:class:`~repro.core.application.RunRecord` results.

:func:`build_system` is the one-call entry point: compile the paper's
benchmarks and deploy onto the paper's testbed.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.compiler.pipeline import CompilationResult, XarTrekCompiler
from repro.compiler.profiling import ApplicationSpec, ProfilingSpec, SelectedFunction
from repro.core.application import ApplicationRun, RunRecord, SystemMode
from repro.core.client import ThresholdUpdater
from repro.core.server import SchedulerServer
from repro.faults.resilience import ResilienceConfig, ResiliencePolicy
from repro.hardware.platform import HeterogeneousPlatform, paper_testbed
from repro.metrics import Counter, Histogram
from repro.popcorn.dsm import DSM
from repro.popcorn.runtime import PopcornRuntime
from repro.sim import Event
from repro.types import Target
from repro.workloads import PAPER_BENCHMARKS, WorkloadProfile, profile_for
from repro.xrt import XRTDevice

__all__ = ["BackgroundLoad", "XarTrekRuntime", "build_system", "spec_for"]

#: Default function/kernel names per application, used by spec_for.
_DEFAULT_FUNCTION = {
    "cg.A": "conj_grad",
    "facedet.320": "detect_faces",
    "facedet.640": "detect_faces",
    "digit.500": "classify",
    "digit.2000": "classify",
    "spam.1024": "train_sgd",
}


def spec_for(app_names: Sequence[str]) -> ProfilingSpec:
    """A profiling spec (step A's artifact) for a set of registry apps."""
    applications = []
    for name in app_names:
        profile = profile_for(name)
        function = _DEFAULT_FUNCTION.get(name, "kernel")
        applications.append(
            ApplicationSpec(
                name=name,
                functions=(SelectedFunction(function, profile.kernel_name),),
            )
        )
    return ProfilingSpec(platform="alveo-u50", applications=tuple(applications))


class BackgroundLoad:
    """A pool of load-generator processes (the paper's MG-B instances).

    ``duty`` models how CPU-bound the generator is: 1.0 is a pure spin
    (every resident process always runnable — ideal processor sharing),
    lower values interleave compute bursts with memory-stall/IO gaps in
    1-second slices, which is closer to how a memory-bound NPB MG-B
    actually loads a host. The duty-cycle sensitivity study shows this
    single knob moves the high-load gains toward the paper's band.
    """

    def __init__(
        self,
        runtime: "XarTrekRuntime",
        n_processes: int,
        work_s: float,
        duty: float = 1.0,
        slice_s: float = 1.0,
    ):
        if not 0.0 < duty <= 1.0:
            raise ValueError(f"duty must be in (0, 1], got {duty}")
        if n_processes < 0:
            raise ValueError(f"n_processes must be >= 0, got {n_processes}")
        self.runtime = runtime
        self.n_processes = n_processes
        self.work_s = work_s
        self.duty = duty
        self.slice_s = slice_s
        self._stopped = False
        self.completed_rounds = 0
        if duty >= 1.0:
            # Pure spin: the worker is continuously runnable, so slicing
            # the round into 1-second bursts only multiplies the event
            # count — under ideal processor sharing the completion times
            # are identical. The workers enter together with the same
            # demand, so they are served alike and finish together: the
            # whole pool is one self-resubmitting job with n_processes
            # copies, one submit and one callback per round instead of
            # one per worker.
            x86 = runtime.platform.x86.cpu
            work_s = self.work_s

            def spin_round(job=None) -> None:
                if job is not None:
                    self.completed_rounds += job.copies
                if self._stopped:
                    return
                x86.execute_job(
                    work_s, tag="background", on_complete=spin_round,
                    copies=n_processes,
                )

            if n_processes:
                spin_round()
            return
        for index in range(n_processes):
            self._start_worker(index)

    def _start_worker(self, index: int) -> None:
        """One duty-cycled worker: rounds of ``work_s`` in bursts of
        ``slice_s * duty``, each burst followed by a stall of the rest
        of the slice."""
        sim = self.runtime.platform.sim
        x86 = self.runtime.platform.x86.cpu
        remaining = self.work_s

        def run_burst() -> None:
            burst = min(self.slice_s * self.duty, remaining)
            x86.execute_job(burst, tag="background", on_complete=stall)

        def stall(job) -> None:
            nonlocal remaining
            remaining -= job.work
            sim.defer(self.slice_s * (1 - self.duty), next_burst)

        def next_burst() -> None:
            nonlocal remaining
            if remaining <= 0 or self._stopped:
                # The round ends (a stop ends it early) and the next
                # one starts unless stopped.
                self.completed_rounds += 1
                if self._stopped:
                    return
                remaining = self.work_s
            run_burst()

        def first_burst() -> None:
            if not self._stopped:
                run_burst()

        # Stagger the stall phases so the pool's runnable count hovers
        # around n * duty instead of oscillating in lockstep.
        sim.defer((index % 16) * self.slice_s / 16 * (1 - self.duty), first_burst)

    def stop(self) -> None:
        """Let each worker finish its current slice, then exit."""
        self._stopped = True


class XarTrekRuntime:
    """A running Xar-Trek deployment."""

    def __init__(
        self,
        result: CompilationResult,
        platform: Optional[HeterogeneousPlatform] = None,
        use_dsm: bool = True,
        threshold_increase_step: float = 1.0,
        early_configure: bool = True,
        dynamic_thresholds: bool = True,
        policy=None,
        resilience: Optional[ResilienceConfig] = None,
    ):
        """``early_configure`` and ``dynamic_thresholds`` exist for the
        ablation benchmarks: they disable the instrumented main()'s
        startup FPGA-configuration call and Algorithm 1's run-time
        threshold refinement, respectively. ``policy`` swaps the
        scheduling policy (see :mod:`repro.core.policies`).
        ``resilience`` overrides the retry/breaker/timeout knobs
        (default: :class:`~repro.faults.resilience.ResilienceConfig`,
        which is a no-op until a fault actually fires)."""
        self.result = result
        self.early_configure = early_configure
        self.platform = platform or paper_testbed()
        self.metrics = self.platform.metrics
        self.resilience = ResiliencePolicy(
            clock=lambda: self.platform.sim.now,
            metrics=self.metrics,
            config=resilience,
        )
        self.xrt = XRTDevice(
            self.platform.sim,
            self.platform.fpga,
            self.platform.pcie,
            tracer=self.platform.tracer,
            metrics=self.metrics,
            host_cpu=self.platform.x86.cpu,
        )
        self.dsm: Optional[DSM] = None
        if use_dsm:
            self.dsm = DSM(
                self.platform.sim, self.platform.ethernet, tracer=self.platform.tracer
            )
            self.dsm.add_node(str(Target.X86))
            self.dsm.add_node(str(Target.ARM))
        self._popcorn: dict[str, PopcornRuntime] = {}
        #: Launch-path caches (see ApplicationRun): profile variants by
        #: (app, calls-per-run); the per-call metric families, which
        #: the first launch registers; their label children by (app,
        #: target).
        self._calls_profile_cache: dict[tuple[str, int], WorkloadProfile] = {}
        self._run_instruments: Optional[tuple[Histogram, Counter]] = None
        self._call_instruments: dict[
            tuple[str, Target], tuple[Histogram, Counter]
        ] = {}
        self.updater = (
            ThresholdUpdater(
                increase_step=threshold_increase_step, metrics=self.metrics
            )
            if dynamic_thresholds
            else None
        )
        self.server = SchedulerServer(
            platform=self.platform,
            xrt=self.xrt,
            thresholds=result.thresholds.copy(),
            kernel_images={
                kernel: image
                for image in result.xclbins.values()
                for kernel in image.kernel_names
            },
            tracer=self.platform.tracer,
            policy=policy,
            resilience=self.resilience,
        )
        self.server.start()
        self.records: list[RunRecord] = []

    # -- lookups ------------------------------------------------------------
    def image_for(self, kernel_name: str):
        return self.result.xclbin_for(kernel_name)

    def popcorn_for(self, app_name: str) -> PopcornRuntime:
        if app_name not in self._popcorn:
            app = self.result.application(app_name)
            self._popcorn[app_name] = PopcornRuntime(
                self.platform, app.compiled.metadata, dsm=self.dsm
            )
        return self._popcorn[app_name]

    def preload_fpga(self, kernel_name: Optional[str] = None) -> Event:
        """Load an XCLBIN up front (for measurements that exclude setup).

        The paper's Table 1 x86/FPGA times exclude card configuration —
        the instrumented binary configures at startup, overlapped with
        host work. ``kernel_name`` picks the image to load; by default
        the first generated image.
        """
        if kernel_name is not None:
            image = self.image_for(kernel_name)
        else:
            image = next(iter(self.result.xclbins.values()))
        return self.xrt.load_xclbin(image)

    # -- launching work ------------------------------------------------------
    def launch(
        self,
        app_name: str,
        seed: int = 0,
        mode: SystemMode = SystemMode.XAR_TREK,
        deadline_s: Optional[float] = None,
        functional: bool = False,
        delay_s: float = 0.0,
        calls: Optional[int] = None,
    ) -> Event:
        """Start one application run; the event fires with its RunRecord.

        ``calls`` overrides the profile's calls-per-run (the modified
        multi-image face detection of Section 4.2); ``deadline_s`` stops
        issuing calls after a wall-clock budget (the 60 s throughput
        window).
        """
        app = self.result.application(app_name)
        run = ApplicationRun(
            self, app, seed=seed, mode=mode, deadline_s=deadline_s,
            functional=functional, calls=calls,
        )
        if delay_s <= 0:
            return run.start()
        done = self.platform.sim.event()

        def forward(ev: Event) -> None:
            if ev.ok:
                done.succeed(ev.value)
            else:
                done.fail(ev.value)

        def kick() -> None:
            inner = run.start()
            # The caller only holds `done`; a failed run must propagate
            # through it, not re-raise out of the inner event's
            # _process and crash the whole simulation.
            inner.defused = True
            inner.callbacks.append(forward)

        self.platform.sim.defer(delay_s, kick)
        return done

    def run_cohorts(
        self,
        specs,
        background: int = 0,
        fault_plan=None,
        resident_kernels=None,
    ):
        """Run a cohort-vectorized client population against this system.

        The population borrows the deployed server's threshold table,
        socket latency, and metrics registry, so its decision counters
        land next to the per-client scheduler's
        (:meth:`~repro.core.server.ServerStats.record_decisions`). A
        ``fault_plan`` is resolved ahead of time to individual clients
        via :func:`repro.faults.cohort.resolve_cohort_faults`. Returns
        a :class:`~repro.core.cohort.CohortRunResult`.
        """
        from repro.core.cohort import CohortPopulation
        from repro.faults.cohort import resolve_cohort_faults

        specs = tuple(specs)
        fault_targets = None
        if fault_plan is not None:
            fault_targets = resolve_cohort_faults(
                fault_plan, specs, self.server.thresholds
            )
        population = CohortPopulation(
            specs,
            background=background,
            server=self.server,
            resident_kernels=resident_kernels,
            fault_targets=fault_targets,
        )
        return population.run(sim=self.platform.sim)

    def launch_background(
        self, n_processes: int, work_s: Optional[float] = None, duty: float = 1.0
    ) -> BackgroundLoad:
        """Start ``n_processes`` MG-B-style load generators on the x86 host."""
        if work_s is None:
            work_s = profile_for("mg.B").vanilla_x86_s
        return BackgroundLoad(self, n_processes, work_s, duty=duty)

    def wait_all(self, events: Iterable[Event]) -> list[RunRecord]:
        """Run the simulation until every event fires; return the records."""
        results = []
        for event in events:
            results.append(self.platform.sim.run_until_event(event))
        return results

    # -- load accounting -----------------------------------------------------
    def load_snapshot(self) -> dict[str, dict[str, float]]:
        """Per-target load aggregates, read in O(1) from running
        integrals (no walk over active job sets).

        Keys per CPU cluster: ``value`` (current active jobs), ``min`` /
        ``max`` (post-transition extrema), ``time_weighted_mean`` (exact
        over [first submit, now]), ``updates`` (job start/finish
        transitions). The ``fpga`` entry carries the same gauge keys for
        in-flight kernel runs plus ``reconfiguring`` and
        ``resident_kernels`` (see :meth:`repro.xrt.XRTDevice.load_snapshot`),
        so load-based placement — including fleet gossip — sees
        accelerator pressure, not only CPU queues. The scale benchmarks
        report these for thousands of clients without perturbing the hot
        path.
        """
        return {
            "x86": self.platform.x86.cpu.load_snapshot(),
            "arm": self.platform.arm.cpu.load_snapshot(),
            "fpga": self.xrt.load_snapshot(),
        }

    def _finish(self, record: RunRecord) -> None:
        self.records.append(record)


#: Memoized compilation artifacts. The compiler pipeline is fully
#: deterministic in (application set, space-sharing flag) — no RNG, no
#: clock — and every mutable artifact a deployment touches is copied at
#: runtime construction (the threshold table) or read-only (profiles,
#: metadata, XCLBIN images), so experiment sweeps that redeploy the
#: same application mix skip the recompilation entirely.
_COMPILE_CACHE: dict[tuple, CompilationResult] = {}


def build_system(
    app_names: Sequence[str] = PAPER_BENCHMARKS,
    seed: int = 0,
    trace: bool = False,
    platform: Optional[HeterogeneousPlatform] = None,
    use_dsm: bool = True,
    replicate_compute_units: bool = False,
    **runtime_options,
) -> XarTrekRuntime:
    """Compile the given applications and deploy on the paper's testbed.

    ``replicate_compute_units`` turns on the space-sharing extension at
    compile time; extra keyword arguments go to :class:`XarTrekRuntime`
    (e.g. the ablation switches ``early_configure`` /
    ``dynamic_thresholds`` or a custom ``policy``).
    """
    cache_key = (tuple(app_names), replicate_compute_units)
    result = _COMPILE_CACHE.get(cache_key)
    if result is None:
        result = XarTrekCompiler(
            replicate_compute_units=replicate_compute_units
        ).compile(spec_for(app_names))
        _COMPILE_CACHE[cache_key] = result
    platform = platform or paper_testbed(seed=seed, trace=trace)
    return XarTrekRuntime(
        result, platform=platform, use_dsm=use_dsm, **runtime_options
    )
