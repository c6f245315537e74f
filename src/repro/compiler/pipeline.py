"""The full Xar-Trek compiler pipeline (Figure 1, steps A-G).

:class:`XarTrekCompiler` drives the whole flow: parse the profiling
spec (A), instrument each application (B), generate multi-ISA binaries
(C), synthesize one XO per selected function (D), partition XOs into
XCLBINs under the device area (E), generate the XCLBIN images (F), and
estimate per-application migration thresholds (G). The result bundle is
everything the run-time needs to deploy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.compiler.instrument import InstrumentedApplication, instrument
from repro.compiler.multi_isa import CodeModel, CompiledBinary, compile_multi_isa
from repro.compiler.partition import partition
from repro.compiler.profiling import ProfilingSpec
from repro.compiler.threshold_estimation import estimate_thresholds
from repro.compiler.xclbin import XCLBIN, generate_xclbin
from repro.compiler.xo import XilinxObject, generate_xo
from repro.hardware.fpga import ALVEO_U50, FPGASpec
from repro.popcorn.state import MachineState, TransformMemo
from repro.thresholds import ThresholdTable
from repro.workloads.perfmodel import WorkloadProfile, profile_for

__all__ = ["CompiledApplication", "CompilationResult", "XarTrekCompiler"]


@dataclass(frozen=True)
class CompiledApplication:
    """Everything the pipeline produced for one application."""

    name: str
    instrumented: InstrumentedApplication
    compiled: CompiledBinary
    profile: WorkloadProfile
    #: XCLBIN image name per selected function's kernel.
    kernel_images: dict[str, str] = field(default_factory=dict)

    @property
    def binary_size_bytes(self) -> int:
        return self.compiled.size_bytes


@dataclass
class CompilationResult:
    """The deployable bundle: binaries, images, and the threshold table.

    ``initial_states`` holds each application's prototype initial
    machine state, and ``transforms`` each application's memoized state
    transformer (:meth:`transforms_for`): run-time state, but a pure
    function of the frozen artifacts above. The first deployment that
    needs an entry fills it; every deployment of this result
    (``build_system`` caches results per application set) shares it,
    so an application's states are transformed once per compilation.
    """

    applications: dict[str, CompiledApplication]
    xclbins: dict[str, XCLBIN]
    thresholds: ThresholdTable
    device: FPGASpec
    initial_states: dict[str, MachineState] = field(
        default_factory=dict, repr=False, compare=False
    )
    transforms: dict[str, TransformMemo] = field(
        default_factory=dict, repr=False, compare=False
    )

    def application(self, name: str) -> CompiledApplication:
        try:
            return self.applications[name]
        except KeyError:
            raise KeyError(f"application {name!r} was not compiled") from None

    def transforms_for(self, name: str) -> TransformMemo:
        """The application's memoized state transformer (made on first use)."""
        memo = self.transforms.get(name)
        if memo is None:
            metadata = self.application(name).compiled.metadata
            memo = self.transforms[name] = TransformMemo(metadata)
        return memo

    def xclbin_for(self, kernel_name: str) -> XCLBIN:
        """The image that hosts a hardware kernel."""
        for image in self.xclbins.values():
            if kernel_name in image.kernel_names:
                return image
        raise KeyError(f"no XCLBIN hosts kernel {kernel_name!r}")


class XarTrekCompiler:
    """Drives steps A-G for a profiling specification.

    ``replicate_compute_units`` enables the space-sharing extension
    (paper Section 7): leftover FPGA area is filled with extra compute
    units so concurrent invocations of the same kernel run in parallel.
    """

    def __init__(
        self, device: FPGASpec = ALVEO_U50, replicate_compute_units: bool = False
    ):
        self.device = device
        self.replicate_compute_units = replicate_compute_units

    def compile(
        self,
        spec: ProfilingSpec,
        profiles: Optional[dict[str, WorkloadProfile]] = None,
        threshold_max_load: int = 256,
    ) -> CompilationResult:
        """Run the full pipeline.

        ``profiles`` overrides the calibrated per-workload profiles
        (keyed by application name); by default they come from the
        workload registry.
        """
        # Step A happened offline: `spec` is its artifact.
        apps: dict[str, CompiledApplication] = {}
        objects: list[XilinxObject] = []
        manual_groups: dict[str, str] = {}
        used_profiles: list[WorkloadProfile] = []

        for app_spec in spec.applications:
            profile = (profiles or {}).get(app_spec.name) or profile_for(app_spec.name)
            used_profiles.append(profile)

            # Step B: instrumentation.
            instrumented = instrument(app_spec)

            # Step C: multi-ISA binary generation (Popcorn).
            code = CodeModel(
                application=app_spec.name,
                loc=profile.loc,
                selected_functions=instrumented.selected_functions,
            )
            compiled = compile_multi_isa(code)

            # Step D: one XO per selected function.
            app_objects = []
            for fn in app_spec.functions:
                xo = generate_xo(app_spec.name, fn, self.device)
                app_objects.append(xo)
                if fn.xclbin_group is not None:
                    manual_groups[fn.kernel_name] = fn.xclbin_group
            objects.extend(app_objects)

            apps[app_spec.name] = CompiledApplication(
                name=app_spec.name,
                instrumented=instrumented,
                compiled=compiled,
                profile=profile,
            )

        # Step E: partition XOs into XCLBIN plans.
        plans = partition(objects, self.device, manual_groups=manual_groups)

        # Step F: generate images.
        xclbins = {
            plan.name: generate_xclbin(
                plan, self.device, replicate=self.replicate_compute_units
            )
            for plan in plans
        }

        # Back-fill each application's kernel -> image mapping.
        kernel_to_image = {
            kernel: image.name
            for image in xclbins.values()
            for kernel in image.kernel_names
        }
        for app_spec in spec.applications:
            app = apps[app_spec.name]
            for fn in app_spec.functions:
                app.kernel_images[fn.kernel_name] = kernel_to_image[fn.kernel_name]

        # Step G: threshold estimation.
        thresholds = estimate_thresholds(used_profiles, max_load=threshold_max_load)

        return CompilationResult(
            applications=apps,
            xclbins=xclbins,
            thresholds=thresholds,
            device=self.device,
        )
