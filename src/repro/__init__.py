"""Xar-Trek reproduction: run-time execution migration among FPGAs and
heterogeneous-ISA CPUs (Horta et al., Middleware '21), in simulation.

The public API in one import::

    from repro import build_system, SystemMode, PAPER_BENCHMARKS

    runtime = build_system(PAPER_BENCHMARKS)
    done = runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
    record = runtime.platform.sim.run_until_event(done)

Subpackages:

* :mod:`repro.sim` — discrete-event simulation kernel
* :mod:`repro.hardware` — x86/ARM/FPGA platform models
* :mod:`repro.popcorn` — multi-ISA binaries, state transformation, DSM
* :mod:`repro.compiler` — the Xar-Trek compiler pipeline (steps A-G)
* :mod:`repro.xrt` — XRT/OpenCL-like host runtime for the FPGA
* :mod:`repro.workloads` — the paper's benchmarks, functional + profiled
* :mod:`repro.core` — scheduler (Algorithms 1-2), run-time, facade
* :mod:`repro.experiments` — every table and figure, regenerated
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__ = lazy_exports(globals(), {
    ".core": ("SystemMode", "XarTrekRuntime", "build_system"),
    ".types": ("Target",),
    ".workloads": ("PAPER_BENCHMARKS",),
})

__all__ = [
    "PAPER_BENCHMARKS",
    "SystemMode",
    "Target",
    "XarTrekRuntime",
    "build_system",
    "__version__",
]
