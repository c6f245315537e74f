"""Calibrated per-target performance profiles (paper Tables 1 and 4).

The paper measures each benchmark's end-to-end time in three scenarios
(Table 1): vanilla x86, x86 with the selected function migrated to the
FPGA, and x86 with the function migrated to ARM. Our simulator needs a
finer decomposition — host work vs. function work, kernel time vs.
transfer time — so each profile is *calibrated*: transfer sizes are set
from the real data structures, a small host fraction is assumed, and
the residual function/kernel times are solved so the three uncontended
end-to-end times reproduce Table 1 exactly. A test asserts the
round-trip (profile -> predicted scenario times -> Table 1).

Times are stored in seconds; the paper's tables are milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from repro.hardware.interconnect import ETHERNET_1GBPS, PCIE_GEN3_X16, LinkSpec

__all__ = [
    "WorkloadProfile",
    "PAPER_TABLE1_MS",
    "PAPER_TABLE2",
    "PAPER_TABLE4_MS",
    "profile_for",
    "all_profiles",
    "CalibrationError",
]


class CalibrationError(Exception):
    """Raised when Table 1 numbers cannot be decomposed consistently."""


def _link_time(spec: LinkSpec, nbytes: float) -> float:
    return nbytes / spec.bandwidth_bytes_per_s + spec.latency_s


@dataclass(frozen=True)
class WorkloadProfile:
    """Decomposed timing model of one application.

    An application run is: one-time host work (startup, input IO), then
    ``calls_per_run`` invocations of the selected function, each
    preceded by per-call host work. The selected function costs
    ``func_x86_s`` on an x86 core, ``func_arm_s`` on an ARM core, or
    ``fpga_kernel_s`` on the FPGA compute unit plus PCIe transfers.
    Migrating to ARM round-trips the Popcorn state/working set over
    Ethernet.
    """

    name: str
    kernel_name: str
    loc: int
    host_work_s: float
    per_call_host_s: float
    func_x86_s: float
    func_arm_s: float
    fpga_kernel_s: float
    bytes_to_fpga: int
    bytes_from_fpga: int
    migration_state_bytes: int
    calls_per_run: int = 1
    fpga_capable: bool = True
    arm_capable: bool = True

    def __post_init__(self):
        for field_name in (
            "host_work_s",
            "per_call_host_s",
            "func_x86_s",
            "func_arm_s",
            "fpga_kernel_s",
        ):
            if getattr(self, field_name) < 0:
                raise CalibrationError(
                    f"{self.name}: {field_name} is negative "
                    f"({getattr(self, field_name):.6f}); the assumed host "
                    "fraction or transfer sizes are inconsistent with Table 1"
                )
        if self.calls_per_run < 1:
            raise CalibrationError(f"{self.name}: calls_per_run must be >= 1")

    # -- per-call target costs (uncontended) ---------------------------------
    def fpga_call_s(
        self, pcie: LinkSpec = PCIE_GEN3_X16, include_transfers: bool = True
    ) -> float:
        """One function invocation on the FPGA: transfers + kernel."""
        if not self.fpga_capable:
            raise CalibrationError(f"{self.name} has no hardware kernel")
        transfers = 0.0
        if include_transfers:
            transfers = _link_time(pcie, self.bytes_to_fpga) + _link_time(
                pcie, self.bytes_from_fpga
            )
        return transfers + self.fpga_kernel_s

    def arm_call_s(self, ethernet: LinkSpec = ETHERNET_1GBPS) -> float:
        """One invocation migrated to ARM: round-trip migration + function."""
        if not self.arm_capable:
            raise CalibrationError(f"{self.name} cannot migrate to ARM")
        one_way = _link_time(ethernet, self.migration_state_bytes)
        return 2 * one_way + self.func_arm_s

    # -- uncontended end-to-end scenario times (Table 1 columns) ---------------
    # Cached: these are re-read on the scheduling fast path (threshold
    # estimation, per-invocation cost models) and the profile is frozen,
    # so each is computed at most once per instance.
    @cached_property
    def vanilla_x86_s(self) -> float:
        return self.host_work_s + self.calls_per_run * (
            self.per_call_host_s + self.func_x86_s
        )

    @cached_property
    def x86_fpga_s(self) -> float:
        return self.host_work_s + self.calls_per_run * (
            self.per_call_host_s + self.fpga_call_s()
        )

    @cached_property
    def x86_arm_s(self) -> float:
        return self.host_work_s + self.calls_per_run * (
            self.per_call_host_s + self.arm_call_s()
        )

    @cached_property
    def arm_core_slowdown(self) -> float:
        """Per-core ARM/x86 time ratio for this workload's code."""
        if self.func_x86_s == 0:
            return 1.0
        return self.func_arm_s / self.func_x86_s

    @cached_property
    def vanilla_arm_s(self) -> float:
        """The whole application run natively on one ARM core."""
        return self.arm_core_slowdown * self.vanilla_x86_s

    def with_calls(self, calls_per_run: int) -> "WorkloadProfile":
        """The per-call profile of the multi-invocation throughput app.

        The paper's modified face detection reads one image file per
        kernel call (Section 4.2), so the single-run host work (input
        IO) becomes *per-call* host work. The one-call total is
        unchanged: ``with_calls(1)`` has the same end-to-end times.
        """
        return replace(
            self,
            calls_per_run=calls_per_run,
            host_work_s=0.0,
            per_call_host_s=self.per_call_host_s + self.host_work_s,
        )


def _calibrate(
    name: str,
    kernel_name: str,
    loc: int,
    x86_ms: float,
    fpga_ms: float,
    arm_ms: float,
    host_fraction: float,
    bytes_to_fpga: int,
    bytes_from_fpga: int,
    migration_state_bytes: int,
) -> WorkloadProfile:
    """Solve the decomposition so scenario totals reproduce Table 1."""
    x86_s, fpga_s, arm_s = x86_ms / 1e3, fpga_ms / 1e3, arm_ms / 1e3
    host = host_fraction * x86_s
    func_x86 = x86_s - host
    pcie_xfer = _link_time(PCIE_GEN3_X16, bytes_to_fpga) + _link_time(
        PCIE_GEN3_X16, bytes_from_fpga
    )
    fpga_kernel = fpga_s - host - pcie_xfer
    eth_round_trip = 2 * _link_time(ETHERNET_1GBPS, migration_state_bytes)
    func_arm = arm_s - host - eth_round_trip
    return WorkloadProfile(
        name=name,
        kernel_name=kernel_name,
        loc=loc,
        host_work_s=host,
        per_call_host_s=0.0,
        func_x86_s=func_x86,
        func_arm_s=func_arm,
        fpga_kernel_s=fpga_kernel,
        bytes_to_fpga=bytes_to_fpga,
        bytes_from_fpga=bytes_from_fpga,
        migration_state_bytes=migration_state_bytes,
    )


#: Table 1 of the paper, milliseconds: (vanilla x86, x86/FPGA, x86/ARM).
PAPER_TABLE1_MS: dict[str, tuple[float, float, float]] = {
    "cg.A": (2182.0, 10597.0, 8406.0),
    "facedet.320": (175.0, 332.0, 642.0),
    "facedet.640": (885.0, 832.0, 2991.0),
    "digit.500": (883.0, 470.0, 2281.0),
    "digit.2000": (3521.0, 1229.0, 8963.0),
}

#: Table 2 of the paper: kernel name, FPGA threshold, ARM threshold.
PAPER_TABLE2: dict[str, tuple[str, int, int]] = {
    "cg.A": ("KNL_HW_CG_A", 31, 25),
    "facedet.320": ("KNL_HW_FD320", 16, 31),
    "facedet.640": ("KNL_HW_FD640", 0, 23),
    "digit.500": ("KNL_HW_DR500", 0, 18),
    "digit.2000": ("KNL_HW_DR200", 0, 17),
}

#: Table 4 of the paper, milliseconds: BFS node count -> (x86, FPGA).
PAPER_TABLE4_MS: dict[int, tuple[float, float]] = {
    1000: (3.36, 726.50),
    2000: (115.74, 2282.54),
    3000: (256.94, 4981.05),
    4000: (458.04, 8760.80),
    5000: (721.48, 13524.76),
}

# Transfer-size rationale:
#   cg.A         CSR of NPB class A (n=14000, ~2M nnz): values + indices.
#   facedet.*    one grayscale frame in, detection boxes out.
#   digit.*      packed training set (18k x 32 B) + tests in, labels out.
#   migration    Popcorn state + dirty working set pushed over Ethernet.
_PROFILES: dict[str, WorkloadProfile] = {}

for _name, (_x86, _fpga, _arm) in PAPER_TABLE1_MS.items():
    _kernel, _fpga_thr, _arm_thr = PAPER_TABLE2[_name]
    _spec = {
        "cg.A": dict(loc=900, host_fraction=0.05, bytes_to_fpga=24_000_000,
                     bytes_from_fpga=112_000, migration_state_bytes=2_000_000),
        "facedet.320": dict(loc=330, host_fraction=0.06, bytes_to_fpga=76_800,
                            bytes_from_fpga=4_096, migration_state_bytes=262_144),
        "facedet.640": dict(loc=350, host_fraction=0.03, bytes_to_fpga=307_200,
                            bytes_from_fpga=8_192, migration_state_bytes=524_288),
        "digit.500": dict(loc=450, host_fraction=0.03, bytes_to_fpga=592_000,
                          bytes_from_fpga=2_000, migration_state_bytes=1_048_576),
        "digit.2000": dict(loc=470, host_fraction=0.02, bytes_to_fpga=640_000,
                           bytes_from_fpga=8_000, migration_state_bytes=1_048_576),
    }[_name]
    _PROFILES[_name] = _calibrate(
        _name, _kernel, _spec["loc"], _x86, _fpga, _arm,
        _spec["host_fraction"], _spec["bytes_to_fpga"],
        _spec["bytes_from_fpga"], _spec["migration_state_bytes"],
    )

# Spam filter (extension workload, not in the paper's Table 1): SGD
# logistic regression in Rosetta's mold. The profile is synthetic but
# plausible for the testbed: dense float compute that an HLS kernel
# accelerates well, ~3 MB of training data over PCIe, ThunderX ~2.6x
# slower per core.
_PROFILES["spam.1024"] = WorkloadProfile(
    name="spam.1024",
    kernel_name="KNL_HW_SF1024",
    loc=420,
    host_work_s=0.060,
    per_call_host_s=0.0,
    func_x86_s=1.140,
    func_arm_s=2.950,
    fpga_kernel_s=0.300,
    bytes_to_fpga=4_900_000,
    bytes_from_fpga=8_192,
    migration_state_bytes=1_048_576,
)

# MG-B: pure load generator. Runs ~21 s single-threaded on the Xeon; it
# is never a selected function (no hardware kernel, never migrated by
# the scheduler), but the vanilla-ARM baseline still needs its ARM cost.
_PROFILES["mg.B"] = WorkloadProfile(
    name="mg.B",
    kernel_name="",
    loc=1400,
    host_work_s=1.0,
    per_call_host_s=0.0,
    func_x86_s=20.0,
    func_arm_s=50.0,
    fpga_kernel_s=0.0,
    bytes_to_fpga=0,
    bytes_from_fpga=0,
    migration_state_bytes=4_194_304,
    fpga_capable=False,
    arm_capable=False,
)


@lru_cache(maxsize=256)
def _bfs_profile(n_nodes: int) -> WorkloadProfile:
    """BFS profiles from Table 4 (x86 vs FPGA only).

    The FPGA time in Table 4 is dominated by pointer-chasing stalls, not
    transfers; ARM was not measured, so we assume the THUNDERX default
    per-core slowdown (2.5x).
    """
    if n_nodes in PAPER_TABLE4_MS:
        x86_ms, fpga_ms = PAPER_TABLE4_MS[n_nodes]
    else:
        # Interpolate/extrapolate quadratically in node count, matching
        # the superlinear growth visible in Table 4.
        scale = (n_nodes / 5000.0) ** 2
        x86_ms = 721.48 * scale
        fpga_ms = 13524.76 * scale
    graph_bytes = int(n_nodes * 8 * 2 * 8)  # CSR indptr + ~8 neighbours
    x86_s = x86_ms / 1e3
    host = 0.05 * x86_s
    pcie_xfer = _link_time(PCIE_GEN3_X16, graph_bytes) + _link_time(PCIE_GEN3_X16, n_nodes * 8)
    return WorkloadProfile(
        name=f"bfs.{n_nodes}",
        kernel_name=f"KNL_HW_BFS{n_nodes}",
        loc=250,
        host_work_s=host,
        per_call_host_s=0.0,
        func_x86_s=x86_s - host,
        func_arm_s=2.5 * (x86_s - host),
        fpga_kernel_s=fpga_ms / 1e3 - host - pcie_xfer,
        bytes_to_fpga=graph_bytes,
        bytes_from_fpga=n_nodes * 8,
        migration_state_bytes=graph_bytes,
    )


def profile_for(name: str) -> WorkloadProfile:
    """The calibrated profile for a workload name.

    Accepts the five Table 1 names, ``mg.B``, and ``bfs.<n_nodes>``
    with ``n_nodes >= 1``.
    """
    if name in _PROFILES:
        return _PROFILES[name]
    if name.startswith("bfs."):
        try:
            n_nodes = int(name.split(".", 1)[1])
        except ValueError:
            n_nodes = 0
        if n_nodes < 1:
            raise KeyError(f"bad BFS profile name {name!r}")
        return _bfs_profile(n_nodes)
    raise KeyError(f"no profile for workload {name!r}")


def all_profiles() -> dict[str, WorkloadProfile]:
    """The five Table 1 profiles plus MG-B (a fresh dict)."""
    return dict(_PROFILES)
