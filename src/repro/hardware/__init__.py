"""Hardware substrate models: CPUs, FPGA, interconnects, platform."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    ".cpu": ("CPUCluster", "CPUSpec"),
    ".fpga": ("ALVEO_U50", "ConfigImage", "FPGADevice", "FPGAResources", "FPGASpec"),
    ".interconnect": ("ETHERNET_1GBPS", "PCIE_GEN3_X16", "Link", "LinkSpec"),
    ".platform": (
        "THUNDERX",
        "XEON_BRONZE_3104",
        "HeterogeneousPlatform",
        "paper_testbed",
    ),
    ".power": ("DevicePower", "EnergyMeter", "EnergyReport", "PowerModel"),
    ".server": ("Server", "ServerSpec"),
    ".sharing": ("FairShareServer", "Job"),
})

__all__ = [
    "ALVEO_U50",
    "CPUCluster",
    "CPUSpec",
    "ConfigImage",
    "DevicePower",
    "ETHERNET_1GBPS",
    "EnergyMeter",
    "EnergyReport",
    "PowerModel",
    "FPGADevice",
    "FPGAResources",
    "FPGASpec",
    "FairShareServer",
    "HeterogeneousPlatform",
    "Job",
    "Link",
    "LinkSpec",
    "PCIE_GEN3_X16",
    "Server",
    "ServerSpec",
    "THUNDERX",
    "XEON_BRONZE_3104",
    "paper_testbed",
]
