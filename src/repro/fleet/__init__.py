"""Fleet-scale sharded scheduling across multi-node deployments.

The warehouse-scale tier on top of the paper's single-node system:
N complete x86+ARM+FPGA deployments on one simulated clock, a gossip
bus publishing stale load digests, and a sticky /
power-of-two-choices router doing two-level placement (the fleet picks
the node; the node's Algorithm-2 scheduler picks the target). See
``docs/fleet.md``.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    ".deployment": (
        "DATACENTER_FABRIC",
        "FleetCohortResult",
        "FleetConfig",
        "FleetDeployment",
        "FleetError",
        "node_seeds",
    ),
    ".gossip": ("GossipBus", "GossipError", "LoadDigest"),
    ".node": ("FleetNode",),
    ".router": ("FleetRouter", "RouteOutcome"),
})

__all__ = [
    "DATACENTER_FABRIC",
    "FleetCohortResult",
    "FleetConfig",
    "FleetDeployment",
    "FleetError",
    "FleetNode",
    "FleetRouter",
    "GossipBus",
    "GossipError",
    "LoadDigest",
    "RouteOutcome",
    "node_seeds",
]
