"""Periodic load gossip across fleet nodes (the stale-load plane).

Every node publishes a :class:`LoadDigest` — a compact summary of its
:meth:`~repro.core.runtime.XarTrekRuntime.load_snapshot` — onto the
:class:`GossipBus` once per ``interval_s`` of simulated time. Remote
placement decisions read the *last published* digest, never the live
snapshot, so the fleet router works on stale load exactly like a
warehouse-scale balancer does ("Instruction Set Migration at Warehouse
Scale" motivates stale-load tolerance as a first-class property).
Staleness is bounded by construction: a digest read at time ``t`` was
published at the latest gossip tick, so ``t - published_at <
interval_s`` once the bus has started (the bus publishes round 0
immediately on :meth:`start`).

The bus ticks on the shared simulated clock via
:class:`repro.sim.PeriodicCall`; it must be :meth:`stop`-ped before a
caller expects ``sim.run()`` to drain the event queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.metrics import MetricsRegistry
from repro.sim import PeriodicCall, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.fleet.node import FleetNode

__all__ = ["GossipBus", "GossipError", "LoadDigest"]

#: Histogram buckets for gossip staleness (seconds): sub-tick reads
#: dominate, so the resolution is concentrated below one second.
STALENESS_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Load-score penalty while a node's card is mid-reconfiguration: the
#: FPGA target is effectively unavailable, so remote placement should
#: treat the node as busier than its queue lengths alone say.
RECONFIGURING_PENALTY = 4.0


class GossipError(Exception):
    """Raised for misuse of the gossip bus (reading before round 0)."""


@dataclass(frozen=True)
class LoadDigest:
    """One node's published load summary (what travels on the wire).

    ``x86_active`` / ``arm_active`` are active-job counts from the
    fair-share servers; ``fpga_active`` is in-flight kernel runs, and
    ``fpga_reconfiguring`` flags an in-flight programming pass. All
    values are as of ``published_at`` — consumers must treat them as
    stale.
    """

    node: str
    index: int
    published_at: float
    x86_active: float
    arm_active: float
    fpga_active: float
    fpga_reconfiguring: bool
    #: Backpressure plane (PR 10): the node's admission-queue depth and
    #: brownout rung (0 full, 1 x86-only, 2 shed) as of publication.
    #: Zero for nodes without overload protection, keeping the digest
    #: and the router's behaviour identical to the pre-overload fleet.
    queue_depth: float = 0.0
    brownout: int = 0

    @property
    def score(self) -> float:
        """Scalar placement score: total active work, with a penalty
        while the card is being reprogrammed."""
        score = self.x86_active + self.arm_active + self.fpga_active
        if self.fpga_reconfiguring:
            score += RECONFIGURING_PENALTY
        return score


class GossipBus:
    """The fleet's load-dissemination plane.

    Holds the latest :class:`LoadDigest` per node and republishes all
    of them every ``interval_s`` on the shared simulated clock. The
    router reads digests (stale by up to one interval) and reports the
    observed staleness into ``fleet_gossip_staleness_seconds``.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: "list[FleetNode]",
        interval_s: float,
        metrics: MetricsRegistry,
    ):
        if interval_s <= 0:
            raise GossipError(f"gossip interval must be positive, got {interval_s}")
        self.sim = sim
        self.nodes = list(nodes)
        self.interval_s = float(interval_s)
        self.metrics = metrics
        self._digests: dict[int, LoadDigest] = {}
        self._timer: Optional[PeriodicCall] = None
        self._m_rounds = metrics.counter(
            "fleet_gossip_rounds_total", "gossip publication rounds completed"
        )
        self._m_staleness = metrics.histogram(
            "fleet_gossip_staleness_seconds",
            "age of the load digest behind each remote placement decision",
            buckets=STALENESS_BUCKETS,
        )
        self._m_skew = self.metrics.gauge(
            "fleet_load_skew",
            "max - min node load score at the last gossip round",
        )
        self._m_node_load = metrics.gauge(
            "fleet_node_load",
            "published load score per node (stale between rounds)",
            labelnames=("node",),
        )
        # Gauge children resolved once per node at construction:
        # publish() runs every round over every node, and labels()
        # costs a kwargs dict plus a child lookup per call (the same
        # fix ServerStats applied to its hot counters).
        self._node_load_children = [
            self._m_node_load.labels(node=node.name) for node in self.nodes
        ]
        self._version = 0

    # -- lifecycle ---------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._timer is not None

    @property
    def rounds(self) -> int:
        return int(self._m_rounds.value)

    @property
    def version(self) -> int:
        """Monotone publication counter (bumps once per round).

        Published digests only ever change at a round boundary, so
        consumers may cache values derived from them — the router's
        fleet-floor cache keys on this — and invalidate on a bump.
        """
        return self._version

    def start(self) -> None:
        """Publish round 0 immediately, then tick every interval."""
        if self._timer is not None:
            return
        self.publish()
        self._timer = self.sim.call_every(self.interval_s, self.publish)

    def stop(self) -> None:
        """Cancel the tick so the shared simulator can drain."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- publication -------------------------------------------------------
    def publish(self) -> None:
        """One gossip round: every node's digest becomes the fleet view."""
        scores = []
        for node, load_gauge in zip(self.nodes, self._node_load_children):
            digest = node.digest(self.sim.now)
            self._digests[node.index] = digest
            load_gauge.set(digest.score)
            scores.append(digest.score)
        if scores:
            self._m_skew.set(max(scores) - min(scores))
        self._m_rounds.inc()
        self._version += 1

    # -- the stale read side ------------------------------------------------
    def digest(self, index: int) -> LoadDigest:
        """The last published digest for node ``index`` (stale)."""
        try:
            return self._digests[index]
        except KeyError:
            raise GossipError(
                f"no digest published for node {index}; start() the bus first"
            ) from None

    def digests(self) -> list[LoadDigest]:
        """Last published digests, ordered by node index."""
        return [self.digest(node.index) for node in self.nodes]

    def observe_staleness(self, digest: LoadDigest) -> float:
        """Record (and return) how stale ``digest`` is right now."""
        staleness = self.sim.now - digest.published_at
        self._m_staleness.observe(staleness)
        return staleness

    def record_staleness(self, seconds: np.ndarray) -> None:
        """Record a 1-D array of staleness observations, in order (the
        cohort shard path quantizes assignment times to gossip
        boundaries itself)."""
        self._m_staleness.observe_many(seconds)

    def load_skew(self) -> float:
        """max - min published load score (0.0 before round 0)."""
        if not self._digests:
            return 0.0
        scores = [d.score for d in self._digests.values()]
        return max(scores) - min(scores)
