"""Client routing across fleet nodes (the federated scheduler tier).

Two-level placement, level one: the router picks *which node* serves a
client, and the node's own Algorithm-2 scheduler picks the target
(x86/ARM/FPGA) within it. The policy is sticky-by-default with
power-of-two-choices rebalancing on gossip deltas:

* a client keeps its node while the node is healthy and its *stale*
  gossip score stays within ``rebalance_factor`` of the fleet's stale
  minimum (stickiness preserves working-set locality);
* otherwise — first contact, node outage, or a gossip delta showing
  the node overloaded — the router draws two distinct candidates from
  its own seeded RNG stream and takes the less loaded one by stale
  score (ties to the lower index), the classic power-of-two-choices
  rule that needs only O(1) stale reads per decision;
* a reassignment of an already-placed client is a *cross-node
  migration*: its working set moves over the inter-node fabric through
  the fleet DSM, so migration churn shows up as real link traffic and
  page-transfer counts, not just a counter.

Every decision that consulted gossip records the digest's age into the
staleness histogram — the bounded-staleness guarantee is measured, not
assumed. The router draws from its own RNG stream, never from any
node's platform RNG, so routing can never perturb in-node behaviour
(load-bearing for the 1-node fleet == single-node runtime differential
test).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.metrics import MetricsRegistry
from repro.popcorn.dsm import DSM, PAGE_SIZE
from repro.workloads import profile_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.gossip import GossipBus
    from repro.fleet.node import FleetNode

__all__ = ["FleetRouter", "RouteOutcome"]

#: Where per-client fleet working sets live in the (modelled) address
#: space; far above the per-application bases so fleet DSM ranges can
#: never collide with an application's own pages.
_WORKING_SET_BASE = 0x4000_0000


class RouteOutcome:
    """The label values of ``fleet_routes_total{outcome=...}``."""

    INITIAL = "initial"
    STICKY = "sticky"
    REBALANCE = "rebalance"
    FAILOVER = "failover"


class FleetRouter:
    """Sticky / power-of-two-choices routing over stale gossip load."""

    def __init__(
        self,
        nodes: "list[FleetNode]",
        gossip: "GossipBus",
        rng: np.random.Generator,
        metrics: MetricsRegistry,
        dsm: Optional[DSM] = None,
        rebalance_factor: float = 2.0,
    ):
        if rebalance_factor < 1.0:
            raise ValueError(
                f"rebalance_factor must be >= 1, got {rebalance_factor}"
            )
        self.nodes = list(nodes)
        self.gossip = gossip
        self.rng = rng
        self.dsm = dsm
        self.rebalance_factor = float(rebalance_factor)
        #: client key -> node index (the sticky table).
        self.assignments: dict[object, int] = {}
        #: Clients currently assigned per node — the router's *local*
        #: state (not gossip), used as the power-of-two tie-breaker so
        #: a wave of arrivals inside one gossip interval spreads out
        #: instead of herding onto the stale all-equal view.
        self._assigned_counts = [0] * len(self.nodes)
        #: client key -> its fleet DSM working set, a page range
        #: (allocated on first cross-node migration).
        self._client_pages: dict[object, range] = {}
        self._next_base = _WORKING_SET_BASE
        #: ``(gossip version, candidate indexes) -> fleet floor``.
        #: Digest scores only change at gossip rounds, so the min over
        #: the candidates is constant between publishes for a fixed
        #: candidate set; recomputing it per route() made _overloaded
        #: O(nodes) on every sticky decision.
        self._floor_cache: Optional[tuple[int, tuple[int, ...], float]] = None
        self._m_routes = metrics.counter(
            "fleet_routes_total",
            "fleet routing decisions by outcome",
            labelnames=("outcome",),
        )
        self._m_migrations = metrics.counter(
            "fleet_cross_node_migrations_total",
            "clients moved between nodes (rebalance or failover)",
        )
        self._m_migration_bytes = metrics.counter(
            "fleet_cross_node_migration_bytes_total",
            "working-set bytes shipped across the inter-node fabric",
        )

    # -- statistics --------------------------------------------------------
    @property
    def cross_node_migrations(self) -> int:
        return int(self._m_migrations.value)

    @property
    def migration_bytes(self) -> float:
        return float(self._m_migration_bytes.value)

    def clients_per_node(self) -> list[int]:
        return list(self._assigned_counts)

    # -- the decision ------------------------------------------------------
    def route(self, client_key: object, app: str) -> "tuple[FleetNode, str]":
        """Pick the node for ``client_key``'s next run of ``app``.

        Returns ``(node, outcome)`` with ``outcome`` one of
        :class:`RouteOutcome`'s labels. Cross-node DSM traffic for a
        reassignment is started here (the payload travels while the
        client's run proceeds, as Popcorn's migration path does).
        """
        candidates = [n for n in self.nodes if n.healthy]
        if not candidates:
            # Every daemon is down: route to the sticky/stale-best node
            # anyway — the client's request will raise
            # SchedulerUnavailable and take its local x86 fallback,
            # which is the single-node degradation path.
            candidates = self.nodes
        assigned = self.assignments.get(client_key)

        if assigned is None:
            node = self._power_of_two(candidates)
            outcome = RouteOutcome.INITIAL
        elif not self.nodes[assigned].healthy and self.nodes[assigned] not in candidates:
            node = self._power_of_two(candidates)
            outcome = RouteOutcome.FAILOVER
        else:
            current = self.nodes[assigned]
            if self._overloaded(current, candidates):
                choice = self._power_of_two(candidates)
                if choice is not current:
                    node, outcome = choice, RouteOutcome.REBALANCE
                else:
                    node, outcome = current, RouteOutcome.STICKY
            else:
                node, outcome = current, RouteOutcome.STICKY

        if assigned is not None and node.index != assigned:
            self._migrate(client_key, app, self.nodes[assigned], node)
            self._assigned_counts[assigned] -= 1
            self._assigned_counts[node.index] += 1
        elif assigned is None:
            self._assigned_counts[node.index] += 1
        self.assignments[client_key] = node.index
        self._m_routes.labels(outcome=outcome).inc()
        return node, outcome

    def _overloaded(self, node: "FleetNode", candidates: "list[FleetNode]") -> bool:
        """Gossip-delta check: is ``node``'s stale score more than
        ``rebalance_factor`` times the stale fleet minimum? A published
        brownout rung (>= 1) is treated as overloaded outright — the
        node told the fleet it is degrading, so the router tries to
        move the client *before* the node starts shedding, instead of
        waiting for its load score to cross the rebalance ratio."""
        digest = self.gossip.digest(node.index)
        self.gossip.observe_staleness(digest)
        if digest.brownout >= 1:
            return True
        return digest.score > self.rebalance_factor * max(
            self._fleet_floor(candidates), 1.0
        )

    def _fleet_floor(self, candidates: "list[FleetNode]") -> float:
        """min stale score over ``candidates``, cached per gossip round.

        The cache key is ``(publication version, candidate indexes)``:
        a publish bumps the version, and a health change alters the
        candidate set, so both invalidate. Only the node's *own* digest
        was ever staleness-observed here, so caching changes no metric.
        """
        version = self.gossip.version
        key = tuple(c.index for c in candidates)
        cached = self._floor_cache
        if cached is not None and cached[0] == version and cached[1] == key:
            return cached[2]
        floor = min(self.gossip.digest(c.index).score for c in candidates)
        self._floor_cache = (version, key, floor)
        return floor

    def _power_of_two(self, candidates: "list[FleetNode]") -> "FleetNode":
        """Two independent stale reads, keep the emptier node.

        Stale scores tie constantly inside one gossip interval (every
        digest still shows the last round), so ties fall back to the
        router's own assignment counts — local knowledge it legally
        has — and only then to the lower index.
        """
        if len(candidates) == 1:
            return candidates[0]
        i, j = self.rng.choice(len(candidates), size=2, replace=False)
        first, second = candidates[int(i)], candidates[int(j)]
        a = self.gossip.digest(first.index)
        b = self.gossip.digest(second.index)
        self.gossip.observe_staleness(a)
        self.gossip.observe_staleness(b)
        if a.score != b.score:
            return first if a.score < b.score else second
        assigned_a = self._assigned_counts[first.index]
        assigned_b = self._assigned_counts[second.index]
        if assigned_a != assigned_b:
            return first if assigned_a < assigned_b else second
        return first if first.index < second.index else second

    # -- cross-node migration ----------------------------------------------
    def _migrate(
        self, client_key: object, app: str, src: "FleetNode", dst: "FleetNode"
    ) -> None:
        """Ship the client's working set ``src -> dst`` over the fabric."""
        self._m_migrations.inc()
        if self.dsm is None:
            return
        pages = self._working_set(client_key, app, src)
        self._m_migration_bytes.inc(len(pages) * PAGE_SIZE)
        done = self.dsm.migrate_pages(src.name, dst.name, pages)
        done.defused = True  # accounting traffic; nobody waits on it

    def _working_set(
        self, client_key: object, app: str, src: "FleetNode"
    ) -> range:
        """The client's fleet-DSM page range, seeded at ``src`` on
        first use (pages it dirtied before ever migrating)."""
        pages = self._client_pages.get(client_key)
        if pages is not None:
            return pages
        nbytes = profile_for(app).migration_state_bytes
        base = self._next_base
        self._next_base += max(1, -(-nbytes // PAGE_SIZE)) * PAGE_SIZE
        pages = self._client_pages[client_key] = range(
            base, self._next_base, PAGE_SIZE
        )
        self.dsm.seed_pages(src.name, pages)
        return pages
