"""A multi-node Xar-Trek fleet on one simulated clock.

:class:`FleetDeployment` builds N complete single-node deployments
(each its own x86 + ARM clusters, FPGA, scheduler daemon, and in-node
DSM — exactly what :func:`repro.core.build_system` produces) on one
shared :class:`~repro.sim.Simulator`, then layers the federated tier on
top: a :class:`~repro.fleet.gossip.GossipBus` publishing per-node load
digests every ``gossip_interval_s``, a
:class:`~repro.fleet.router.FleetRouter` doing sticky /
power-of-two-choices placement on the stale digests, and a fleet-level
DSM over the inter-node fabric that accounts cross-node client
migrations as real page traffic.

Determinism contract (tested):

* node seeds come from ``numpy.random.SeedSequence(seed).spawn(n)``,
  so node ``i``'s platform is a pure function of ``(seed, i)`` and is
  insensitive to the fleet size;
* the fleet tier draws from its own RNG stream, never a node's, and
  routing adds zero simulated time — a 1-node fleet is bit-identical
  to the plain single-node :class:`~repro.core.runtime.XarTrekRuntime`
  path (the differential test in ``tests/fleet`` holds this the same
  way the cohort oracle holds vectorized == reference);
* replaying the same config replays every record and counter.

Cohort-scale populations (the 10k-client ``fleet_stress`` shape) are
sharded across nodes at *assignment time*: clients are placed in global
arrival order, the router's load view refreshes only at gossip-interval
boundaries (the stale-load model, quantized), and each node then runs
its assigned sub-cohorts through the vectorized
:class:`~repro.core.cohort.CohortPopulation` on a fresh per-node
simulator — the cohort model is open-loop, so its clock is independent
of the fleet's hardware clock by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.cohort import (
    ArrivalLaw,
    CohortPopulation,
    CohortRunResult,
    CohortSpec,
    sample_arrivals,
)
from repro.core.runtime import build_system
from repro.fleet.gossip import GossipBus
from repro.fleet.node import FleetNode
from repro.fleet.router import FleetRouter
from repro.hardware.interconnect import Link, LinkSpec
from repro.hardware.platform import HeterogeneousPlatform
from repro.metrics import MetricsRegistry
from repro.popcorn.dsm import DSM
from repro.sim import Event, RandomStreams, Simulator
from repro.workloads import PAPER_BENCHMARKS

__all__ = [
    "DATACENTER_FABRIC",
    "FleetConfig",
    "FleetCohortResult",
    "FleetDeployment",
    "FleetError",
    "node_seeds",
]

#: The inter-node fabric: 10 GbE-class datacenter network (vs the
#: 1 Gbps in-node Ethernet between a node's x86 and ARM servers).
DATACENTER_FABRIC = LinkSpec("fabric", bandwidth_bytes_per_s=1.25e9, latency_s=50e-6)


class FleetError(Exception):
    """Raised for malformed fleet configs or misuse of a deployment."""


def node_seeds(seed: int, n_nodes: int) -> list[int]:
    """Per-node platform seeds via ``SeedSequence(seed).spawn(n)``.

    Exposed so the differential test can rebuild node ``i``'s exact
    single-node reference system outside any fleet.
    """
    children = np.random.SeedSequence(seed).spawn(n_nodes)
    return [int(child.generate_state(1)[0]) for child in children]


def _arrival_schedule(
    specs: Sequence[CohortSpec], interval_s: float
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """The cohort clients' arrivals in the order sharding places them.

    Returns ``(per-spec arrival times, order, boundaries, staleness)``.
    ``order`` sorts every client by arrival time, then spec index, then
    client index; for the ``k``-th client in that order,
    ``boundaries[k]`` is the last gossip boundary at or before its
    arrival and ``staleness[k]`` its arrival's distance past it.
    """
    arrivals = [sample_arrivals(spec) for spec in specs]
    times = np.concatenate([np.empty(0), *arrivals])
    # The concatenation is in (spec, client) order, which a stable
    # sort keeps among equal times (-0.0 and 0.0 are equal here).
    order = np.argsort(times, kind="stable")
    ordered = times[order]
    # Boundaries start at 0.0 and only grow, so an arrival at -0.0
    # belongs to the 0.0 boundary (+ 0.0 turns -0.0 into 0.0) and is
    # -0.0 seconds stale.
    boundaries = np.floor(ordered / interval_s) * interval_s + 0.0
    return arrivals, order, boundaries, ordered - boundaries


@dataclass(frozen=True)
class FleetConfig:
    """Static description of a fleet deployment."""

    nodes: int = 2
    apps: tuple[str, ...] = tuple(sorted(set(PAPER_BENCHMARKS)))
    seed: int = 0
    #: How often every node republishes its load digest (simulated
    #: seconds); remote decisions are at most this stale.
    gossip_interval_s: float = 1.0
    #: A sticky client is reconsidered when its node's stale score
    #: exceeds this multiple of the stale fleet minimum.
    rebalance_factor: float = 2.0
    use_dsm: bool = True
    replicate_compute_units: bool = False

    def __post_init__(self):
        if self.nodes < 1:
            raise FleetError(f"a fleet needs >= 1 node, got {self.nodes}")
        if self.gossip_interval_s <= 0:
            raise FleetError(
                f"gossip_interval_s must be positive, got {self.gossip_interval_s}"
            )
        if not self.apps:
            raise FleetError("a fleet needs at least one application")


@dataclass
class FleetCohortResult:
    """A sharded cohort run: per-node results plus fleet aggregates."""

    #: ``(node index, that node's CohortRunResult)`` in node order;
    #: nodes that received no clients are absent.
    node_results: list[tuple[int, CohortRunResult]]
    clients: int
    logical_events: int
    sim_events: int
    #: The slowest node's completion horizon (nodes run concurrently).
    sim_seconds: float
    assigned_per_node: list[int]

    @property
    def fault_fallbacks(self) -> int:
        return sum(result.fault_fallbacks for _index, result in self.node_results)

    def assignment_skew(self) -> int:
        """max - min clients assigned per node."""
        return max(self.assigned_per_node) - min(self.assigned_per_node)

    def lines(self) -> list[str]:
        """Deterministic checksum lines: per-node headers + each
        node's own cohort lines (repr-float exact, like the single-node
        path)."""
        out = []
        for index, result in self.node_results:
            out.append(
                f"node{index} clients={result.clients} "
                f"events={result.logical_events} path={result.path}"
            )
            out.extend(result.lines())
        out.append(
            "assigned=" + ",".join(str(c) for c in self.assigned_per_node)
        )
        return out


class FleetDeployment:
    """N single-node deployments federated behind one routing tier."""

    def __init__(
        self,
        config: FleetConfig,
        trace: bool = False,
        **runtime_options,
    ):
        """Extra keyword arguments (``resilience``, ``policy``, ...)
        are forwarded to every node's :class:`XarTrekRuntime`."""
        self.config = config
        self.sim = Simulator()
        self.seeds = node_seeds(config.seed, config.nodes)
        self.nodes: list[FleetNode] = []
        for index, seed in enumerate(self.seeds):
            platform = HeterogeneousPlatform(sim=self.sim, seed=seed, trace=trace)
            runtime = build_system(
                config.apps,
                seed=seed,
                platform=platform,
                use_dsm=config.use_dsm,
                replicate_compute_units=config.replicate_compute_units,
                **runtime_options,
            )
            self.nodes.append(FleetNode(index, runtime, seed))

        #: The fleet tier's own telemetry spine, separate from every
        #: node's registry (a node stays bit-identical to its
        #: single-node twin; fleet counters live up here).
        self._streams = RandomStreams(config.seed).spawn("fleet")
        self.metrics = MetricsRegistry(
            clock=lambda: self.sim.now, rng=self._streams.spawn("metrics")
        )
        self.fabric = Link(self.sim, DATACENTER_FABRIC)
        self.dsm = DSM(self.sim, self.fabric)
        for node in self.nodes:
            self.dsm.add_node(node.name)
        self.gossip = GossipBus(
            self.sim, self.nodes, config.gossip_interval_s, self.metrics
        )
        self.router = FleetRouter(
            self.nodes,
            self.gossip,
            rng=self._streams.stream("router"),
            metrics=self.metrics,
            dsm=self.dsm,
            rebalance_factor=config.rebalance_factor,
        )
        self._auto_clients = 0
        self.gossip.start()

    # -- lookups -----------------------------------------------------------
    def node(self, index: int) -> FleetNode:
        return self.nodes[index]

    def records(self) -> list:
        """All nodes' run records, node-major (each node's in
        completion order, as on the single-node path)."""
        out = []
        for node in self.nodes:
            out.extend(node.records)
        return out

    def load_skew(self) -> float:
        """max - min published node load score (stale, by design)."""
        return self.gossip.load_skew()

    # -- the per-client path -----------------------------------------------
    def launch(
        self,
        app_name: str,
        client: Optional[object] = None,
        delay_s: float = 0.0,
        **launch_options,
    ) -> Event:
        """Route and start one application run; fires with its record.

        ``client`` is the sticky routing key — runs sharing a key stay
        on one node until a gossip delta or an outage moves them (and
        the move ships their working set over the fabric). Omitting it
        makes the run its own one-shot client. Remaining options go to
        :meth:`XarTrekRuntime.launch` (seed, mode, calls, ...).

        Routing happens when the client *starts* (after ``delay_s``),
        not when this call is made — a staggered client must be placed
        against the gossip state of its start time, or every client of
        a wave would herd onto the round-0 view.
        """
        if client is None:
            client = f"anon{self._auto_clients}"
            self._auto_clients += 1
        if delay_s <= 0:
            node, _outcome = self.router.route(client, app_name)
            return node.runtime.launch(app_name, **launch_options)
        done = self.sim.event()

        def forward(ev: Event) -> None:
            if ev.ok:
                done.succeed(ev.value)
            else:
                done.fail(ev.value)

        def kick() -> None:
            node, _outcome = self.router.route(client, app_name)
            inner = node.runtime.launch(app_name, **launch_options)
            # The caller only holds `done`; a failed run must propagate
            # through it rather than crash the whole simulation.
            inner.defused = True
            inner.callbacks.append(forward)

        self.sim.defer(delay_s, kick)
        return done

    def wait_all(self, events: Iterable[Event]) -> list:
        """Run the shared simulation until every event fires."""
        return [self.sim.run_until_event(event) for event in events]

    def stop(self) -> None:
        """Cancel the gossip tick (so ``sim.run()`` can drain); the
        node daemons keep running."""
        self.gossip.stop()

    # -- the cohort path ----------------------------------------------------
    def shard_cohorts(
        self, specs: Sequence[CohortSpec]
    ) -> tuple[list[list[CohortSpec]], list[int]]:
        """Assign every client of every spec to a node on stale load.

        Clients are placed in global arrival order (ties by spec, then
        client index); the router's per-node client-count view
        refreshes only at gossip-interval boundaries, and placement is
        power-of-two-choices over that stale view: the node of the pair
        with the lower stale count wins, ties going to the lower index.
        Each node's sub-spec keeps its clients in original client-index
        order with their exact arrival times (``explicit`` law), so a
        1-node fleet reproduces the original cohort bit for bit.

        A pure function of ``(config, specs)``: it records nothing, and
        each call draws from a fresh derived generator, so inspecting a
        sharding and then calling :meth:`run_cohorts` (which calls this)
        executes exactly the sharding inspected.

        Returns ``(per-node spec lists, clients assigned per node)``.
        """
        specs = tuple(specs)
        n = len(self.nodes)
        arrivals, order, boundaries, _staleness = _arrival_schedule(
            specs, self.config.gossip_interval_s
        )
        m = len(order)
        counts = np.zeros(n, dtype=np.int64)
        placed = np.zeros(m, dtype=np.int64)
        if n == 1:
            counts[0] = m
        else:
            rng = self._streams.spawn("cohort-shard").stream("assign")
            # One call draws what m sequential Generator.choice(n, 2,
            # replace=False) calls would: Floyd's two draws, from
            # [0, n-2] and [0, n-1] (a repeat of the first becomes
            # n-1), then one that shuffles the pair. The pick is
            # symmetric in the pair, so the shuffle draw goes unused.
            draws = rng.integers(
                0, np.tile(np.array([n - 1, n, 2], dtype=np.int32), m),
                dtype=np.int32,
            ).reshape(m, 3)
            first = draws[:, 0]
            second = np.where(draws[:, 1] == first, n - 1, draws[:, 1])
            # A segment is the run of clients on one gossip boundary;
            # all of them see the counts as of the segment's start.
            starts = np.flatnonzero(np.diff(boundaries)) + 1
            edges = [0, *starts.tolist(), m]
            index = np.arange(n)
            for lo, hi in zip(edges[:-1], edges[1:]):
                # Ranked by (stale count, node index), the pick is the
                # lower rank of the pair.
                rank = counts * n + index
                picks = np.minimum(rank[first[lo:hi]], rank[second[lo:hi]]) % n
                placed[lo:hi] = picks
                counts += np.bincount(picks, minlength=n)
        assignment = np.empty(m, dtype=np.int64)
        assignment[order] = placed

        per_node: list[list[CohortSpec]] = [[] for _ in range(n)]
        offset = 0
        for spec, times in zip(specs, arrivals):
            nodes = assignment[offset : offset + len(times)]
            offset += len(times)
            for node in range(n):
                indexes = np.flatnonzero(nodes == node)
                if not len(indexes):
                    continue
                per_node[node].append(
                    CohortSpec(
                        app=spec.app,
                        clients=len(indexes),
                        calls=spec.calls,
                        arrival=ArrivalLaw(
                            kind="explicit", times=tuple(times[indexes].tolist())
                        ),
                        seed=spec.seed,
                    )
                )
        return per_node, counts.tolist()

    def run_cohorts(
        self,
        specs: Sequence[CohortSpec],
        background: int = 0,
        fault_plans: Optional[dict[int, object]] = None,
        jobs: int = 1,
    ) -> FleetCohortResult:
        """Shard ``specs`` across the fleet and run every node's share.

        ``background`` is the per-node resident background process
        count (each node has its own MG-B pool). ``fault_plans`` maps
        node index -> :class:`~repro.faults.plan.FaultPlan`, resolved
        to that node's sub-cohorts ahead of time. Each node's
        population runs on a fresh simulator (the cohort model is
        open-loop; nodes are concurrent, so the fleet horizon is the
        slowest node's).

        The node runs execute one after another in this process: they
        are a small share of the run, so a worker pool over them does
        not pay (docs/fleet.md). ``jobs`` remains only for callers that
        pass ``jobs=1``; any other value raises :class:`ValueError`. A
        ``fault_plans`` key that is not a node index raises
        :class:`FleetError`.
        """
        from repro.faults.cohort import resolve_cohort_faults

        if jobs != 1:
            raise ValueError(
                f"run_cohorts runs node shards serially; jobs must be 1, got {jobs!r}"
            )
        unknown = set(fault_plans or ()) - set(range(len(self.nodes)))
        if unknown:
            raise FleetError(
                f"fault plans for nodes {', '.join(sorted(map(repr, unknown)))}, "
                f"but the fleet's nodes are 0..{len(self.nodes) - 1}"
            )
        specs = tuple(specs)
        per_node, assigned = self.shard_cohorts(specs)
        # Every placement read the stale view once: record those reads
        # here, since shard_cohorts() records nothing.
        self.gossip.record_staleness(
            _arrival_schedule(specs, self.config.gossip_interval_s)[-1]
        )
        work_nodes = [node for node in self.nodes if per_node[node.index]]
        # Every plan is resolved against the thresholds as they stand
        # before any node runs.
        fault_targets: dict[int, frozenset] = {}
        for node in work_nodes:
            plan = (fault_plans or {}).get(node.index)
            if plan is not None:
                fault_targets[node.index] = resolve_cohort_faults(
                    plan, tuple(per_node[node.index]), node.server.thresholds
                )
        node_results: list[tuple[int, CohortRunResult]] = []
        for node in work_nodes:
            population = CohortPopulation(
                per_node[node.index],
                background=background,
                server=node.server,
                fault_targets=fault_targets.get(node.index),
            )
            result = population.run(sim=Simulator())
            node_results.append((node.index, result))
        clients = 0
        logical_events = 0
        sim_events = 0
        horizon = 0.0
        for _index, result in node_results:
            clients += result.clients
            logical_events += result.logical_events
            sim_events += result.sim_events
            horizon = max(horizon, result.sim_seconds)
        return FleetCohortResult(
            node_results=node_results,
            clients=clients,
            logical_events=logical_events,
            sim_events=sim_events,
            sim_seconds=horizon,
            assigned_per_node=assigned,
        )
