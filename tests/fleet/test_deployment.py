"""Fleet construction, config validation, the per-client path, and
what cohort sharding records."""

import math

import pytest

from repro.core import SystemMode
from repro.core.cohort import ArrivalLaw, CohortSpec
from repro.fleet import FleetConfig, FleetDeployment, FleetError, node_seeds
from repro.sim import SimulationError

pytestmark = pytest.mark.metrics

APPS = ("digit.2000",)


class TestConfigValidation:
    def test_needs_at_least_one_node(self):
        with pytest.raises(FleetError, match=">= 1 node"):
            FleetConfig(nodes=0)

    def test_needs_a_positive_gossip_interval(self):
        with pytest.raises(FleetError, match="gossip_interval_s"):
            FleetConfig(gossip_interval_s=0.0)

    def test_needs_at_least_one_application(self):
        with pytest.raises(FleetError, match="application"):
            FleetConfig(apps=())


class TestNodeSeeds:
    def test_deterministic_in_the_fleet_seed(self):
        assert node_seeds(7, 4) == node_seeds(7, 4)
        assert node_seeds(7, 4) != node_seeds(8, 4)

    def test_prefix_stable_across_fleet_sizes(self):
        # Node i's platform must be a pure function of (seed, i), not of
        # the fleet size: growing the fleet must not reshuffle the
        # existing nodes (SeedSequence spawn children are index-based).
        assert node_seeds(7, 8)[:3] == node_seeds(7, 3)


class TestDeployment:
    def test_every_node_is_a_complete_system(self):
        fleet = FleetDeployment(FleetConfig(nodes=3, apps=APPS, seed=5))
        assert [node.name for node in fleet.nodes] == ["node0", "node1", "node2"]
        for node, seed in zip(fleet.nodes, fleet.seeds):
            assert node.seed == seed
            assert node.server.running
            assert node.platform.sim is fleet.sim  # one shared clock
        # Distinct platforms, distinct seeds.
        assert len({id(node.platform) for node in fleet.nodes}) == 3
        assert len(set(fleet.seeds)) == 3

    def test_launch_routes_and_returns_records(self):
        fleet = FleetDeployment(FleetConfig(nodes=3, apps=APPS, seed=5))
        handles = [
            fleet.launch(
                "digit.2000",
                client=f"c{i}",
                seed=i,
                mode=SystemMode.XAR_TREK,
                calls=2,
                delay_s=0.1 * i,
            )
            for i in range(6)
        ]
        records = fleet.wait_all(handles)
        assert len(records) == 6
        assert all(record.finished for record in records)
        assert sum(fleet.router.clients_per_node()) == 6
        # Staggered clients spread out instead of herding onto node0.
        assert max(fleet.router.clients_per_node()) < 6

    def test_a_negative_delay_is_refused(self):
        # Refused before routing: no node takes the client.
        fleet = FleetDeployment(FleetConfig(nodes=2, apps=APPS, seed=5))
        with pytest.raises(SimulationError, match="delay"):
            fleet.launch("digit.2000", client="c0", delay_s=-1.0)
        assert sum(fleet.router.clients_per_node()) == 0

    def test_an_infinite_delay_is_refused(self):
        fleet = FleetDeployment(FleetConfig(nodes=2, apps=APPS, seed=5))
        with pytest.raises(SimulationError, match="delay"):
            fleet.launch("digit.2000", client="c0", delay_s=math.inf)
        assert sum(fleet.router.clients_per_node()) == 0

    def test_stop_cancels_the_gossip_tick_so_the_sim_drains(self):
        fleet = FleetDeployment(FleetConfig(nodes=2, apps=APPS, seed=5))
        fleet.sim.run(until=3.0)
        assert fleet.gossip.rounds >= 3
        fleet.stop()
        fleet.sim.run()  # would never return with the tick still armed
        assert not fleet.gossip.started

    @pytest.mark.parametrize("jobs", [0, 2, "auto", None])
    def test_run_cohorts_accepts_only_serial_jobs(self, jobs):
        fleet = FleetDeployment(FleetConfig(nodes=2, apps=APPS, seed=5))
        with pytest.raises(ValueError, match="jobs must be 1"):
            fleet.run_cohorts([], jobs=jobs)


class TestCohortSharding:
    def test_sharding_records_nothing_and_a_run_records_each_client_once(self):
        fleet = FleetDeployment(FleetConfig(nodes=3, apps=APPS, seed=5))
        specs = [
            CohortSpec(
                "digit.2000", 300, calls=2,
                arrival=ArrivalLaw("uniform", start=0.0, span=9.0), seed=3,
            ),
        ]
        before = fleet.metrics.snapshot()
        _per_node, inspected = fleet.shard_cohorts(specs)
        assert fleet.metrics.snapshot() == before
        result = fleet.run_cohorts(specs)
        assert result.assigned_per_node == inspected
        staleness = fleet.metrics.get("fleet_gossip_staleness_seconds")
        assert staleness.count == 300
        fleet.stop()
