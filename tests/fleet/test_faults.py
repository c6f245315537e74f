"""Per-node fault plans and node-outage failover at fleet scale."""

import pytest

from repro.core import SystemMode
from repro.core.cohort import ArrivalLaw, CohortSpec
from repro.faults import FaultPlan, FaultPlanError, FleetFaultPlan, fleet_fault_seeds
from repro.fleet import FleetConfig, FleetDeployment, FleetError
from repro.workloads import profile_for

pytestmark = pytest.mark.metrics

APPS = ("digit.2000",)
KERNELS = [profile_for("digit.2000").kernel_name]


class TestFleetFaultPlan:
    def test_seeds_are_deterministic_and_distinct_from_platform_seeds(self):
        assert fleet_fault_seeds(3, 4) == fleet_fault_seeds(3, 4)
        from repro.fleet import node_seeds

        assert fleet_fault_seeds(3, 4) != node_seeds(3, 4)

    def test_generate_strikes_the_requested_fraction(self):
        plan = FleetFaultPlan.generate(0, 8, horizon_s=30.0, kernels=KERNELS)
        assert set(plan.plans) == {0, 1, 2, 3}  # default fraction 0.5
        assert len(plan) == sum(len(p) for p in plan.plans.values())
        assert plan.counts_by_kind()
        quarter = FleetFaultPlan.generate(
            0, 8, horizon_s=30.0, kernels=KERNELS, fault_fraction=0.25
        )
        assert set(quarter.plans) == {0, 1}

    def test_generate_rejects_bad_fractions(self):
        with pytest.raises(FaultPlanError, match="fault_fraction"):
            FleetFaultPlan.generate(0, 4, horizon_s=30.0, fault_fraction=0.0)
        with pytest.raises(FaultPlanError, match="fault_fraction"):
            FleetFaultPlan.generate(0, 4, horizon_s=30.0, fault_fraction=1.5)

    def test_validation_rejects_bad_keys_and_values(self):
        with pytest.raises(FaultPlanError, match="node indexes"):
            FleetFaultPlan(plans={-1: FaultPlan.empty()})
        with pytest.raises(FaultPlanError, match="expected a FaultPlan"):
            FleetFaultPlan(plans={0: "not a plan"})

    def test_arm_rejects_out_of_range_nodes(self):
        fleet = FleetDeployment(FleetConfig(nodes=2, apps=APPS, seed=1))
        plan = FleetFaultPlan(plans={5: FaultPlan.empty()})
        with pytest.raises(FaultPlanError, match="only 2 nodes"):
            plan.arm(fleet)
        fleet.stop()

    def test_arm_creates_one_injector_per_targeted_node(self):
        fleet = FleetDeployment(FleetConfig(nodes=4, apps=APPS, seed=1))
        plan = FleetFaultPlan.generate(0, 4, horizon_s=30.0, kernels=KERNELS)
        injectors = plan.arm(fleet)
        assert set(injectors) == set(plan.plans)
        assert len({id(inj) for inj in injectors.values()}) == len(injectors)
        fleet.stop()


class TestNodeOutageFailover:
    def test_outage_moves_clients_and_service_continues(self):
        fleet = FleetDeployment(FleetConfig(nodes=3, apps=APPS, seed=2))
        node, _ = fleet.router.route("henry", "digit.2000")
        node.server.stop()  # what a server_outage fault does mid-window
        handle = fleet.launch(
            "digit.2000", client="henry", seed=7,
            mode=SystemMode.XAR_TREK, calls=2,
        )
        [record] = fleet.wait_all([handle])
        assert record.finished
        survivor = fleet.nodes[fleet.router.assignments["henry"]]
        assert survivor is not node and survivor.healthy
        assert fleet.router.cross_node_migrations == 1
        fleet.stop()

    def test_cohort_run_under_per_node_faults_degrades_gracefully(self):
        fleet = FleetDeployment(FleetConfig(nodes=2, apps=APPS, seed=2))
        plan = FleetFaultPlan.generate(0, 2, horizon_s=40.0, kernels=KERNELS)
        specs = [
            CohortSpec(
                "digit.2000", 200, calls=3,
                arrival=ArrivalLaw("uniform", start=0.0, span=20.0), seed=51,
            ),
        ]
        result = fleet.run_cohorts(specs, fault_plans=dict(plan.plans))
        fleet.stop()
        assert result.clients == 200
        assert result.fault_fallbacks > 0  # faults landed, clients completed
        assert len(result.node_results) == 2

    def test_cohort_run_rejects_plans_for_nodes_it_does_not_have(self):
        fleet = FleetDeployment(FleetConfig(nodes=3, apps=APPS, seed=2))
        specs = [CohortSpec("digit.2000", 30, calls=1, seed=5)]
        plan = FaultPlan.generate(0, horizon_s=10.0, kernels=KERNELS)
        before = fleet.metrics.snapshot()
        for key in (7, 3, -1, "x"):
            with pytest.raises(FleetError, match=f"nodes {key!r},"):
                fleet.run_cohorts(specs, fault_plans={0: plan, key: plan})
        with pytest.raises(FleetError, match="nodes 'x', -1, 7, but"):
            fleet.run_cohorts(specs, fault_plans={7: plan, -1: plan, "x": plan})
        assert fleet.metrics.snapshot() == before  # nothing ran
        fleet.stop()
