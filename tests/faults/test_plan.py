"""Fault plans: validation, serialization, and seeded generation."""

import math

import pytest

from repro.faults import FAULT_KINDS, FaultPlan, FaultPlanError, FaultSpec


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec(at_s=1.0, kind="gamma_ray")

    def test_negative_strike_time_rejected(self):
        with pytest.raises(FaultPlanError, match="at_s"):
            FaultSpec(at_s=-0.5, kind="device_crash", duration_s=1.0)

    @pytest.mark.parametrize("at_s", [math.inf, math.nan])
    def test_non_finite_strike_time_rejected(self, at_s):
        with pytest.raises(FaultPlanError, match="at_s"):
            FaultSpec(at_s=at_s, kind="device_crash", duration_s=1.0)

    @pytest.mark.parametrize("duration_s", [math.inf, math.nan])
    @pytest.mark.parametrize("kind", ["device_crash", "reconfig_fault"])
    def test_non_finite_duration_rejected(self, kind, duration_s):
        with pytest.raises(FaultPlanError, match="duration_s"):
            FaultSpec(at_s=1.0, kind=kind, duration_s=duration_s)

    @pytest.mark.parametrize("kind", ["kernel_fault", "reconfig_fault"])
    def test_count_kinds_need_positive_count(self, kind):
        with pytest.raises(FaultPlanError, match="count"):
            FaultSpec(at_s=0.0, kind=kind, target="k", count=0)

    def test_count_must_be_int(self):
        with pytest.raises(FaultPlanError, match="count"):
            FaultSpec(at_s=0.0, kind="kernel_fault", target="k", count=True)

    @pytest.mark.parametrize(
        "kind", ["device_crash", "link_degrade", "server_outage", "server_slow"]
    )
    def test_window_kinds_need_duration(self, kind):
        target = "pcie" if kind == "link_degrade" else ""
        with pytest.raises(FaultPlanError, match="duration_s"):
            FaultSpec(at_s=0.0, kind=kind, target=target, duration_s=0.0)

    def test_kernel_fault_needs_target(self):
        with pytest.raises(FaultPlanError, match="target"):
            FaultSpec(at_s=0.0, kind="kernel_fault")

    def test_link_degrade_target_and_factor(self):
        with pytest.raises(FaultPlanError, match="target"):
            FaultSpec(at_s=0.0, kind="link_degrade", target="usb", duration_s=1.0)
        with pytest.raises(FaultPlanError, match="factor"):
            FaultSpec(
                at_s=0.0, kind="link_degrade", target="pcie",
                duration_s=1.0, factor=0.0,
            )

    def test_server_slow_factor_at_least_one(self):
        with pytest.raises(FaultPlanError, match="factor"):
            FaultSpec(at_s=0.0, kind="server_slow", duration_s=1.0, factor=0.5)

    @pytest.mark.parametrize("factor", [math.inf, math.nan])
    def test_server_slow_factor_must_be_finite(self, factor):
        # It scales the scheduler's reply delay, a simulated time.
        with pytest.raises(FaultPlanError, match="factor"):
            FaultSpec(at_s=0.0, kind="server_slow", duration_s=1.0, factor=factor)

    def test_end_s_covers_the_window(self):
        spec = FaultSpec(at_s=2.0, kind="device_crash", duration_s=3.0)
        assert spec.end_s == 5.0
        armed = FaultSpec(at_s=2.0, kind="reconfig_fault", count=2)
        assert armed.end_s == 2.0


class TestFaultPlan:
    def _plan(self):
        return FaultPlan(
            specs=(
                FaultSpec(at_s=9.0, kind="server_outage", duration_s=2.0),
                FaultSpec(at_s=1.0, kind="kernel_fault", target="k1", count=2),
                FaultSpec(
                    at_s=4.0, kind="link_degrade", target="ethernet",
                    duration_s=5.0, factor=0.5,
                ),
            ),
            seed=7,
        )

    def test_specs_sorted_by_strike_time(self):
        plan = self._plan()
        assert [s.at_s for s in plan.specs] == [1.0, 4.0, 9.0]

    def test_horizon_is_last_effect_end(self):
        assert self._plan().horizon_s == 11.0
        assert FaultPlan.empty().horizon_s == 0.0

    def test_counts_by_kind(self):
        assert self._plan().counts_by_kind() == {
            "kernel_fault": 1,
            "link_degrade": 1,
            "server_outage": 1,
        }

    def test_json_round_trip(self):
        plan = self._plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_file_round_trip(self, tmp_path):
        plan = self._plan()
        path = str(tmp_path / "plan.json")
        plan.to_file(path)
        assert FaultPlan.from_file(path) == plan

    def test_schema_tag_enforced(self):
        with pytest.raises(FaultPlanError, match="schema"):
            FaultPlan.from_json('{"schema": "something-else/9", "specs": []}')

    def test_unknown_spec_fields_rejected(self):
        payload = (
            '{"schema": "xar-trek-fault-plan/1", "specs": '
            '[{"at_s": 1.0, "kind": "server_outage", "duration_s": 2.0, '
            '"blast_radius": 3}]}'
        )
        with pytest.raises(FaultPlanError, match="unknown fields"):
            FaultPlan.from_json(payload)

    @pytest.mark.parametrize(
        "times",
        [
            '"at_s": Infinity, "duration_s": 2.0',
            '"at_s": NaN, "duration_s": 2.0',
            '"at_s": 1.0, "duration_s": Infinity',
        ],
    )
    def test_non_finite_json_times_rejected(self, times):
        # Python's json module reads Infinity and NaN as floats.
        payload = (
            '{"schema": "xar-trek-fault-plan/1", "specs": '
            f'[{{{times}, "kind": "device_crash"}}]}}'
        )
        with pytest.raises(FaultPlanError, match="finite"):
            FaultPlan.from_json(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_equality_ignores_construction_order(self):
        a = FaultPlan(specs=tuple(self._plan().specs))
        b = FaultPlan(specs=tuple(reversed(self._plan().specs)))
        assert a == b


class TestOutageOverlap:
    def _outage(self, at_s, duration_s, target=""):
        return FaultSpec(
            at_s=at_s, kind="server_outage", duration_s=duration_s, target=target
        )

    def test_overlapping_outages_on_same_target_rejected(self):
        with pytest.raises(FaultPlanError, match="overlap"):
            FaultPlan(
                specs=(self._outage(1.0, 3.0), self._outage(2.0, 1.0))
            )

    def test_overlap_found_regardless_of_construction_order(self):
        with pytest.raises(FaultPlanError, match="overlap"):
            FaultPlan(
                specs=(self._outage(2.0, 1.0), self._outage(1.0, 3.0))
            )

    def test_touching_windows_are_legal(self):
        # [1, 3) then [3, 4): restart at 3.0 and the next window begins.
        plan = FaultPlan(specs=(self._outage(1.0, 2.0), self._outage(3.0, 1.0)))
        assert len(plan) == 2

    def test_different_targets_may_overlap(self):
        plan = FaultPlan(
            specs=(
                self._outage(1.0, 3.0, target="node0"),
                self._outage(2.0, 3.0, target="node1"),
            )
        )
        assert len(plan) == 2

    def test_other_window_kinds_may_overlap(self):
        # Only server_outage windows revive each other's target; crash
        # windows on the device are injector-mediated and may nest.
        plan = FaultPlan(
            specs=(
                FaultSpec(at_s=1.0, kind="device_crash", duration_s=3.0),
                FaultSpec(at_s=2.0, kind="device_crash", duration_s=3.0),
            )
        )
        assert len(plan) == 2

    def test_overlap_caught_at_json_load_too(self):
        # Hand-editing a JSON plan into an overlap is caught at load.
        import json

        doc = json.loads(FaultPlan(specs=(self._outage(1.0, 2.0),)).to_json())
        doc["specs"].append(dict(doc["specs"][0], at_s=2.0))
        with pytest.raises(FaultPlanError, match="overlap"):
            FaultPlan.from_json(json.dumps(doc))


class TestGeneration:
    def test_same_seed_same_plan(self):
        kwargs = dict(horizon_s=30.0, kernels=("k1", "k2"))
        assert FaultPlan.generate(3, **kwargs) == FaultPlan.generate(3, **kwargs)

    def test_different_seed_different_plan(self):
        kwargs = dict(horizon_s=30.0, kernels=("k1", "k2"))
        assert FaultPlan.generate(3, **kwargs) != FaultPlan.generate(4, **kwargs)

    def test_every_kind_represented(self):
        plan = FaultPlan.generate(0, horizon_s=30.0, kernels=("k1",))
        assert set(plan.counts_by_kind()) == set(FAULT_KINDS)

    def test_no_kernels_no_kernel_faults(self):
        plan = FaultPlan.generate(0, horizon_s=30.0)
        assert "kernel_fault" not in plan.counts_by_kind()

    def test_strikes_inside_horizon(self):
        plan = FaultPlan.generate(11, horizon_s=12.5, kernels=("k1",))
        assert all(0.0 <= spec.at_s < 12.5 for spec in plan.specs)

    def test_bad_horizon_rejected(self):
        with pytest.raises(FaultPlanError, match="horizon"):
            FaultPlan.generate(0, horizon_s=0.0)

    def test_generated_plan_survives_serialization(self):
        plan = FaultPlan.generate(5, horizon_s=20.0, kernels=("k1", "k2"))
        assert FaultPlan.from_json(plan.to_json()) == plan
