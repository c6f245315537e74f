"""Overload protection: the brownout ladder's hysteresis, admission
decisions (queue bound, deadline-aware shedding), metric families that
exist only when a guard is configured, and the end-to-end shed path
through a client run."""

import pytest

from repro.core import SystemMode, build_system
from repro.core.server import RequestShed
from repro.faults import (
    SHED_REASONS,
    OverloadConfig,
    OverloadGuard,
    ResilienceConfig,
)
from repro.metrics import MetricsRegistry


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _guard(metrics=None, **overrides):
    clock = Clock()
    kwargs = dict(
        x86_only_enter_load=10.0,
        x86_only_exit_load=5.0,
        shed_enter_load=20.0,
        shed_exit_load=12.0,
    )
    kwargs.update(overrides)
    return clock, OverloadGuard(clock, OverloadConfig(**kwargs), metrics=metrics)


class TestConfigValidation:
    def test_defaults_valid(self):
        config = OverloadConfig()
        assert config.admission_queue_limit >= 1
        assert config.shed_enter_load > config.x86_only_enter_load

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"admission_queue_limit": 0},
            # Empty hysteresis bands.
            {"x86_only_enter_load": 16.0, "x86_only_exit_load": 16.0},
            {"shed_enter_load": 32.0, "shed_exit_load": 32.0},
            # Unordered rungs.
            {"x86_only_enter_load": 50.0, "x86_only_exit_load": 40.0},
            {"deadline_margin_s": -0.1},
            {"deadline_load_cost_s": -0.1},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OverloadConfig(**kwargs)


class TestLadderHysteresis:
    def test_starts_full(self):
        _clock, guard = _guard()
        assert guard.state == OverloadGuard.FULL
        assert not guard.x86_only
        assert not guard.shedding
        assert guard.brownout_level == 0

    def test_enters_and_holds_x86_only(self):
        _clock, guard = _guard()
        assert guard.update(10.0) == OverloadGuard.X86_ONLY
        assert guard.x86_only and not guard.shedding
        # Inside the hysteresis band: the rung holds.
        assert guard.update(7.0) == OverloadGuard.X86_ONLY
        # At the exit threshold: released.
        assert guard.update(5.0) == OverloadGuard.FULL

    def test_escalates_straight_to_shed(self):
        _clock, guard = _guard()
        assert guard.update(25.0) == OverloadGuard.SHED
        assert guard.shedding and guard.x86_only
        assert guard.brownout_level == 2

    def test_shed_releases_to_x86_only_then_full(self):
        _clock, guard = _guard()
        guard.update(25.0)
        # Above the shed exit: still shedding.
        assert guard.update(13.0) == OverloadGuard.SHED
        # Below shed exit but above the x86-only exit: one rung down.
        assert guard.update(8.0) == OverloadGuard.X86_ONLY
        # Below the x86-only exit straight from SHED: all the way down.
        guard.update(25.0)
        assert guard.update(3.0) == OverloadGuard.FULL

    def test_transitions_counted(self):
        _clock, guard = _guard()
        guard.update(10.0)
        guard.update(25.0)
        guard.update(3.0)
        assert guard.transitions == 3


class TestAdmission:
    def test_full_state_admits(self):
        _clock, guard = _guard()
        assert guard.admit(now=0.0) is None

    def test_shed_state_refuses_everything(self):
        _clock, guard = _guard()
        guard.update(25.0)
        assert guard.admit(now=0.0) == "brownout"

    def test_bounded_queue_sheds_at_capacity(self):
        _clock, guard = _guard(admission_queue_limit=2)
        guard.enqueued()
        assert guard.admit(now=0.0) is None
        guard.enqueued()
        assert guard.admit(now=0.0) == "queue_full"
        guard.dequeued()
        assert guard.admit(now=0.0) is None

    def test_deadline_doomed_request_shed(self):
        _clock, guard = _guard()
        # estimate alone forfeits the deadline
        assert guard.admit(now=10.0, deadline_at=10.5, estimate_s=1.0) == "deadline"
        # comfortable headroom admits
        assert guard.admit(now=10.0, deadline_at=12.0, estimate_s=1.0) is None

    def test_deadline_margin_is_additive(self):
        _clock, guard = _guard(deadline_margin_s=5.0)
        assert guard.admit(now=0.0, deadline_at=4.0, estimate_s=0.0) == "deadline"

    def test_load_proportional_estimate(self):
        # Each unit of load adds deadline_load_cost_s to the estimate:
        # the same request is admitted idle and shed under load.
        _clock, guard = _guard(deadline_load_cost_s=0.5)
        guard.update(2.0)  # estimate += 1.0
        assert guard.admit(now=0.0, deadline_at=1.5, estimate_s=0.0) is None
        guard.update(4.0)  # estimate += 2.0
        assert guard.admit(now=0.0, deadline_at=1.5, estimate_s=0.0) == "deadline"

    def test_no_deadline_never_deadline_shed(self):
        _clock, guard = _guard(deadline_load_cost_s=100.0)
        guard.update(10.0)
        # X86_ONLY still admits deadline-free work.
        assert guard.admit(now=0.0, deadline_at=None) is None


class TestMetrics:
    def test_no_registry_no_families(self):
        metrics = MetricsRegistry()
        _clock, _guard_obj = _guard(metrics=None)
        for name in ("shed_total", "brownout_state", "admission_queue_depth"):
            assert metrics.get(name) is None

    def test_families_appear_with_guard(self):
        metrics = MetricsRegistry()
        _clock, guard = _guard(metrics=metrics)
        assert metrics.get("shed_total") is not None
        assert metrics.get("brownout_state") is not None
        assert metrics.get("admission_queue_depth") is not None

    def test_shed_total_labeled_by_reason(self):
        metrics = MetricsRegistry()
        _clock, guard = _guard(metrics=metrics)
        guard.count_shed("brownout")
        guard.count_shed("brownout")
        guard.count_shed("deadline")
        family = metrics.get("shed_total")
        assert family.labels(reason="brownout").value == 2.0
        assert family.labels(reason="deadline").value == 1.0

    def test_shed_reasons_registry_is_closed(self):
        assert set(SHED_REASONS) == {
            "brownout",
            "queue_full",
            "deadline",
            "deadline_expired",
        }

    def test_brownout_gauge_tracks_the_ladder(self):
        metrics = MetricsRegistry()
        clock, guard = _guard(metrics=metrics)
        clock.now = 4.0
        guard.update(25.0)
        clock.now = 8.0
        snap = metrics.get("brownout_state").aggregates()
        assert snap["value"] == 2.0
        assert snap["min"] == 0.0
        assert snap["max"] == 2.0
        # full (0) for 4 s, shed (2) for 4 s -> mean 1.0
        assert snap["time_weighted_mean"] == pytest.approx(1.0)
        assert snap["updates"] == 1

    def test_queue_depth_gauge_integrates_over_time(self):
        metrics = MetricsRegistry()
        clock, guard = _guard(metrics=metrics)
        clock.now = 1.0
        guard.enqueued()
        clock.now = 3.0
        snap = metrics.get("admission_queue_depth").aggregates()
        assert snap["value"] == 1.0
        assert snap["max"] == 1.0
        # depth 0 for 1 s, depth 1 for 2 s -> mean 2/3
        assert snap["time_weighted_mean"] == pytest.approx(2.0 / 3.0)

    def test_snapshot_is_the_digest_view(self):
        _clock, guard = _guard()
        guard.update(25.0)
        guard.enqueued()
        assert guard.snapshot() == {"queue_depth": 1.0, "brownout": 2.0}


def _shedding_config(**overload_overrides):
    """A resilience config whose guard sheds from the first request
    (one in-flight client already exceeds the shed rung)."""
    kwargs = dict(
        x86_only_enter_load=0.6,
        x86_only_exit_load=0.3,
        shed_enter_load=0.9,
        shed_exit_load=0.8,
    )
    kwargs.update(overload_overrides)
    return ResilienceConfig(overload=OverloadConfig(**kwargs))


class TestEndToEndShedding:
    def test_brownout_shed_ends_the_session_accounted(self):
        runtime = build_system(["digit.500"], resilience=_shedding_config())
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.500", mode=SystemMode.XAR_TREK)
        )
        assert record.shed_reason == "brownout"
        assert record.calls_completed == 0
        # Shedding is not a fallback: the work was refused, not served.
        assert runtime.resilience.summary()["fallbacks"] == {}
        family = runtime.metrics.get("shed_total")
        assert family.labels(reason="brownout").value == 1.0

    def test_deadline_shed_at_admission(self):
        config = ResilienceConfig(
            overload=OverloadConfig(deadline_margin_s=1e6)
        )
        runtime = build_system(["digit.500"], resilience=config)
        record = runtime.platform.sim.run_until_event(
            runtime.launch(
                "digit.500", mode=SystemMode.XAR_TREK, deadline_s=5.0
            )
        )
        assert record.shed_reason == "deadline"
        assert record.calls_completed == 0

    def test_unprotected_server_admits_everything(self):
        runtime = build_system(["digit.500"])
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.500", mode=SystemMode.XAR_TREK)
        )
        assert record.shed_reason is None
        assert record.finished
        # No guard: none of the overload families exist.
        for name in ("shed_total", "brownout_state", "admission_queue_depth"):
            assert runtime.metrics.get(name) is None

    def test_raw_server_request_raises_request_shed(self):
        runtime = build_system(["digit.500"], resilience=_shedding_config())
        with pytest.raises(RequestShed) as excinfo:
            runtime.server.request("digit.500")
        assert excinfo.value.reason == "brownout"

    def test_brownout_rung_pins_decisions_to_x86(self):
        # The x86-only rung (entered, not shedding) keeps serving but
        # refuses to steer work at the accelerators.
        config = ResilienceConfig(
            overload=OverloadConfig(
                x86_only_enter_load=0.5,
                x86_only_exit_load=0.2,
                shed_enter_load=1e9,
                shed_exit_load=0.9,
            )
        )
        runtime = build_system(["digit.2000"], resilience=config)
        sim = runtime.platform.sim
        sim.run_until_event(runtime.preload_fpga())
        record = sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        assert record.finished
        from repro.types import Target

        assert set(record.targets) == {Target.X86}
        assert runtime.server.stats.by_rule.get("brownout-x86", 0) > 0
