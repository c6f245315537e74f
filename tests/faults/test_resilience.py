"""Resilience policy state machines: retries, breakers, counters."""

import math

import pytest

from repro.faults import BreakerState, CircuitBreaker, ResilienceConfig, ResiliencePolicy
from repro.metrics import MetricsRegistry


class Clock:
    """A hand-cranked clock for driving breaker cooldowns."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestResilienceConfig:
    def test_defaults_valid(self):
        config = ResilienceConfig()
        assert config.kernel_retry_limit == 2
        assert config.request_timeout_s is not None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kernel_retry_limit": -1},
            {"retry_backoff_s": -0.1},
            {"retry_backoff_factor": 0.5},
            {"breaker_failure_threshold": 0},
            {"breaker_cooldown_s": -1.0},
            {"request_timeout_s": 0.0},
            {"reconfig_retry_limit": -1},
            # Simulated delays: an infinite one would queue a call at
            # t=inf, a NaN one would fail mid-run.
            {"request_timeout_s": math.inf},
            {"request_timeout_s": math.nan},
            {"retry_backoff_s": math.inf},
            {"retry_backoff_s": math.nan},
            {"retry_backoff_factor": math.inf},
            {"retry_backoff_factor": math.nan},
            {"reconfig_retry_backoff_s": math.inf},
            {"reconfig_retry_backoff_s": math.nan},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)

    def test_timeout_none_disables(self):
        assert ResilienceConfig(request_timeout_s=None).request_timeout_s is None

    def test_backoff_is_exponential(self):
        config = ResilienceConfig(retry_backoff_s=1e-3, retry_backoff_factor=2.0)
        assert config.backoff_s(0) == 1e-3
        assert config.backoff_s(1) == 2e-3
        assert config.backoff_s(2) == 4e-3


class TestBreakerStateMachine:
    def _state(self, clock, threshold=3, cooldown=10.0):
        return BreakerState(clock, threshold=threshold, cooldown_s=cooldown)

    def test_opens_after_threshold_consecutive_failures(self):
        clock = Clock()
        state = self._state(clock)
        assert state.record_failure() is False
        assert state.record_failure() is False
        assert state.record_failure() is True  # the trip
        assert state.state == BreakerState.OPEN

    def test_success_resets_the_failure_run(self):
        clock = Clock()
        state = self._state(clock)
        state.record_failure()
        state.record_failure()
        state.record_success()
        assert state.record_failure() is False  # run restarted at 1
        assert state.state == BreakerState.CLOSED

    def test_open_blocks_until_cooldown(self):
        clock = Clock()
        state = self._state(clock, threshold=1, cooldown=5.0)
        state.record_failure()
        assert not state.allow()
        clock.now = 4.999
        assert not state.allow()
        clock.now = 5.0
        assert state.allow()  # half-open trial
        assert state.state == BreakerState.HALF_OPEN

    def test_half_open_success_closes(self):
        clock = Clock()
        state = self._state(clock, threshold=1, cooldown=1.0)
        state.record_failure()
        clock.now = 2.0
        assert state.allow()
        state.record_success()
        assert state.state == BreakerState.CLOSED
        assert state.allow()

    def test_half_open_failure_reopens_with_fresh_cooldown(self):
        clock = Clock()
        state = self._state(clock, threshold=1, cooldown=5.0)
        state.record_failure()  # open at t=0
        clock.now = 6.0
        assert state.allow()  # half-open
        assert state.record_failure() is True  # straight back open
        clock.now = 10.0  # only 4 s into the fresh cooldown
        assert not state.allow()
        clock.now = 11.0
        assert state.allow()

    def test_failures_while_open_do_not_recount(self):
        clock = Clock()
        state = self._state(clock, threshold=1, cooldown=5.0)
        state.record_failure()
        assert state.record_failure() is False
        assert state.open_count == 1

    def test_snapshot_matches_gauge_sampler_contract(self):
        clock = Clock()
        state = self._state(clock, threshold=1, cooldown=10.0)
        clock.now = 4.0
        state.record_failure()  # open at t=4
        clock.now = 8.0
        snap = state.snapshot()
        assert set(snap) == {"value", "min", "max", "time_weighted_mean", "updates"}
        assert snap["value"] == 1.0
        assert snap["min"] == 0.0
        assert snap["max"] == 1.0
        # closed for 4 s, open for 4 s -> mean 0.5
        assert snap["time_weighted_mean"] == pytest.approx(0.5)
        assert snap["updates"] == 1


class TestCircuitBreaker:
    def test_unknown_key_is_allowed_without_creating_state(self):
        clock = Clock()
        breaker = CircuitBreaker(clock, threshold=1, cooldown_s=1.0)
        assert breaker.allow("kernel:k1")
        assert breaker.states() == {}

    def test_record_failure_returns_true_per_trip(self):
        clock = Clock()
        breaker = CircuitBreaker(clock, threshold=1, cooldown_s=1.0)
        assert breaker.record_failure("kernel:k1") is True
        assert breaker.record_failure("kernel:k1") is False  # already open
        clock.now = 1.0
        assert breaker.allow("kernel:k1")  # open -> half-open
        assert breaker.record_failure("kernel:k1") is True  # trial failed

    def test_record_success_returns_true_exactly_on_close(self):
        clock = Clock()
        breaker = CircuitBreaker(clock, threshold=1, cooldown_s=1.0)
        assert breaker.record_success("kernel:k1") is False  # no state yet
        breaker.record_failure("kernel:k1")
        assert breaker.record_success("kernel:k1") is True  # open -> closed
        assert breaker.record_success("kernel:k1") is False  # already closed
        breaker.record_failure("kernel:k1")
        clock.now = 1.0
        assert breaker.allow("kernel:k1")  # open -> half-open
        assert breaker.record_success("kernel:k1") is True  # half-open -> closed
        assert breaker.state_of("kernel:k1") == BreakerState.CLOSED

    def test_gauge_series_bound_lazily(self):
        clock = Clock()
        metrics = MetricsRegistry(clock=clock)
        breaker = CircuitBreaker(clock, threshold=1, cooldown_s=1.0, metrics=metrics)
        assert metrics.get("circuit_breaker_state") is None
        breaker.record_failure("device:fpga")
        family = metrics.get("circuit_breaker_state")
        assert family is not None
        assert family.labels(target="device:fpga").value == 1.0


class TestResiliencePolicy:
    def _policy(self, **config_kwargs):
        clock = Clock()
        metrics = MetricsRegistry(clock=clock)
        policy = ResiliencePolicy(
            clock, metrics, config=ResilienceConfig(**config_kwargs)
        )
        return clock, metrics, policy

    def test_counters_registered_eagerly(self):
        _clock, metrics, _policy = self._policy()
        for name in ("retries_total", "fallbacks_total", "quarantines_total"):
            assert metrics.get(name) is not None

    def test_quarantine_counted_on_kernel_trip(self):
        _clock, metrics, policy = self._policy(breaker_failure_threshold=2)
        policy.record_kernel_failure("k1")
        policy.record_kernel_failure("k1")
        assert not policy.allow_kernel("k1")
        assert metrics.get("quarantines_total").value == 1

    def test_recovery_listeners_run_once_per_device_close(self):
        clock, metrics, policy = self._policy(
            breaker_failure_threshold=1, breaker_cooldown_s=1.0
        )
        recovered = []
        policy.add_device_recovery_listener(lambda: recovered.append(clock.now))
        policy.record_device_success()  # closed: nothing to recover from
        assert policy.record_device_failure() is True
        assert metrics.get("quarantines_total").value == 1
        clock.now = 1.0
        assert policy.allow_device()  # open -> half-open
        policy.record_device_success()
        policy.record_device_success()  # closed again: no second call
        policy.record_kernel_failure("k1")
        policy.record_kernel_success("k1")  # a kernel close is not the device's
        assert recovered == [1.0]
        assert metrics.get("quarantines_total").value == 2

    def test_device_breaker_is_separate_from_kernels(self):
        _clock, _metrics, policy = self._policy(breaker_failure_threshold=1)
        policy.record_device_failure()
        assert not policy.allow_device()
        assert policy.allow_kernel("k1")

    def test_summary_shape(self):
        _clock, _metrics, policy = self._policy(breaker_failure_threshold=1)
        policy.count_retry("k1")
        policy.count_fallback("kernel_fault")
        policy.record_kernel_failure("k1")
        summary = policy.summary()
        assert summary["retries"] == 1
        assert summary["fallbacks"] == {"kernel_fault": 1}
        assert summary["quarantines"] == 1
        assert summary["breaker_states"] == {"kernel:k1": "open"}
        # Zero invocations is a real outcome (everything shed at the
        # gate), so goodput reports 0.0 rather than a vacuous 1.0.
        assert summary["goodput"] == 0.0
