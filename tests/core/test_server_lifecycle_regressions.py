"""Scheduler-lifecycle regression tests.

Each class pins one fixed bug:

* a background reconfiguration retry armed before :meth:`stop` fired
  into the stopped (or stop/start-cycled) daemon — the retry callback
  now carries the same generation guard as the serve loop;
* the per-kernel background-retry budget was only re-armed by a
  *successful programming pass*, so a kernel that exhausted it while
  the device breaker was open stayed background-retry-disabled forever
  — the budget now also resets when the device breaker closes;
* a stop() racing a request already handed to the parked serve loop
  left a stale ``_STOP`` sentinel in the queue, and the *restarted*
  loop exited on it. The accept loop is gone since (a request goes
  straight to its handler once the daemon is online); the tests still
  pin that such a request is served once by the restarted daemon, and
  that requests failed by stop() neither leak reply events nor
  double-count :class:`ServerStats` decisions across the cycle.
"""

import pytest

from repro.core import build_system
from repro.core.server import SchedulerUnavailable
from repro.faults.resilience import ResilienceConfig
from repro.types import Target

pytestmark = pytest.mark.metrics


@pytest.fixture
def runtime():
    return build_system(["digit.2000"])


def _run_until_failed(runtime, n):
    """Advance the shared sim until ``n`` programming failures landed
    (stopping *inside* the retry backoff, before the retry fires)."""
    sim = runtime.platform.sim
    while runtime.server.stats.reconfigurations_failed < n:
        sim.step()


class TestRetryGenerationGuard:
    def test_stop_mid_backoff_suppresses_the_armed_retry(self, runtime):
        runtime.platform.fpga.inject_reconfig_failures(1)
        runtime.server.preconfigure("digit.2000")
        _run_until_failed(runtime, 1)  # retry armed, backoff still pending
        started = runtime.server.stats.reconfigurations_started
        runtime.server.stop()
        runtime.platform.sim.run()  # the backoff elapses into a stopped daemon
        assert runtime.server.stats.reconfigurations_started == started
        assert not runtime.xrt.reconfiguring

    def test_stop_start_cycle_also_suppresses_the_stale_retry(self, runtime):
        runtime.platform.fpga.inject_reconfig_failures(1)
        runtime.server.preconfigure("digit.2000")
        _run_until_failed(runtime, 1)
        started = runtime.server.stats.reconfigurations_started
        runtime.server.stop()
        runtime.server.start()  # new generation: the armed retry is stale
        runtime.platform.sim.run()
        assert runtime.server.stats.reconfigurations_started == started
        # The restarted daemon reconfigures normally on the next call.
        kernel = runtime.result.thresholds.entry("digit.2000").kernel_name
        runtime.server.preconfigure("digit.2000")
        runtime.platform.sim.run()
        assert runtime.xrt.has_kernel(kernel)


class TestRetryBudgetRecovery:
    def test_successful_programming_clears_the_budget(self, runtime):
        runtime.platform.fpga.inject_reconfig_failures(1)
        runtime.server.preconfigure("digit.2000")
        runtime.platform.sim.run()
        # One failure armed one retry; the retry's success wiped every
        # kernel's consecutive-failure streak.
        assert runtime.server.stats.reconfigurations_failed == 1
        assert runtime.server._reconfig_retries == {}

    def test_breaker_close_rearms_background_retries(self):
        config = ResilienceConfig(
            breaker_failure_threshold=3,
            breaker_cooldown_s=1.0,
            reconfig_retry_limit=2,
            reconfig_retry_backoff_s=0.25,
        )
        runtime = build_system(["digit.2000"], resilience=config)
        sim = runtime.platform.sim
        kernel = runtime.result.thresholds.entry("digit.2000").kernel_name
        runtime.platform.fpga.inject_reconfig_failures(3)
        runtime.server.preconfigure("digit.2000")
        sim.run()
        assert runtime.platform.fpga.pending_reconfig_failures == 0
        # Initial attempt + 2 background retries all failed: the budget
        # is exhausted and the third failure tripped the device breaker.
        assert runtime.server.stats.reconfigurations_failed == 3
        assert runtime.server._reconfig_retries[kernel] == 2
        assert runtime.resilience.breaker.state_of("device:fpga") == "open"
        # The card heals: cooldown elapses, the half-open trial
        # succeeds (an external health probe / crash recovery — not a
        # programming pass, so the success branch in the server never
        # runs). The budget must re-arm through the breaker listener.
        sim.run(until=sim.now + config.breaker_cooldown_s + 0.01)
        assert runtime.resilience.allow_device()  # open -> half-open
        runtime.resilience.record_device_success()
        assert runtime.resilience.breaker.state_of("device:fpga") == "closed"
        assert runtime.server._reconfig_retries == {}
        # And background retries actually work again end to end.
        runtime.platform.fpga.inject_reconfig_failures(1)
        runtime.server.preconfigure("digit.2000")
        sim.run()
        assert runtime.xrt.has_kernel(kernel)


class TestStopStartRequestAccounting:
    def test_stop_fails_queued_requests_without_decision_counts(self, runtime):
        runtime.server.start()
        replies = [runtime.server.request("digit.2000") for _ in range(3)]
        runtime.server.stop()
        runtime.platform.sim.run()
        for reply in replies:
            assert reply.triggered and not reply.ok
            assert isinstance(reply.value, SchedulerUnavailable)
        # Failed requests are not decisions: every counter stays zero.
        assert runtime.server.stats.requests == 0
        assert runtime.server.stats.by_target == {}
        assert runtime.server.stats.by_rule == {}

    def test_stop_fails_undecided_requests_and_delivers_decided_ones(self, runtime):
        # Two requests already past the accept step when the daemon
        # stops: one still in its inbound socket hop (its decision
        # falls after stop()), one already decided and in its reply
        # hop. The first fails at decide time and counts no decision;
        # the second still gets its target.
        sim = runtime.platform.sim
        hop = runtime.server.socket_latency_s
        sim.run()  # the daemon is up and idle
        decided = runtime.server.request("digit.2000")
        sim.run(until=sim.now + hop / 2)
        undecided = runtime.server.request("digit.2000")
        sim.run(until=sim.now + 3 * hop / 4)  # between the two decisions
        assert runtime.server.stats.requests == 1
        runtime.server.stop()
        sim.run()
        assert decided.ok and decided.value in set(Target)
        assert undecided.triggered and not undecided.ok
        assert isinstance(undecided.value, SchedulerUnavailable)
        assert runtime.server.stats.requests == 1
        assert sum(runtime.server.stats.by_target.values()) == 1

    def test_restart_serves_fresh_requests_exactly_once(self, runtime):
        sim = runtime.platform.sim
        runtime.server.start()
        dead = runtime.server.request("digit.2000")
        runtime.server.stop()
        runtime.server.start()
        reply = runtime.server.request("digit.2000")
        assert sim.run_until_event(reply) in set(Target)
        sim.run()
        assert not dead.ok
        assert runtime.server.stats.requests == 1
        assert sum(runtime.server.stats.by_target.values()) == 1
        assert not runtime.server._pending  # nothing leaked

    def test_restart_survives_a_stop_racing_an_in_flight_request(self, runtime):
        # The nasty interleaving: the serve loop is parked on get(), a
        # request is handed straight to the parked getter, and the
        # server stop/start-cycles before the loop resumes. The stale
        # loop re-queues the request behind the stop sentinel; the
        # restarted loop must discard that stale sentinel and serve the
        # request (once), not exit on it and leave a dead daemon.
        sim = runtime.platform.sim
        runtime.server.start()
        sim.run()  # park the serve loop on get()
        inflight = runtime.server.request("digit.2000")
        runtime.server.stop()
        runtime.server.start()
        sim.run()
        assert inflight.ok and inflight.value in set(Target)
        assert runtime.server.stats.requests == 1
        # The restarted daemon is actually alive, not a zombie.
        reply = runtime.server.request("digit.2000")
        assert sim.run_until_event(reply) in set(Target)
        assert runtime.server.stats.requests == 2
        assert sum(runtime.server.stats.by_target.values()) == 2
