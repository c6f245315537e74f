"""Integration tests for the scheduler server, application runs, and runtime."""

import pytest

from repro.core import SystemMode, build_system
from repro.types import Target
from repro.workloads import PAPER_TABLE1_MS, profile_for


@pytest.fixture(scope="module")
def digit_system():
    return build_system(["digit.2000"])


class TestServer:
    def test_request_before_start_rejected(self):
        runtime = build_system(["digit.500"])
        runtime.server._running = False
        with pytest.raises(RuntimeError):
            runtime.server.request("digit.500")

    def test_decision_counts_requester_in_load(self):
        # An idle host plus the requester itself: load 1. digit.2000 has
        # FPGA threshold 0, so with a resident kernel it picks the FPGA.
        runtime = build_system(["digit.2000"])
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        reply = runtime.server.request("digit.2000")
        target = runtime.platform.sim.run_until_event(reply)
        assert target is Target.FPGA

    def test_cool_host_stays_on_x86(self):
        runtime = build_system(["cg.A"])  # thresholds ~30/24
        reply = runtime.server.request("cg.A")
        target = runtime.platform.sim.run_until_event(reply)
        assert target is Target.X86
        assert runtime.server.stats.requests == 1

    def test_request_consumes_socket_latency(self):
        runtime = build_system(["cg.A"])
        reply = runtime.server.request("cg.A")
        runtime.platform.sim.run_until_event(reply)
        assert runtime.platform.now >= 2 * runtime.server.socket_latency_s

    def test_preconfigure_starts_reconfiguration(self):
        runtime = build_system(["digit.2000"])
        runtime.server.preconfigure("digit.2000")
        assert runtime.xrt.reconfiguring
        assert runtime.server.stats.reconfigurations_started == 1
        # Idempotent while in flight.
        runtime.server.preconfigure("digit.2000")
        assert runtime.server.stats.reconfigurations_started == 1

    def test_hot_host_without_kernel_migrates_to_arm_and_reconfigures(self):
        runtime = build_system(["digit.2000"])
        load = runtime.launch_background(40)
        runtime.platform.sim.run(until=0.01)
        reply = runtime.server.request("digit.2000")
        target = runtime.platform.sim.run_until_event(reply)
        assert target is Target.ARM  # kernel not yet resident
        assert runtime.server.stats.by_rule.get("arm+reconfig", 0) == 1
        assert runtime.xrt.reconfiguring
        load.stop()


class TestApplicationModes:
    def test_vanilla_x86_never_leaves_host(self):
        runtime = build_system(["digit.2000"])
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.VANILLA_X86)
        )
        assert record.targets == [Target.X86]
        assert record.migrations == 0
        assert record.elapsed_s * 1e3 == pytest.approx(
            PAPER_TABLE1_MS["digit.2000"][0], rel=0.01
        )

    def test_vanilla_arm_runs_entirely_on_arm(self):
        runtime = build_system(["digit.2000"])
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.VANILLA_ARM)
        )
        assert record.targets == [Target.ARM]
        profile = profile_for("digit.2000")
        assert record.elapsed_s == pytest.approx(profile.vanilla_arm_s, rel=0.01)
        assert runtime.platform.x86.cpu.utilization() == 0.0

    def test_always_fpga_pays_configuration_once(self):
        runtime = build_system(["digit.2000"])
        first = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.ALWAYS_FPGA)
        )
        second = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.ALWAYS_FPGA)
        )
        profile = profile_for("digit.2000")
        # First run pays the synchronous XCLBIN load; second does not.
        assert first.elapsed_s > second.elapsed_s
        assert second.elapsed_s == pytest.approx(profile.x86_fpga_s, rel=0.02)

    def test_xar_trek_low_load_behaves_like_x86(self):
        runtime = build_system(["digit.2000"])
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        # digit.2000 FPGA_THR=0: one process already exceeds it but the
        # kernel is still loading at decision time -> x86 or ARM by
        # Algorithm 2 lines 9-18; with ARM_THR=16 > 1 it stays on x86.
        assert record.targets[0] in (Target.X86, Target.FPGA)

    def test_functional_mode_verifies(self):
        runtime = build_system(["digit.500"])
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.500", mode=SystemMode.VANILLA_X86, functional=True)
        )
        assert record.verified is True

    def test_deadline_caps_call_count(self):
        runtime = build_system(["facedet.320"])
        record = runtime.platform.sim.run_until_event(
            runtime.launch(
                "facedet.320",
                mode=SystemMode.VANILLA_X86,
                calls=10_000,
                deadline_s=10.0,
            )
        )
        assert 0 < record.calls_completed < 10_000
        assert record.elapsed_s <= 10.5

    def test_records_collected_by_runtime(self):
        runtime = build_system(["digit.500"])
        runtime.platform.sim.run_until_event(
            runtime.launch("digit.500", mode=SystemMode.VANILLA_X86)
        )
        assert len(runtime.records) == 1
        assert runtime.records[0].finished


class TestMigratedExecution:
    def test_forced_arm_migration_round_trips(self):
        runtime = build_system(["digit.500"])
        entry = runtime.server.thresholds.entry("digit.500")
        entry.arm_threshold = 0.0
        entry.fpga_threshold = float("inf")
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.500", mode=SystemMode.XAR_TREK)
        )
        assert record.targets == [Target.ARM]
        assert record.migrations == 2
        assert record.elapsed_s * 1e3 == pytest.approx(
            PAPER_TABLE1_MS["digit.500"][2], rel=0.02
        )

    def test_arm_migration_moves_dsm_pages(self):
        runtime = build_system(["digit.500"])
        entry = runtime.server.thresholds.entry("digit.500")
        entry.arm_threshold = 0.0
        entry.fpga_threshold = float("inf")
        runtime.platform.sim.run_until_event(
            runtime.launch("digit.500", mode=SystemMode.XAR_TREK)
        )
        assert runtime.dsm.stats.page_transfers > 0

    def test_threshold_update_runs_at_termination(self):
        runtime = build_system(["cg.A"])
        load = runtime.launch_background(40)
        record = runtime.platform.sim.run_until_event(
            runtime.launch("cg.A", mode=SystemMode.XAR_TREK, delay_s=0.01)
        )
        load.stop()
        entry = runtime.server.thresholds.entry("cg.A")
        # Whatever target served it, its time was recorded.
        assert entry.observed(record.dominant_target()) == pytest.approx(
            record.elapsed_s
        )


class TestBackgroundLoad:
    def test_background_occupies_x86(self):
        runtime = build_system(["digit.500"])
        load = runtime.launch_background(10, work_s=1.0)
        runtime.platform.sim.run(until=0.5)
        assert runtime.platform.x86_load == 10
        load.stop()
        runtime.platform.run()
        assert runtime.platform.x86_load == 0
        assert load.completed_rounds >= 10

    def test_pool_is_one_job_with_a_copy_per_process(self):
        runtime = build_system(["digit.500"])
        load = runtime.launch_background(10, work_s=1.0)
        runtime.platform.sim.run(until=0.5)
        cpu = runtime.platform.x86.cpu
        assert [job.copies for job in cpu._server._jobs.values()] == [10]
        # 10 processes on the 6-core host: a round takes 10/6 s.
        runtime.platform.sim.run(until=3.5)
        assert load.completed_rounds == 20
        load.stop()

    def test_negative_count_rejected(self):
        runtime = build_system(["digit.500"])
        with pytest.raises(ValueError, match="n_processes"):
            runtime.launch_background(-3)


class TestRunRecord:
    def test_dominant_target(self):
        from repro.core.application import RunRecord

        record = RunRecord(app="a", mode=SystemMode.XAR_TREK, seed=0, start_s=0.0)
        assert record.dominant_target() is Target.X86
        record.targets = [Target.FPGA, Target.ARM, Target.FPGA]
        assert record.dominant_target() is Target.FPGA
