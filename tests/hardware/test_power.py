"""Unit tests for the power model and energy meter."""

import pytest

from repro.hardware import DevicePower, EnergyMeter, PowerModel, paper_testbed
from repro.types import Target
from tests.core.process_reference import timeout


class TestPowerModel:
    def test_target_lookup(self):
        model = PowerModel()
        assert model.for_target(Target.X86) is model.x86
        assert model.for_target(Target.ARM) is model.arm
        assert model.for_target(Target.FPGA) is model.fpga

    def test_marginal_energy(self):
        model = PowerModel()
        assert model.marginal_energy_j(Target.X86, 2.0) == pytest.approx(
            2.0 * model.x86.active_w_per_unit
        )

    def test_arm_is_the_low_power_compute(self):
        # The ThunderX per-core active power is far below the Xeon's —
        # the premise of the paper's energy-oriented future work.
        model = PowerModel()
        assert model.arm.active_w_per_unit < model.x86.active_w_per_unit

    def test_validation(self):
        with pytest.raises(ValueError):
            DevicePower(idle_w=-1, active_w_per_unit=1)


class TestEnergyMeter:
    def test_idle_platform_consumes_idle_power_only(self):
        platform = paper_testbed()
        meter = EnergyMeter(platform)
        timeout(platform.sim, 10.0)
        platform.run()
        report = meter.report()
        model = meter.model
        expected_idle = 10.0 * (model.x86.idle_w + model.arm.idle_w + model.fpga.idle_w)
        assert report.total_j == pytest.approx(expected_idle)
        assert report.window_s == pytest.approx(10.0)

    def test_cpu_work_adds_active_energy(self):
        platform = paper_testbed()
        meter = EnergyMeter(platform)
        platform.x86.cpu.execute(5.0)  # 5 core-seconds
        platform.run()
        report = meter.report()
        active = report.x86_j - meter.model.x86.idle_w * report.window_s
        assert active == pytest.approx(5.0 * meter.model.x86.active_w_per_unit)

    def test_fpga_kernel_time_counted(self):
        platform = paper_testbed()

        class Image:
            name = "img"
            size_bytes = 1_000_000
            kernel_names = ("k",)

        platform.sim.run_until_event(platform.fpga.configure(Image()))
        meter = EnergyMeter(platform)
        platform.sim.run_until_event(platform.fpga.execute("k", 2.0))
        report = meter.report()
        active = report.fpga_j - meter.model.fpga.idle_w * report.window_s
        assert active == pytest.approx(2.0 * meter.model.fpga.active_w_per_unit)

    def test_reset_starts_a_new_window(self):
        platform = paper_testbed()
        meter = EnergyMeter(platform)
        platform.x86.cpu.execute(3.0)
        platform.run()
        meter.reset()
        report = meter.report()
        assert report.window_s == 0.0
        assert report.total_j == 0.0

    def test_same_work_cheaper_on_arm(self):
        # Equal compute demand: the ARM run burns fewer joules (and the
        # x86 run is faster) — the energy/performance trade-off.
        model = PowerModel()
        x86_energy = model.marginal_energy_j(Target.X86, 1.0)
        arm_energy = model.marginal_energy_j(Target.ARM, 2.5)  # 2.5x slower
        assert arm_energy < x86_energy

    def test_edp_metric(self):
        platform = paper_testbed()
        meter = EnergyMeter(platform)
        platform.x86.cpu.execute(1.0)
        platform.run()
        report = meter.report()
        assert report.energy_delay_product(2.0) == pytest.approx(report.total_j * 2.0)
        assert report.average_power_w > 0
