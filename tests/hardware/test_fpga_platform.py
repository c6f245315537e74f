"""Unit tests for the FPGA device model and the platform."""

import pytest

from repro.hardware import ALVEO_U50, FPGADevice, FPGAResources, paper_testbed
from repro.sim import SimulationError, Simulator
from repro.types import Target


class FakeImage:
    def __init__(self, name="img", kernels=("k1", "k2"), size_bytes=10_000_000):
        self.name = name
        self.size_bytes = size_bytes
        self.kernel_names = tuple(kernels)


class TestFPGAResources:
    def test_addition(self):
        a = FPGAResources(lut=10, ff=20, bram=1, dsp=2, uram=3)
        b = FPGAResources(lut=5, ff=5, bram=5, dsp=5, uram=5)
        total = a + b
        assert (total.lut, total.ff, total.bram, total.dsp, total.uram) == (
            15, 25, 6, 7, 8,
        )

    def test_fits_in_every_axis(self):
        budget = FPGAResources(lut=100, ff=100, bram=10, dsp=10, uram=10)
        assert FPGAResources(lut=100, ff=100, bram=10, dsp=10, uram=10).fits_in(budget)
        assert not FPGAResources(lut=101).fits_in(budget)
        assert not FPGAResources(uram=11).fits_in(budget)

    def test_max_fraction(self):
        budget = FPGAResources(lut=100, ff=100, bram=10, dsp=10, uram=10)
        assert FPGAResources(lut=50, bram=9).max_fraction_of(budget) == pytest.approx(0.9)
        assert FPGAResources().max_fraction_of(budget) == 0.0

    def test_alveo_u50_usable_area_excludes_shell(self):
        usable = ALVEO_U50.usable_resources
        assert usable.lut < ALVEO_U50.resources.lut
        assert usable.lut == int(872_000 * 0.8)


class TestFPGADevice:
    def test_starts_unconfigured(self):
        device = FPGADevice(Simulator(), ALVEO_U50)
        assert device.configured_image is None
        assert device.available_kernels == ()
        assert not device.has_kernel("k1")

    def test_configure_takes_reconfig_time(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        image = FakeImage(size_bytes=50_000_000)
        done = device.configure(image)
        assert device.reconfiguring
        assert device.available_kernels == ()  # not callable mid-load
        sim.run_until_event(done)
        assert sim.now == pytest.approx(ALVEO_U50.reconfig_time(50_000_000))
        assert set(device.available_kernels) == {"k1", "k2"}

    def test_reconfigure_same_image_is_free(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        sim.run_until_event(device.configure(FakeImage()))
        before = sim.now
        sim.run_until_event(device.configure(FakeImage()))
        assert sim.now == before
        assert device.reconfiguration_count == 1

    def test_concurrent_configure_same_image_shares_event(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        first = device.configure(FakeImage("a"))
        second = device.configure(FakeImage("a"))
        assert first is second

    def test_concurrent_configure_different_image_rejected(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        device.configure(FakeImage("a"))
        with pytest.raises(SimulationError):
            device.configure(FakeImage("b"))

    def test_swap_images(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        sim.run_until_event(device.configure(FakeImage("a", kernels=("k1",))))
        sim.run_until_event(device.configure(FakeImage("b", kernels=("k3",))))
        assert device.available_kernels == ("k3",)
        assert not device.has_kernel("k1")

    def test_execute_unloaded_kernel_rejected(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        with pytest.raises(SimulationError):
            device.execute("ghost", 1.0)

    def test_same_kernel_invocations_serialize(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        sim.run_until_event(device.configure(FakeImage()))
        start = sim.now
        done = [device.execute("k1", 1.0) for _ in range(3)]
        sim.run_until_event(done[-1])
        assert sim.now - start == pytest.approx(3.0)

    def test_compute_unit_grants_in_arrival_order(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        sim.run_until_event(device.configure(FakeImage()))
        start = sim.now
        finished = []
        for duration in (2.0, 1.0, 0.5):
            device.execute("k1", duration).callbacks.append(
                lambda ev, d=duration: finished.append((d, sim.now - start))
            )
        assert device.queue_length("k1") == 2  # the first one holds the unit
        sim.run()
        assert finished == [
            (2.0, pytest.approx(2.0)),
            (1.0, pytest.approx(3.0)),
            (0.5, pytest.approx(3.5)),
        ]
        assert device.queue_length("k1") == 0
        # Free again: the image can be swapped.
        sim.run_until_event(device.configure(FakeImage("b")))

    def test_different_kernels_run_concurrently(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        sim.run_until_event(device.configure(FakeImage()))
        start = sim.now
        first = device.execute("k1", 1.0)
        second = device.execute("k2", 1.0)
        sim.run_until_event(first)
        sim.run_until_event(second)
        assert sim.now - start == pytest.approx(1.0)

    def test_cannot_reconfigure_while_kernel_runs(self):
        sim = Simulator()
        device = FPGADevice(sim, ALVEO_U50)
        sim.run_until_event(device.configure(FakeImage("a")))
        device.execute("k1", 10.0)
        sim.run(until=sim.now + 1.0)
        with pytest.raises(SimulationError):
            device.configure(FakeImage("b"))


class TestPlatform:
    def test_paper_testbed_matches_section4(self):
        platform = paper_testbed()
        assert platform.x86.cpu.cores == 6
        assert platform.arm.cpu.cores == 96
        assert platform.total_cores == 102
        assert platform.fpga.spec.name == "alveo-u50"

    def test_cluster_lookup_by_target(self):
        platform = paper_testbed()
        assert platform.cluster(Target.X86) is platform.x86.cpu
        assert platform.cluster(Target.ARM) is platform.arm.cpu
        with pytest.raises(ValueError):
            platform.cluster(Target.FPGA)

    def test_x86_load_property(self):
        platform = paper_testbed()
        platform.x86.cpu.execute(1.0)
        platform.arm.cpu.execute(1.0)
        assert platform.x86_load == 1
