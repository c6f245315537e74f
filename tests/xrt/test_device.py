"""Unit tests for the XRT-like host runtime."""

import pytest

from repro.hardware import ALVEO_U50, FPGADevice, Link, PCIE_GEN3_X16
from repro.sim import Simulator
from repro.xrt import XRTDevice, XRTError


class FakeKernel:
    kernel_latency_s = 0.25


class FakeImage:
    def __init__(self, name="img", kernels=("k1",), size_bytes=5_000_000):
        self.name = name
        self.size_bytes = size_bytes
        self.kernel_names = tuple(kernels)

    def kernel(self, name):
        if name not in self.kernel_names:
            raise KeyError(name)
        return FakeKernel()


def make_xrt():
    sim = Simulator()
    fpga = FPGADevice(sim, ALVEO_U50)
    pcie = Link(sim, PCIE_GEN3_X16)
    return sim, XRTDevice(sim, fpga, pcie)


class TestConfiguration:
    def test_not_ready_until_loaded(self):
        sim, xrt = make_xrt()
        assert not xrt.ready
        sim.run_until_event(xrt.load_xclbin(FakeImage()))
        assert xrt.ready
        assert xrt.has_kernel("k1")

    def test_reload_same_image_free(self):
        sim, xrt = make_xrt()
        sim.run_until_event(xrt.load_xclbin(FakeImage()))
        before = sim.now
        sim.run_until_event(xrt.load_xclbin(FakeImage()))
        assert sim.now == before


class TestBuffers:
    def test_alloc_and_sync(self):
        sim, xrt = make_xrt()
        buffer = xrt.alloc_buffer(1 << 20)
        assert not buffer.on_device
        sim.run_until_event(xrt.sync_to_device(buffer))
        assert buffer.on_device
        sim.run_until_event(xrt.sync_from_device(buffer))

    def test_sync_from_host_buffer_rejected(self):
        _sim, xrt = make_xrt()
        buffer = xrt.alloc_buffer(100)
        with pytest.raises(XRTError):
            xrt.sync_from_device(buffer)

    def test_negative_size_rejected(self):
        _sim, xrt = make_xrt()
        with pytest.raises(XRTError):
            xrt.alloc_buffer(-1)

    def test_transfer_takes_pcie_time(self):
        sim, xrt = make_xrt()
        buffer = xrt.alloc_buffer(32_000_000_000)  # 1 second at 32 GB/s
        sim.run_until_event(xrt.sync_to_device(buffer))
        assert sim.now == pytest.approx(1.0 + PCIE_GEN3_X16.latency_s)


class TestKernelRuns:
    def test_complete_run_records_timing(self):
        sim, xrt = make_xrt()
        sim.run_until_event(xrt.load_xclbin(FakeImage()))
        start = sim.now
        run = sim.run_until_event(xrt.run_kernel("k1", bytes_in=1 << 20, bytes_out=4096))
        assert run.kernel_name == "k1"
        assert run.duration == pytest.approx(sim.now - start)
        assert sim.now - start > 0.25  # kernel latency + transfers
        assert xrt.completed_runs == 1
        assert xrt.active_runs == 0

    def test_duration_override(self):
        sim, xrt = make_xrt()
        sim.run_until_event(xrt.load_xclbin(FakeImage()))
        start = sim.now
        sim.run_until_event(xrt.run_kernel("k1", 0, 0, duration=1.5))
        assert sim.now - start == pytest.approx(1.5, rel=1e-6)

    def test_unloaded_kernel_rejected(self):
        _sim, xrt = make_xrt()
        with pytest.raises(XRTError):
            xrt.run_kernel("k1", 0, 0)

    def test_runs_serialize_on_one_compute_unit(self):
        sim, xrt = make_xrt()
        sim.run_until_event(xrt.load_xclbin(FakeImage()))
        start = sim.now
        first = xrt.run_kernel("k1", 0, 0, duration=1.0)
        second = xrt.run_kernel("k1", 0, 0, duration=1.0)
        assert xrt.active_runs == 2
        sim.run_until_event(first)
        sim.run_until_event(second)
        assert sim.now - start == pytest.approx(2.0, rel=1e-6)

    def test_cannot_swap_image_under_running_kernel(self):
        sim, xrt = make_xrt()
        sim.run_until_event(xrt.load_xclbin(FakeImage("a")))
        xrt.run_kernel("k1", 0, 0, duration=5.0)
        with pytest.raises(XRTError):
            xrt.load_xclbin(FakeImage("b", kernels=("k2",)))

    def test_kernel_latency_from_image(self):
        sim, xrt = make_xrt()
        sim.run_until_event(xrt.load_xclbin(FakeImage()))
        assert xrt.kernel_latency("k1") == pytest.approx(0.25)
