"""Unit tests for CPU clusters and interconnect links."""

import pytest

from repro.hardware import (
    ETHERNET_1GBPS,
    PCIE_GEN3_X16,
    CPUCluster,
    CPUSpec,
    Link,
    LinkSpec,
    THUNDERX,
    XEON_BRONZE_3104,
)
from repro.sim import SimulationError, Simulator


class TestCPUSpec:
    def test_paper_specs(self):
        assert XEON_BRONZE_3104.cores == 6
        assert XEON_BRONZE_3104.isa == "x86_64"
        assert THUNDERX.cores == 96
        assert THUNDERX.isa == "aarch64"

    def test_validation(self):
        with pytest.raises(ValueError):
            CPUSpec("bad", "x86_64", cores=0, freq_ghz=1.0)
        with pytest.raises(ValueError):
            CPUSpec("bad", "x86_64", cores=1, freq_ghz=0.0)
        with pytest.raises(ValueError):
            CPUSpec("bad", "mips", cores=1, freq_ghz=1.0)


class TestCPUCluster:
    def test_load_counts_active_jobs(self):
        sim = Simulator()
        cluster = CPUCluster(sim, XEON_BRONZE_3104)
        assert cluster.load == 0
        cluster.execute(1.0)
        cluster.execute(1.0)
        assert cluster.load == 2
        sim.run()
        assert cluster.load == 0

    def test_oversubscribed_dilation_matches_paper_arithmetic(self):
        # Table 2's logic: T(L) = T * L / cores when L > cores.
        sim = Simulator()
        cluster = CPUCluster(sim, XEON_BRONZE_3104)
        for _ in range(30):
            cluster.execute(2.182)
        sim.run()
        assert sim.now == pytest.approx(2.182 * 30 / 6)

    def test_predicted_time(self):
        sim = Simulator()
        cluster = CPUCluster(sim, XEON_BRONZE_3104)
        assert cluster.predicted_time(1.0) == pytest.approx(1.0)
        assert cluster.predicted_time(1.0, extra_jobs=11) == pytest.approx(2.0)

    def test_cancellable_job(self):
        sim = Simulator()
        cluster = CPUCluster(sim, XEON_BRONZE_3104)
        job = cluster.execute_job(5.0)
        sim.defer(1.0, lambda: cluster.cancel(job))
        sim.run()
        assert not job.done.triggered
        assert cluster.load == 0


class TestLink:
    def test_single_transfer_time(self):
        sim = Simulator()
        link = Link(sim, ETHERNET_1GBPS)
        done = link.transfer(125e6)  # 1 second at 1 Gbps
        sim.run_until_event(done)
        assert sim.now == pytest.approx(1.0 + ETHERNET_1GBPS.latency_s)

    def test_concurrent_transfers_share_bandwidth(self):
        sim = Simulator()
        link = Link(sim, ETHERNET_1GBPS)
        link.transfer(125e6)
        link.transfer(125e6)
        sim.run()
        assert sim.now == pytest.approx(2.0 + ETHERNET_1GBPS.latency_s)

    def test_lone_transfer_gets_full_pipe(self):
        sim = Simulator()
        link = Link(sim, PCIE_GEN3_X16)
        done = link.transfer(32e9)
        sim.run_until_event(done)
        assert sim.now == pytest.approx(1.0 + PCIE_GEN3_X16.latency_s)

    def test_ideal_transfer_time(self):
        link = Link(Simulator(), ETHERNET_1GBPS)
        assert link.ideal_transfer_time(125e6) == pytest.approx(
            1.0 + ETHERNET_1GBPS.latency_s
        )

    def test_zero_byte_transfer_is_latency_only(self):
        sim = Simulator()
        link = Link(sim, ETHERNET_1GBPS)
        done = link.transfer(0)
        sim.run_until_event(done)
        assert sim.now == pytest.approx(ETHERNET_1GBPS.latency_s)

    def test_negative_transfer_rejected(self):
        link = Link(Simulator(), ETHERNET_1GBPS)
        with pytest.raises(SimulationError):
            link.transfer(-1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LinkSpec("bad", bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            LinkSpec("bad", bandwidth_bytes_per_s=1.0, latency_s=-1)

    def test_paper_link_rates(self):
        assert ETHERNET_1GBPS.bandwidth_bytes_per_s == pytest.approx(125e6)
        assert PCIE_GEN3_X16.bandwidth_bytes_per_s == pytest.approx(32e9)
