"""Unit tests for calibrated profiles and the workload registry."""

import pytest

from repro.workloads import (
    PAPER_BENCHMARKS,
    PAPER_TABLE1_MS,
    PAPER_TABLE2,
    PAPER_TABLE4_MS,
    available_workloads,
    create_workload,
    profile_for,
)
from repro.workloads.perfmodel import CalibrationError, WorkloadProfile


class TestCalibration:
    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_profiles_reproduce_table1_exactly(self, name):
        profile = profile_for(name)
        x86_ms, fpga_ms, arm_ms = PAPER_TABLE1_MS[name]
        assert profile.vanilla_x86_s * 1e3 == pytest.approx(x86_ms, rel=1e-9)
        assert profile.x86_fpga_s * 1e3 == pytest.approx(fpga_ms, rel=1e-9)
        assert profile.x86_arm_s * 1e3 == pytest.approx(arm_ms, rel=1e-9)

    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_kernel_names_match_table2(self, name):
        assert profile_for(name).kernel_name == PAPER_TABLE2[name][0]

    def test_arm_slowdowns_in_plausible_range(self):
        # ThunderX per-core is 2.5-4x slower on these kernels (Table 1).
        for name in PAPER_BENCHMARKS:
            slowdown = profile_for(name).arm_core_slowdown
            assert 2.0 < slowdown < 4.5

    def test_vanilla_arm_slower_than_x86(self):
        for name in PAPER_BENCHMARKS:
            profile = profile_for(name)
            assert profile.vanilla_arm_s > profile.vanilla_x86_s

    def test_all_decomposed_times_positive(self):
        for name in PAPER_BENCHMARKS:
            profile = profile_for(name)
            assert profile.host_work_s > 0
            assert profile.func_x86_s > 0
            assert profile.func_arm_s > 0
            assert profile.fpga_kernel_s > 0

    def test_with_calls_preserves_single_run_totals(self):
        base = profile_for("facedet.320")
        multi = base.with_calls(1)
        assert multi.vanilla_x86_s == pytest.approx(base.vanilla_x86_s)
        assert multi.x86_fpga_s == pytest.approx(base.x86_fpga_s)
        assert multi.x86_arm_s == pytest.approx(base.x86_arm_s)

    def test_with_calls_scales_linearly(self):
        base = profile_for("facedet.320")
        multi = base.with_calls(10)
        assert multi.vanilla_x86_s == pytest.approx(10 * base.vanilla_x86_s)

    def test_negative_decomposition_rejected(self):
        with pytest.raises(CalibrationError):
            WorkloadProfile(
                name="bad", kernel_name="K", loc=100,
                host_work_s=1.0, per_call_host_s=0.0,
                func_x86_s=-0.1, func_arm_s=1.0, fpga_kernel_s=1.0,
                bytes_to_fpga=0, bytes_from_fpga=0, migration_state_bytes=0,
            )

    def test_incapable_targets_raise(self):
        mg = profile_for("mg.B")
        with pytest.raises(CalibrationError):
            mg.fpga_call_s()
        with pytest.raises(CalibrationError):
            mg.arm_call_s()


class TestBFSProfiles:
    @pytest.mark.parametrize("nodes", sorted(PAPER_TABLE4_MS))
    def test_table4_sizes_reproduced(self, nodes):
        profile = profile_for(f"bfs.{nodes}")
        x86_ms, fpga_ms = PAPER_TABLE4_MS[nodes]
        assert profile.vanilla_x86_s * 1e3 == pytest.approx(x86_ms, rel=1e-6)
        assert profile.x86_fpga_s * 1e3 == pytest.approx(fpga_ms, rel=1e-6)

    def test_interpolated_sizes_grow_superlinearly(self):
        small = profile_for("bfs.1500")
        large = profile_for("bfs.4500")
        assert large.vanilla_x86_s > 3 * small.vanilla_x86_s

    def test_fpga_always_slower(self):
        for nodes in (1000, 2500, 5000):
            profile = profile_for(f"bfs.{nodes}")
            assert profile.x86_fpga_s > profile.vanilla_x86_s

    @pytest.mark.parametrize("name", ["bfs.0", "bfs.-5"])
    def test_non_positive_sizes_rejected(self, name):
        with pytest.raises(KeyError, match="bad BFS profile name"):
            profile_for(name)


class TestRegistry:
    def test_paper_benchmarks_all_constructible(self):
        for name in PAPER_BENCHMARKS:
            workload = create_workload(name)
            assert workload.name == name
            assert workload.profile.name == name

    def test_every_registered_workload_verifies(self):
        for name in available_workloads():
            workload = create_workload(name)
            inp = workload.generate_input(seed=0)
            output = workload.run_kernel(inp)
            assert workload.verify(inp, output), name

    def test_bfs_dynamic_names(self):
        workload = create_workload("bfs.250")
        assert workload.profile.name == "bfs.250"

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            create_workload("nope")
        with pytest.raises(KeyError):
            create_workload("bfs.xyz")
        with pytest.raises(KeyError):
            profile_for("nope")
        with pytest.raises(KeyError):
            profile_for("bfs.abc")

    def test_kernel_results_are_target_independent(self):
        # The transparent-migration invariant: re-running the pure
        # kernel gives identical output (no hidden global state).
        import numpy as np

        for name in ("digit.500", "facedet.320", "bfs.300"):
            workload = create_workload(name)
            inp = workload.generate_input(seed=1)
            first = workload.run_kernel(inp)
            second = workload.run_kernel(inp)
            if isinstance(first, np.ndarray):
                assert np.array_equal(first, second)
            else:
                assert first == second

    def test_paper_variant_validation(self):
        from repro.workloads import DigitRecognitionWorkload, FaceDetectionWorkload

        with pytest.raises(ValueError):
            FaceDetectionWorkload(100, 100)
        with pytest.raises(ValueError):
            DigitRecognitionWorkload(123)
