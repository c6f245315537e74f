"""Top-level types and cross-subsystem integration scenarios."""

import enum

import pytest

from repro import PAPER_BENCHMARKS, SystemMode, Target, build_system
from repro.core.runtime import spec_for
from repro.workloads import profile_for


class TestTarget:
    def test_flag_encoding_matches_paper(self):
        # Section 3.2: 0 = x86, 1 = ARM, 2 = FPGA.
        assert Target.X86 == 0
        assert Target.ARM == 1
        assert Target.FPGA == 2

    def test_isa_mapping(self):
        assert Target.X86.isa == "x86_64"
        assert Target.ARM.isa == "aarch64"
        with pytest.raises(ValueError):
            _ = Target.FPGA.isa

    def test_str(self):
        assert str(Target.FPGA) == "fpga"

    def test_text_matches_the_name_derived_enum(self):
        # Target.__str__ returns a precomputed label. Every way of
        # printing a target must give what an IntEnum whose __str__
        # lowercases the member name gives on this Python: an empty
        # format spec prints the label, and a non-empty one follows the
        # interpreter's IntEnum rule (the label on 3.10, the int after).
        class Reference(enum.IntEnum):
            X86 = 0
            ARM = 1
            FPGA = 2

            def __str__(self):
                return self.name.lower()

        for target in Target:
            ref = Reference(int(target))
            assert str(target) == str(ref) == target.name.lower()
            assert repr(target) == repr(ref).replace("Reference", "Target")
            assert f"{target}" == f"{ref}"
            assert "%s|%d|%r" % (target, target, target) == (
                "%s|%d|%r" % (ref, ref, ref)
            ).replace("Reference", "Target")
            for spec in ("", ">6", "<5", "^7", "d", "03d"):
                assert format(target, spec) == format(ref, spec)
            assert f"{target!s:>6}" == f"{ref!s:>6}"


class TestSpecFor:
    def test_default_functions(self):
        spec = spec_for(PAPER_BENCHMARKS)
        assert spec.application("cg.A").functions[0].name == "conj_grad"
        assert spec.application("digit.500").functions[0].kernel_name == "KNL_HW_DR500"


class TestEndToEnd:
    def test_full_scenario_reconfigure_then_migrate_to_fpga(self):
        """The paper's core loop: load spike -> ARM while the FPGA
        loads -> FPGA once resident -> back to x86 when the spike ends."""
        runtime = build_system(["digit.2000"], seed=0)
        # 20 background processes: the app's host work (~0.25 s under
        # this load) ends before the ~0.34 s XCLBIN load does, so the
        # first decision sees the kernel absent.
        load = runtime.launch_background(20, work_s=30.0)
        # First app under load: kernel absent -> ARM + background reconfig.
        first = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK, delay_s=0.01)
        )
        assert first.targets == [Target.ARM]
        # Second app: the XCLBIN finished loading during the first run.
        second = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        assert second.targets == [Target.FPGA]
        load.stop()
        runtime.platform.run()
        # Spike over: a fresh run stays on x86... but digit.2000 has
        # FPGA_THR = 0, so with the kernel resident it keeps using it.
        third = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        assert third.targets == [Target.FPGA]
        assert third.elapsed_s < first.elapsed_s

    def test_cg_under_load_prefers_arm_over_fpga(self):
        # Table 2: CG-A's ARM threshold (24-25) is below its FPGA
        # threshold (30-31), so Algorithm 2 lines 25-31 pick ARM even
        # with the kernel resident.
        runtime = build_system(["cg.A"], seed=0)
        runtime.platform.sim.run_until_event(runtime.preload_fpga())
        load = runtime.launch_background(60, work_s=60.0)
        record = runtime.platform.sim.run_until_event(
            runtime.launch("cg.A", mode=SystemMode.XAR_TREK, delay_s=0.01)
        )
        load.stop()
        assert record.targets == [Target.ARM]

    def test_mixed_tenants_share_all_three_targets(self):
        runtime = build_system(list(PAPER_BENCHMARKS), seed=0)
        load = runtime.launch_background(50, work_s=120.0)
        events = [
            runtime.launch(name, seed=i, mode=SystemMode.XAR_TREK, delay_s=0.05)
            for i, name in enumerate(PAPER_BENCHMARKS * 2)
        ]
        records = runtime.wait_all(events)
        load.stop()
        used = {t for rec in records for t in rec.targets}
        assert Target.FPGA in used or Target.ARM in used
        # Everything completed and was accounted.
        assert len(runtime.records) == len(records)
        assert runtime.server.stats.requests == len(records)

    def test_migration_transparency_under_full_system(self):
        """Functional outputs are identical whichever system ran the app."""
        outputs = {}
        for mode in (SystemMode.VANILLA_X86, SystemMode.ALWAYS_FPGA, SystemMode.XAR_TREK):
            runtime = build_system(["digit.500"], seed=0)
            record = runtime.platform.sim.run_until_event(
                runtime.launch("digit.500", seed=7, mode=mode, functional=True)
            )
            outputs[mode] = record.verified
        assert all(outputs.values())

    def test_throughput_app_uses_fpga_when_hot(self):
        runtime = build_system(["facedet.320"], seed=0)
        load = runtime.launch_background(40, work_s=60.0)
        record = runtime.platform.sim.run_until_event(
            runtime.launch(
                "facedet.320",
                mode=SystemMode.XAR_TREK,
                calls=100,
                deadline_s=15.0,
                delay_s=0.01,
            )
        )
        load.stop()
        fpga_calls = sum(1 for t in record.targets if t is Target.FPGA)
        assert fpga_calls > record.calls_completed * 0.8

    def test_scheduling_overhead_is_small(self):
        # The client/server hop costs ~100 us per call: invisible at
        # workload scale (paper claims negligible scheduler overhead).
        runtime = build_system(["digit.2000"], seed=0)
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.2000", mode=SystemMode.XAR_TREK)
        )
        profile = profile_for("digit.2000")
        # Whatever target served it, the end-to-end time never exceeds
        # the corresponding scenario time by more than the (~100 us)
        # client/server hop plus noise.
        scenario = {
            Target.X86: profile.vanilla_x86_s,
            Target.ARM: profile.x86_arm_s,
            Target.FPGA: profile.x86_fpga_s,
        }[record.targets[0]]
        assert record.elapsed_s < scenario * 1.02
