"""Unit tests for the Popcorn runtime (thread migration on the platform)."""

import pytest

from repro.hardware import paper_testbed
from repro.popcorn import (
    DSM,
    CType,
    ISAImage,
    LivenessMetadata,
    MachineState,
    MigrationError,
    MigrationPoint,
    MultiISABinary,
    PAGE_SIZE,
    PopcornRuntime,
    StateTransformer,
    TransformMemo,
    allocate_locations,
)
from repro.types import Target


def make_runtime(with_dsm=False, isas=("x86_64", "aarch64")):
    platform = paper_testbed()
    live_vars = allocate_locations(
        [("i", CType.I64), ("x", CType.F64), ("p", CType.PTR)]
    )
    metadata = LivenessMetadata([MigrationPoint(1, "kernel", 0, tuple(live_vars))])
    dsm = None
    if with_dsm:
        dsm = DSM(platform.sim, platform.ethernet)
        dsm.add_node("x86")
        dsm.add_node("arm")
    runtime = PopcornRuntime(platform, TransformMemo(metadata), dsm=dsm)
    images = {
        isa: ISAImage(isa, 100_000, 10_000, 2_000) for isa in isas
    }
    binary = MultiISABinary("app", images=images)
    transformer = StateTransformer(metadata)
    point = metadata.point(1)
    frame = transformer.build_frame(
        "kernel", point, {"i": 5, "x": 2.5, "p": 0xDEAD}, "x86_64"
    )
    state = MachineState(isa="x86_64", frames=[frame])
    return platform, runtime, binary, state


class TestSpawn:
    def test_spawn_assigns_ids(self):
        _platform, runtime, binary, state = make_runtime()
        t1 = runtime.spawn_thread(binary, state.copy())
        t2 = runtime.spawn_thread(binary, state.copy())
        assert t1.thread_id != t2.thread_id

    def test_spawn_on_fpga_rejected(self):
        _platform, runtime, binary, state = make_runtime()
        with pytest.raises(MigrationError):
            runtime.spawn_thread(binary, state, Target.FPGA)

    def test_state_isa_must_match_node(self):
        _platform, runtime, binary, state = make_runtime()
        with pytest.raises(MigrationError):
            runtime.spawn_thread(binary, state, Target.ARM)

    def test_binary_must_support_state_isa(self):
        _platform, runtime, binary, state = make_runtime(isas=("aarch64",))
        with pytest.raises(MigrationError):
            runtime.spawn_thread(binary, state)


class TestMigrate:
    def test_migration_moves_thread_and_transforms_state(self):
        platform, runtime, binary, state = make_runtime()
        thread = runtime.spawn_thread(binary, state)
        done = runtime.migrate(thread, Target.ARM)
        platform.sim.run_until_event(done)
        assert thread.node is Target.ARM
        assert thread.isa == "aarch64"
        assert thread.migration_count == 1
        assert platform.now > 0  # consumed simulated time

    def test_round_trip_restores_layout(self):
        platform, runtime, binary, state = make_runtime()
        original = state.copy()
        thread = runtime.spawn_thread(binary, state)
        platform.sim.run_until_event(runtime.migrate(thread, Target.ARM))
        platform.sim.run_until_event(runtime.migrate(thread, Target.X86))
        assert thread.isa == "x86_64"
        assert thread.state.frames[0].registers == original.frames[0].registers
        assert thread.state.frames[0].stack == original.frames[0].stack

    def test_migrate_to_current_node_is_instant(self):
        platform, runtime, binary, state = make_runtime()
        thread = runtime.spawn_thread(binary, state)
        done = runtime.migrate(thread, Target.X86)
        platform.sim.run_until_event(done)
        assert platform.now == 0.0
        assert thread.migration_count == 0

    def test_migrate_to_fpga_rejected(self):
        _platform, runtime, binary, state = make_runtime()
        thread = runtime.spawn_thread(binary, state)
        with pytest.raises(MigrationError):
            runtime.migrate(thread, Target.FPGA)

    def test_migration_to_unsupported_isa_rejected(self):
        platform, runtime, _binary, state = make_runtime()
        x86_only = MultiISABinary(
            "x86only", images={"x86_64": ISAImage("x86_64", 1000, 100)}
        )
        thread = runtime.spawn_thread(x86_only, state)
        with pytest.raises(MigrationError):
            runtime.migrate(thread, Target.ARM)

    def test_dirty_pages_move_through_dsm(self):
        platform, runtime, binary, state = make_runtime(with_dsm=True)
        thread = runtime.spawn_thread(binary, state)
        pages = range(0x9000, 0x9000 + 8 * PAGE_SIZE, PAGE_SIZE)
        runtime.dsm.seed_pages("x86", pages)
        thread.dirty_pages = pages
        platform.sim.run_until_event(runtime.migrate(thread, Target.ARM))
        assert runtime.dsm.stats.page_transfers == 8
        assert not thread.dirty_pages  # consumed by the migration

    def test_migration_cost_estimate_is_lower_bound(self):
        platform, runtime, binary, state = make_runtime()
        estimate = runtime.migration_overhead_seconds(state)
        thread = runtime.spawn_thread(binary, state)
        platform.sim.run_until_event(runtime.migrate(thread, Target.ARM))
        assert platform.now >= estimate * 0.99

    def test_migration_consumes_source_cpu(self):
        platform, runtime, binary, state = make_runtime()
        thread = runtime.spawn_thread(binary, state)
        platform.sim.run_until_event(runtime.migrate(thread, Target.ARM))
        assert platform.x86.cpu.utilization() > 0


class TestSharedTransforms:
    """A compilation owns its applications' transform memos, so only its
    first deployment computes a state transformation."""

    def _forced_arm_run(self, result):
        import math

        from repro.core import SystemMode, XarTrekRuntime

        runtime = XarTrekRuntime(result, platform=paper_testbed())
        entry = runtime.server.thresholds.entry("digit.500")
        entry.fpga_threshold = math.inf
        entry.arm_threshold = 0.0
        record = runtime.platform.sim.run_until_event(
            runtime.launch("digit.500", mode=SystemMode.XAR_TREK, calls=2)
        )
        assert record.targets == [Target.ARM, Target.ARM]
        return record

    def test_a_second_deployment_transforms_nothing(self, monkeypatch):
        from repro.compiler.pipeline import XarTrekCompiler
        from repro.core.runtime import spec_for

        calls = []
        transform = StateTransformer.transform

        def counting(self, state, to_isa):
            calls.append(to_isa)
            return transform(self, state, to_isa)

        monkeypatch.setattr(StateTransformer, "transform", counting)
        result = XarTrekCompiler().compile(spec_for(["digit.500"]))
        first = self._forced_arm_run(result)
        # x86 -> ARM once; the way back reuses the round trip.
        assert calls == ["aarch64"]
        second = self._forced_arm_run(result)
        assert calls == ["aarch64"]
        assert second.migrations == first.migrations == 4
        assert (second.start_s, second.end_s) == (first.start_s, first.end_s)
        assert set(result.transforms) == {"digit.500"}
