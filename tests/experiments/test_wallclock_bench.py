"""Same-seed replay of the contract scenarios.

``test_bench_contract.py`` pins every scenario's seed-0 checksum to a
value committed from another process. These tests cover a seed nothing
commits: two runs in one process must give identical checksum lines,
and ``scale_stress``'s workload must really drive the migration and
DSM paths it stands for.
"""

import pytest

from tests.experiments.contract import SCENARIOS, scale_workload


class TestReplayDeterminism:
    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_same_seed_same_outputs(self, name):
        # The contract exists to prove perf work did not change
        # behaviour, so its scenarios must be seed-deterministic.
        first = SCENARIOS[name](3)
        second = SCENARIOS[name](3)
        assert first
        assert first == second


class TestScaleStress:
    def test_quick_run_is_deterministic_and_migration_heavy(self):
        # A quarter of the scenario's 1000 clients over 25 background
        # processes: replay gives identical records and clock, and the
        # run exercises the batched-DSM/migration hot paths.
        first_runtime, first = scale_workload(0, 250, 25)
        second_runtime, second = scale_workload(0, 250, 25)
        assert len(first) == 250
        assert all(rec.finished for rec in first)
        assert first == second
        first_sim = first_runtime.platform.sim
        second_sim = second_runtime.platform.sim
        assert first_sim.events_processed == second_sim.events_processed
        assert first_sim.now == second_sim.now
        assert sum(rec.migrations for rec in first) > 0
        assert first_runtime.dsm.stats.page_transfers > 0
        snapshot = first_runtime.load_snapshot()
        assert snapshot["x86"]["max"] >= 25
        assert snapshot["x86"]["time_weighted_mean"] > 0
