"""Tests for the experiment harness and cheap experiment runs.

These run the real experiment code at reduced scale (few repeats, small
sets) and assert the *paper's qualitative shapes*, not absolute
numbers — the full-scale versions live in benchmarks/.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SystemMode
from repro.experiments import (
    figure6_throughput,
    figure9_profitability,
    fixed_workload_sweep,
    measure_scenario,
    measure_throughput,
    run_application_set,
    sample_application_set,
    table1_execution_times,
    table2_thresholds,
    table4_bfs,
)
from repro.experiments.periodic import WaveLoad
from repro.core import build_system
from repro.workloads import PAPER_BENCHMARKS, PAPER_TABLE1_MS, PAPER_TABLE2


class TestHarness:
    def test_sampling_is_uniform_over_pool_and_deterministic(self):
        rng = np.random.default_rng(0)
        sets = [sample_application_set(rng, 5) for _ in range(50)]
        names = {name for apps in sets for name in apps}
        assert names <= set(PAPER_BENCHMARKS)
        assert len(names) == len(PAPER_BENCHMARKS)  # all appear eventually
        rng2 = np.random.default_rng(0)
        assert sample_application_set(rng2, 5) == sets[0]

    def test_run_application_set_collects_all_records(self):
        apps = ("digit.500", "facedet.320", "digit.500")
        outcome = run_application_set(apps, SystemMode.VANILLA_X86, seed=1)
        assert len(outcome.records) == 3
        assert outcome.average_s > 0
        assert outcome.max_s >= outcome.average_s
        assert outcome.target_counts() == {"x86": 3}

    def test_an_empty_set_is_refused_before_anything_is_built(self, monkeypatch):
        import repro.experiments.harness as harness

        def no_build(*args, **kwargs):
            raise AssertionError("built a deployment for an empty set")

        monkeypatch.setattr(harness, "build_system", no_build)
        with pytest.raises(ValueError, match="at least one application"):
            run_application_set([], SystemMode.XAR_TREK)
        with pytest.raises(ValueError, match="at least one application"):
            run_application_set((), SystemMode.VANILLA_X86, background=10)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=1, max_size=40))
    def test_average_and_max_are_numpys(self, elapsed):
        from repro.core.application import RunRecord
        from repro.experiments.harness import SetOutcome

        outcome = SetOutcome(
            mode=SystemMode.VANILLA_X86,
            apps=("digit.500",) * len(elapsed),
            records=[
                RunRecord(app="digit.500", mode=SystemMode.VANILLA_X86, seed=0,
                          start_s=1.0, end_s=1.0 + value)
                for value in elapsed
            ],
        )
        values = [rec.elapsed_s for rec in outcome.records]
        assert outcome.average_s == float(np.mean(values))
        assert outcome.max_s == float(np.max(values))
        assert type(outcome.average_s) is float and type(outcome.max_s) is float

    def test_the_set_primitive_takes_no_snapshot(self, monkeypatch):
        from repro.experiments.sweep import Cell, run_cell
        from repro.metrics import MetricsRegistry

        taken = []
        snapshot = MetricsRegistry.snapshot

        def counting(self):
            taken.append(self)
            return snapshot(self)

        monkeypatch.setattr(MetricsRegistry, "snapshot", counting)
        outcome = run_application_set(
            ("digit.500", "cg.A"), SystemMode.XAR_TREK, background=10, seed=2
        )
        assert outcome.metrics is None and taken == []
        # The sweep's cells are its readers: one snapshot each.
        cell = Cell(kind="set", apps=("digit.500", "cg.A"),
                    mode=SystemMode.XAR_TREK, seed=2, background=10)
        result = run_cell(cell)
        assert len(taken) == 1
        assert result.outcome.metrics["metrics"]

    def test_cell_results_and_metrics_exports_keep_their_bytes(self):
        # Pinned from the code that took the snapshot inside
        # run_application_set: the readers that now take it must export
        # the same bytes.
        import hashlib

        from repro.experiments.observability import high_load_metrics
        from repro.experiments.sweep import cells_for_sets, results_checksum, run_cell

        modes = (SystemMode.VANILLA_X86, SystemMode.ALWAYS_FPGA, SystemMode.XAR_TREK)
        cells = cells_for_sets(4, modes, background=30, repeats=2, seed=3)
        assert results_checksum([run_cell(c) for c in cells]) == "cadbbbabdbe10097"
        run = high_load_metrics(set_size=6, total_processes=60, seed=0)
        assert hashlib.sha256(run.to_json().encode()).hexdigest() == (
            "05747541f2426a719b1ad4918a3b215780d88072c43dbf053031b72116fa2ac5"
        )
        assert hashlib.sha256(run.to_csv().encode()).hexdigest() == (
            "b62c10687f0a7eb8d530b82d88108b76ea5744a26a7cbb1492a53a85cb0653d4"
        )

    def test_same_seed_same_results(self):
        apps = ("digit.500", "cg.A")
        first = run_application_set(apps, SystemMode.XAR_TREK, background=20, seed=3)
        second = run_application_set(apps, SystemMode.XAR_TREK, background=20, seed=3)
        assert first.average_s == pytest.approx(second.average_s)


class TestTable1:
    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_all_scenarios_within_2pct_of_paper(self, name):
        paper_x86, paper_fpga, paper_arm = PAPER_TABLE1_MS[name]
        assert measure_scenario(name, "x86") * 1e3 == pytest.approx(paper_x86, rel=0.02)
        assert measure_scenario(name, "fpga") * 1e3 == pytest.approx(paper_fpga, rel=0.02)
        assert measure_scenario(name, "arm") * 1e3 == pytest.approx(paper_arm, rel=0.02)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            measure_scenario("cg.A", "gpu")

    def test_result_table_built(self):
        result = table1_execution_times()
        assert len(result.rows) == 5


class TestTable2Shapes:
    def test_matches_paper_structure(self):
        result = table2_thresholds()
        by_name = {row[0]: row for row in result.rows}
        for name, (_k, paper_fpga, paper_arm) in PAPER_TABLE2.items():
            _, _, fpga, arm, _, _ = by_name[name]
            # Zero exactly where the paper has zero.
            assert (fpga == 0) == (paper_fpga == 0)
            # CG-A is the only benchmark preferring ARM over FPGA.
            assert (arm < fpga) == (paper_arm < paper_fpga)


class TestTable4:
    def test_x86_wins_by_orders_of_magnitude(self):
        result = table4_bfs(node_counts=(1000, 3000, 5000), run_functional=True)
        for row in result.rows:
            _nodes, x86_ms, fpga_ms, _px, _pf, ok = row
            assert fpga_ms > 10 * x86_ms
            assert ok is True


class TestFigureShapes:
    def test_low_load_xar_trek_tracks_x86(self):
        result = fixed_workload_sweep(
            "mini-fig3", set_sizes=(2, 4), total_processes=None,
            modes=(SystemMode.VANILLA_X86, SystemMode.XAR_TREK),
            repeats=3, seed=0,
        )
        for row in result.rows:
            _size, x86_ms, _std1, xar_ms, _std2 = row
            # Xar-Trek rarely migrates at low load: within 2% of x86.
            assert xar_ms == pytest.approx(x86_ms, rel=0.02)

    def test_medium_load_xar_trek_beats_x86(self):
        result = fixed_workload_sweep(
            "mini-fig4", set_sizes=(5, 10), total_processes=60,
            modes=(SystemMode.VANILLA_X86, SystemMode.XAR_TREK),
            repeats=3, seed=0,
        )
        for row in result.rows:
            _size, x86_ms, _std1, xar_ms, _std2 = row
            assert xar_ms < x86_ms

    def test_throughput_gains_appear_beyond_the_threshold(self):
        quiet = measure_throughput(SystemMode.XAR_TREK, background=0, n_images=200, window_s=20.0)
        x86_quiet = measure_throughput(SystemMode.VANILLA_X86, background=0, n_images=200, window_s=20.0)
        busy = measure_throughput(SystemMode.XAR_TREK, background=50, n_images=200, window_s=20.0)
        x86_busy = measure_throughput(SystemMode.VANILLA_X86, background=50, n_images=200, window_s=20.0)
        assert quiet == pytest.approx(x86_quiet, rel=0.05)  # no migration when cool
        assert busy > 2 * x86_busy  # paper: ~4x beyond 25 processes

    def test_figure6_structure(self):
        result = figure6_throughput(background_loads=(0, 30), n_images=100, window_s=10.0)
        assert len(result.rows) == 2
        assert len(result.headers) == 4

    def test_profitability_declines_with_cg_share(self):
        lo = figure9_profitability(percentages=(0,), set_size=4, total_processes=40)
        hi = figure9_profitability(percentages=(100,), set_size=4, total_processes=40)
        gain_lo = lo.rows[0][-1]
        gain_hi = hi.rows[0][-1]
        assert gain_lo > gain_hi

    def test_profitability_validates_percentage(self):
        from repro.experiments import profitability_point

        with pytest.raises(ValueError):
            profitability_point(150)


class TestWaveLoad:
    def test_triangle_targets(self):
        runtime = build_system(["facedet.320"])
        wave = WaveLoad(runtime, low=10, high=110, period_s=100.0, duration_s=100.0)
        assert wave.target_at(0) == 10
        assert wave.target_at(50) == 110
        assert wave.target_at(100) == 10
        assert wave.target_at(25) == 60
        wave.stop()

    def test_wave_actually_modulates_x86_load(self):
        runtime = build_system(["facedet.320"])
        wave = WaveLoad(
            runtime, low=2, high=30, period_s=40.0, duration_s=40.0,
            step_s=2.0, work_s=1.0,
        )
        runtime.platform.sim.run(until=20.0)
        peak_load = runtime.platform.x86_load
        assert peak_load >= 20
        wave.stop()

    def test_bad_bounds_rejected(self):
        runtime = build_system(["facedet.320"])
        with pytest.raises(ValueError):
            WaveLoad(runtime, low=5, high=2, period_s=10, duration_s=10)
