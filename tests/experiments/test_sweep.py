"""The parallel sweep executor: determinism, caching, seed derivation.

The executor's contract is that *how* cells run (serial, process pool,
cache) never changes *what* they produce — these tests pin that down
with byte-level checksums, plus the satellite regressions: seed
collisions, prebuilt-runtime validation, and the persistent worker
pool (whose absence once made a parallel sweep *slower* than serial).
"""

import os
import pickle
import time

import pytest

from repro.core import SystemMode, build_system
from repro.experiments import (
    arm_capacity_sensitivity,
    average_execution_time,
    background_duty_sensitivity,
    figure6_throughput,
    fixed_workload_sweep,
    reconfig_time_sensitivity,
    run_application_set,
    table1_execution_times,
    table3_load_classes,
)
from repro.experiments.sweep import (
    Cell,
    SweepCache,
    cells_for_sets,
    cells_for_throughput,
    derive_seeds,
    platform_config_hash,
    resolve_jobs,
    results_checksum,
    run_cell,
    run_cells,
    shutdown_pool,
    sweep_metrics,
)
from repro.experiments import sweep as sweep_module
from repro.metrics import MetricsRegistry

_MODES = (SystemMode.VANILLA_X86, SystemMode.XAR_TREK)


def _mini_cells(repeats=2, background=30, seed=0):
    return cells_for_sets(3, _MODES, background=background, repeats=repeats, seed=seed)


def _force_pool_on_tiny_grids(monkeypatch):
    """Disable the small-grid serial fallback, so a mini grid still
    goes through the process pool."""
    monkeypatch.setattr(sweep_module, "_MIN_CELLS_PER_WORKER", 0)


def _parallel_runs() -> int:
    family = sweep_metrics().get("sweep_runs_total")
    return 0 if family is None else int(family.as_dict().get(("parallel",), 0))


class TestSeedDerivation:
    def test_no_collisions_across_roots_and_indices(self):
        # The old arithmetic (seed * 100 + repeat) collides as soon as
        # repeats >= 100: (0, 100) == (1, 0). SeedSequence.spawn must
        # keep every (root, index) pair distinct.
        seen = set()
        for root in range(4):
            seen.update(derive_seeds(root, 120))
        assert len(seen) == 4 * 120

    def test_deterministic_per_root(self):
        assert derive_seeds(7, 5) == derive_seeds(7, 5)
        assert derive_seeds(7, 5) != derive_seeds(8, 5)

    def test_cells_share_sets_and_seeds_across_modes(self):
        cells = _mini_cells(repeats=3)
        by_repeat = [cells[i : i + len(_MODES)] for i in range(0, len(cells), len(_MODES))]
        for group in by_repeat:
            assert len({c.apps for c in group}) == 1
            assert len({c.seed for c in group}) == 1
            assert {c.mode for c in group} == set(_MODES)


class TestRunApplicationSet:
    def test_prebuilt_runtime_missing_app_raises(self):
        runtime = build_system(["digit.500"], seed=0)
        with pytest.raises(ValueError, match="lacks applications"):
            run_application_set(
                ("digit.500", "cg.A"), SystemMode.VANILLA_X86, runtime=runtime
            )

    def test_prebuilt_runtime_matches_fresh_build(self):
        # With the same seed, passing a prebuilt runtime is documented
        # to be equivalent to letting run_application_set build one.
        apps = ("digit.500", "cg.A")
        fresh = run_application_set(apps, SystemMode.XAR_TREK, background=20, seed=5)
        prebuilt = run_application_set(
            apps, SystemMode.XAR_TREK, background=20, seed=5,
            runtime=build_system(sorted(set(apps)), seed=5),
        )
        assert fresh.average_s == prebuilt.average_s
        assert fresh.metrics == prebuilt.metrics


class TestSerialParallelEquivalence:
    @pytest.fixture(autouse=True)
    def _force_pool(self, monkeypatch):
        # These tests exist to exercise the process-pool path.
        _force_pool_on_tiny_grids(monkeypatch)

    def test_jobs2_byte_identical_results(self):
        cells = _mini_cells()
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2)
        assert results_checksum(serial.results) == results_checksum(parallel.results)
        for a, b in zip(serial.results, parallel.results):
            assert a.outcome.average_s == b.outcome.average_s
            assert a.outcome.metrics == b.outcome.metrics

    def test_figure5_shape_identical_under_jobs2(self):
        kwargs = dict(
            set_sizes=(5,), total_processes=120, modes=_MODES, repeats=2, seed=0
        )
        serial = fixed_workload_sweep("mini-fig5", **kwargs, jobs=1)
        parallel = fixed_workload_sweep("mini-fig5", **kwargs, jobs=2)
        assert serial.rows == parallel.rows

    def test_table1_and_table3_identical_under_jobs2(self):
        assert table1_execution_times(jobs=1).rows == table1_execution_times(jobs=2).rows
        assert table3_load_classes().to_text() == table3_load_classes().to_text()

    def test_stats_account_for_every_cell(self):
        cells = _mini_cells()
        outcome = run_cells(cells, jobs=2)
        assert outcome.stats.cells_total == len(cells)
        assert outcome.stats.executed == len(cells)
        assert outcome.stats.jobs == 2
        assert outcome.stats.workers == 2
        assert outcome.stats.mode == "parallel"
        assert 0.0 < outcome.stats.worker_utilization <= 1.0


#: Every run_cells caller not covered above (Fig. 3-5 and Table 1 are),
#: each at a tiny size: jobs -> rows, or the (mean, std) pair.
_RUN_CELLS_CALLERS = {
    "average_execution_time": lambda jobs: average_execution_time(
        3, SystemMode.XAR_TREK, background=20, repeats=2, jobs=jobs
    ),
    "figure6_throughput": lambda jobs: figure6_throughput(
        background_loads=(0, 25), n_images=20, window_s=2.0, jobs=jobs
    ).rows,
    "background_duty_sensitivity": lambda jobs: background_duty_sensitivity(
        duties=(0.5, 1.0), set_size=3, total_processes=20, repeats=1, jobs=jobs
    ).rows,
    "arm_capacity_sensitivity": lambda jobs: arm_capacity_sensitivity(
        arm_cores=(12, 24), set_size=3, total_processes=20, repeats=1, jobs=jobs
    ).rows,
    "reconfig_time_sensitivity": lambda jobs: reconfig_time_sensitivity(
        base_seconds=(0.5, 2.0), background=10, window_s=2.0, jobs=jobs
    ).rows,
}


@pytest.mark.parametrize("caller", sorted(_RUN_CELLS_CALLERS))
def test_run_cells_caller_is_identical_through_the_pool(monkeypatch, caller):
    _force_pool_on_tiny_grids(monkeypatch)
    run = _RUN_CELLS_CALLERS[caller]
    serial = run(1)
    pooled_before = _parallel_runs()
    assert run(2) == serial
    assert _parallel_runs() > pooled_before


class TestSerialFallback:
    """A multi-job sweep on a small grid must not pay for the pool.

    The committed bench once recorded parallel_speedup 0.66 — i.e. a
    slowdown — because worker startup dominated a 27-cell grid of
    tens-of-milliseconds cells. Below the cell threshold the executor
    now runs serially and says so in its stats.
    """

    def test_small_grid_falls_back_to_serial(self):
        outcome = run_cells(_mini_cells(), jobs=2)
        assert outcome.stats.mode == "serial"
        assert outcome.stats.jobs == 2  # requested, not used
        assert outcome.stats.workers == 1
        assert outcome.stats.executed == outcome.stats.cells_total

    def test_fallback_is_byte_identical_to_pool(self, monkeypatch):
        cells = _mini_cells()
        fallback = run_cells(cells, jobs=2)
        _force_pool_on_tiny_grids(monkeypatch)
        pooled = run_cells(cells, jobs=2)
        assert fallback.stats.mode == "serial"
        assert pooled.stats.mode == "parallel"
        assert results_checksum(fallback.results) == results_checksum(pooled.results)

    def test_mode_lands_in_sweep_metrics(self):
        registry = MetricsRegistry()
        run_cells(_mini_cells(repeats=1), jobs=2, metrics=registry)
        counts = registry.get("sweep_runs_total").as_dict()
        assert counts == {("serial",): 1}


class TestPersistentPool:
    """The worker pool survives across run_cells calls.

    Spinning up a ProcessPoolExecutor per sweep is what lost to serial
    at 27 cells (parallel_speedup 0.92 in the committed bench): worker
    spawn plus a cold per-worker compile cache cost more than the
    grid. The pool is now module-global — reused, grown on demand,
    warmed by a first parallel pass, and torn down explicitly.
    """

    @pytest.fixture(autouse=True)
    def _clean_pool(self, monkeypatch):
        _force_pool_on_tiny_grids(monkeypatch)
        shutdown_pool()
        yield
        shutdown_pool()

    def test_pool_is_reused_across_runs(self):
        cells = _mini_cells(repeats=1)
        run_cells(cells, jobs=2)
        first = sweep_module._POOL
        assert first is not None
        run_cells(cells, jobs=2)
        assert sweep_module._POOL is first

    def test_pool_grows_but_never_shrinks(self):
        cells = _mini_cells(repeats=2)
        run_cells(cells, jobs=2)
        assert sweep_module._POOL_WORKERS == 2
        grown = run_cells(_mini_cells(repeats=3), jobs=3)
        assert sweep_module._POOL_WORKERS == 3
        assert grown.stats.workers == 3
        shrunk_request = run_cells(cells, jobs=2)
        assert sweep_module._POOL_WORKERS == 3  # kept, not rebuilt
        assert shrunk_request.stats.workers == 2

    def test_warm_pool_prespawns_and_reports_workers(self):
        # The first parallel pass spawns the pool that later passes
        # reuse warm.
        assert sweep_module._POOL is None
        assert run_cells(_mini_cells(repeats=1), jobs=2).stats.workers == 2
        assert sweep_module._POOL is not None
        assert sweep_module._POOL_WORKERS == 2
        # Serial resolutions never pay for a pool.
        shutdown_pool()
        assert run_cells(_mini_cells(repeats=1), jobs=1).stats.workers == 1
        assert sweep_module._POOL is None

    def test_shutdown_is_idempotent(self):
        run_cells(_mini_cells(repeats=1), jobs=2)
        shutdown_pool()
        assert sweep_module._POOL is None
        shutdown_pool()
        assert sweep_module._POOL is None

    def test_pooled_results_identical_to_serial(self):
        cells = _mini_cells()
        serial = run_cells(cells, jobs=1)
        run_cells(cells, jobs=2)  # spawns the pool; the next pass reuses it
        pooled = run_cells(cells, jobs=2)
        assert pooled.stats.mode == "parallel"
        assert results_checksum(serial.results) == results_checksum(pooled.results)


def _fig3_to_5_grid(repeats=4):
    """The Fig. 3-5 grid with all four systems: set sizes 5-25 at 0, 60
    and 120 total processes (240 cells at four repeats)."""
    modes = tuple(SystemMode)
    return [
        cell
        for total in (0, 60, 120)
        for size in (5, 10, 15, 20, 25)
        for cell in cells_for_sets(
            size, modes, background=max(0, total - size), repeats=repeats
        )
    ]


@pytest.mark.wallclock
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="parallel speedup needs at least 2 cores",
)
class TestParallelSpeedup:
    def test_warm_pool_beats_serial_on_a_real_grid(self):
        # The regression the persistent pool exists to fix: with the
        # pool spawned and its workers' compile caches warm, a
        # parallel sweep of the paper's Fig. 3-5 grid must actually be
        # faster than running the same cells serially. (A 28-cell grid
        # was too small for the pool to win on two cores.)
        cells = _fig3_to_5_grid()
        assert len(cells) == 240
        serial_start = time.perf_counter()
        serial = run_cells(cells, jobs=1)
        serial_wall = time.perf_counter() - serial_start
        # An untimed first parallel pass spawns and warms the pool.
        run_cells(_fig3_to_5_grid(repeats=1), jobs=2)
        parallel_start = time.perf_counter()
        parallel = run_cells(cells, jobs=2)
        parallel_wall = time.perf_counter() - parallel_start
        assert parallel.stats.mode == "parallel"
        assert results_checksum(serial.results) == results_checksum(parallel.results)
        assert serial_wall / parallel_wall > 1.0, (
            f"parallel sweep lost to serial again: "
            f"{serial_wall:.3f}s serial vs {parallel_wall:.3f}s parallel"
        )


class TestCache:
    def test_second_run_hits_for_every_cell(self, tmp_path):
        cells = _mini_cells()
        cache = SweepCache(tmp_path)
        cold = run_cells(cells, cache=cache)
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses == len(cells)
        warm = run_cells(cells, cache=cache)
        assert warm.stats.cache_hits == len(cells)
        assert warm.stats.cache_misses == 0
        assert all(r.cached for r in warm.results)
        assert results_checksum(warm.results) == results_checksum(cold.results)

    def test_dirty_fingerprint_misses(self, tmp_path):
        cells = _mini_cells(repeats=1)
        cache = SweepCache(tmp_path)
        run_cells(cells, cache=cache)
        dirty = SweepCache(tmp_path, fingerprint="other-version/other-platform")
        again = run_cells(cells, cache=dirty)
        assert again.stats.cache_hits == 0
        assert again.stats.cache_misses == len(cells)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cells = _mini_cells(repeats=1)
        cache = SweepCache(tmp_path)
        run_cells(cells, cache=cache)
        for path in tmp_path.rglob("*.pkl"):
            path.write_bytes(b"not a pickle")
        recovered = run_cells(cells, cache=cache)
        assert recovered.stats.cache_hits == 0
        # The corrupt entries were rewritten with good payloads.
        assert run_cells(cells, cache=cache).stats.cache_hits == len(cells)

    def test_key_covers_spec_version_and_platform(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = _mini_cells(repeats=1)[0]
        other_mode = Cell(**{**cell.__dict__, "mode": SystemMode.ALWAYS_FPGA})
        assert cache.key_for(cell) != cache.key_for(other_mode)
        assert len(platform_config_hash()) == 16
        assert "/" in SweepCache.default_fingerprint()


class TestCellPrimitives:
    def test_cells_are_picklable(self):
        for cell in _mini_cells(repeats=1) + cells_for_throughput(
            "facedet.320", _MODES, (0,), n_images=10, window_s=2.0
        ):
            clone = pickle.loads(pickle.dumps(cell))
            assert clone == cell

    def test_unknown_kind_rejected(self):
        bad = Cell(kind="nope", apps=("cg.A",), mode=SystemMode.XAR_TREK, seed=0)
        with pytest.raises(ValueError, match="unknown cell kind"):
            run_cell(bad)

    def test_throughput_cell_matches_scalar_window(self):
        cell = cells_for_throughput(
            "facedet.320", (SystemMode.VANILLA_X86,), (0,), n_images=50, window_s=5.0
        )[0]
        result = run_cell(cell)
        assert result.value > 0
        assert result.events > 0
        assert result.sim_seconds > 0


class TestJobsResolution:
    def test_explicit_and_auto(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs("4") == 4
        assert resolve_jobs("auto") >= 1
        assert resolve_jobs(0) >= 1

    def test_environment_sets_neither_jobs_nor_threshold(self, monkeypatch):
        # The executor reads no environment variable; these two once
        # set the default worker count and the pool threshold.
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "2")
        monkeypatch.setenv("REPRO_SWEEP_MIN_CELLS", "0")
        assert resolve_jobs(None) == 1
        outcome = run_cells(_mini_cells(), jobs=2)
        assert outcome.stats.cells_total == 4
        assert outcome.stats.mode == "serial"


class TestSweepMetrics:
    def test_counters_record_cells_and_cache_traffic(self, tmp_path):
        registry = MetricsRegistry()
        cells = _mini_cells(repeats=1)
        cache = SweepCache(tmp_path)
        run_cells(cells, cache=cache, metrics=registry)
        run_cells(cells, cache=cache, metrics=registry)
        assert registry.get("sweep_cells_total").value == 2 * len(cells)
        assert registry.get("sweep_cache_hits_total").value == len(cells)
        assert registry.get("sweep_cache_misses_total").value == len(cells)
        assert registry.get("sweep_cells_executed_total").value == len(cells)
        assert registry.get("sweep_cell_wall_seconds").count == len(cells)

    def test_global_registry_exists(self):
        assert sweep_metrics() is sweep_metrics()
