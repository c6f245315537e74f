"""Parallel sweep executor: declarative cells, deterministic fan-out.

The paper's evaluation is not one simulation but dozens to hundreds of
*independent* ``(application set, mode, background, repeat)`` runs —
Figures 3-6, Tables 1-4, the sensitivity studies, and ``repro report``
all iterate the same primitive through nested loops. This module
decouples *what cells to run* from *where and when they execute*:

* :class:`Cell` — a frozen, picklable spec naming everything one run
  needs (workload set, system mode, background size, derived seed,
  platform overrides). Emitters (:func:`cells_for_sets`,
  ``fixed_workload_sweep``, ``figure6_throughput``, the sensitivity
  sweeps) build cell lists up front; nothing about a cell depends on
  when or where it runs.
* :func:`run_cells` — the executor. Serial (``jobs=1``) and parallel
  (``jobs=N`` over a :class:`~concurrent.futures.ProcessPoolExecutor`)
  execution produce byte-identical results, because every cell carries
  its own seed — derived via :meth:`numpy.random.SeedSequence.spawn`
  at emission time — and builds a fresh simulator. Dispatch is chunked
  to amortize worker startup.
* :class:`SweepCache` — an optional content-addressed on-disk result
  cache keyed by (cell spec, repro version, platform config hash), so
  re-running a report only simulates changed cells.

Sweep-level metrics (cells run, cache hits, worker utilization) are
recorded through :mod:`repro.metrics` — see :func:`sweep_metrics`.
"""

from __future__ import annotations

import atexit
import functools
import gc
import hashlib
import json
import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from repro import __version__
from repro.core import SystemMode, build_system
from repro.experiments.harness import (
    SetOutcome,
    run_application_set,
    sample_application_set,
)
from repro.hardware import ALVEO_U50, THUNDERX
from repro.hardware.interconnect import ETHERNET_1GBPS, PCIE_GEN3_X16
from repro.hardware.platform import HeterogeneousPlatform, XEON_BRONZE_3104
from repro.metrics import MetricsRegistry
from repro.workloads import PAPER_BENCHMARKS

__all__ = [
    "Cell",
    "CellResult",
    "SweepCache",
    "SweepOutcome",
    "SweepStats",
    "cells_for_sets",
    "cells_for_throughput",
    "derive_seeds",
    "platform_config_hash",
    "resolve_jobs",
    "results_checksum",
    "run_cell",
    "run_cells",
    "shutdown_pool",
    "sweep_metrics",
]

#: Pool-worthiness threshold, in pending cells per worker: a multi-job
#: sweep with fewer pending cells than this times its worker count runs
#: serially. Spawning workers and pickling cells costs real wall time; a
#: cell simulates in the low tens of milliseconds, so a worker needs a
#: batch of them before the pool amortizes (the committed bench once
#: recorded parallel_speedup 0.66 — a slowdown — on a 27-cell grid).
_MIN_CELLS_PER_WORKER = 16


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------

def derive_seeds(root: int | np.random.SeedSequence, n: int) -> list[int]:
    """``n`` collision-free child seeds from one root.

    Children come from :meth:`~numpy.random.SeedSequence.spawn`, so —
    unlike the old ``seed * 100 + repeat`` arithmetic, which collides
    across base seeds once ``repeats >= 100`` — distinct (root, index)
    pairs map to statistically independent streams. Each child is
    flattened to a 64-bit int so it can ride in a :class:`Cell` and
    re-seed any downstream ``SeedSequence`` or generator.
    """
    if isinstance(root, int):
        return list(_int_root_seeds(root, n))
    if not isinstance(root, np.random.SeedSequence):
        root = np.random.SeedSequence(root)
    return _spawn_seeds(root, n)


@functools.lru_cache(maxsize=4)
def _int_root_seeds(root: int, n: int) -> tuple[int, ...]:
    """:func:`derive_seeds` for an int root, memoized.

    ``run_application_set`` derives the same ``(seed, len(apps))`` once
    per system mode, and sweeps emit each repeat's modes back to back
    (:func:`cells_for_sets`), so one slot per mode is enough. The cache
    stays that small on purpose: a later pass over the same cells finds
    it cold again and costs what the first pass did.
    """
    return tuple(_spawn_seeds(np.random.SeedSequence(root), n))


def _spawn_seeds(root: np.random.SeedSequence, n: int) -> list[int]:
    return [
        int(child.generate_state(1, dtype=np.uint64)[0]) for child in root.spawn(n)
    ]


# ---------------------------------------------------------------------------
# Cell specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One independent unit of evaluation work.

    ``kind`` selects the primitive:

    * ``"set"`` — one application set launched concurrently
      (:func:`~repro.experiments.harness.run_application_set`);
    * ``"throughput"`` — one Figure-6-style windowed run reporting
      calls per second;
    * ``"scenario"`` — one Table-1 single-benchmark scenario
      (``x86`` / ``fpga`` / ``arm``).

    Optional platform overrides (``arm_cores``, ``reconfig_base_s``)
    let the sensitivity sweeps express their modified testbeds as
    cells too. The spec is frozen and fully picklable: a cell is the
    complete recipe for its run, independent of execution order.
    """

    kind: str
    apps: tuple[str, ...]
    mode: SystemMode
    seed: int
    background: int = 0
    duty: float = 1.0
    calls: Optional[int] = None
    window_s: Optional[float] = None
    delay_s: float = 0.0
    scenario: Optional[str] = None
    arm_cores: Optional[int] = None
    reconfig_base_s: Optional[float] = None

    def spec_dict(self) -> dict:
        """Canonical JSON-safe description (the cache-key payload)."""
        spec = asdict(self)
        spec["mode"] = self.mode.value
        spec["apps"] = list(self.apps)
        return spec


@dataclass
class CellResult:
    """What one executed cell produced.

    ``outcome`` is populated for ``set`` cells; ``value`` holds the
    scalar result of ``throughput`` (images/s) and ``scenario``
    (elapsed seconds) cells. ``events`` / ``sim_seconds`` expose the
    simulator counters so benches can aggregate across workers;
    ``wall_s`` is this cell's own execution time (worker-side), which
    is *not* part of the deterministic payload.
    """

    cell: Cell
    outcome: Optional[SetOutcome] = None
    value: Optional[float] = None
    events: int = 0
    sim_seconds: float = 0.0
    wall_s: float = 0.0
    cached: bool = False


def _platform_for(cell: Cell) -> Optional[HeterogeneousPlatform]:
    """The overridden testbed a cell asks for, or ``None`` for default."""
    if cell.arm_cores is None and cell.reconfig_base_s is None:
        return None
    arm_spec = THUNDERX
    if cell.arm_cores is not None:
        arm_spec = replace(THUNDERX, cores=cell.arm_cores)
    fpga_spec = ALVEO_U50
    if cell.reconfig_base_s is not None:
        fpga_spec = replace(ALVEO_U50, reconfig_base_s=cell.reconfig_base_s)
    return HeterogeneousPlatform(arm_spec=arm_spec, fpga_spec=fpga_spec, seed=cell.seed)


def run_cell(cell: Cell) -> CellResult:
    """Execute one cell on a fresh deployment (safe in any process)."""
    started = time.perf_counter()
    runtime = build_system(
        sorted(set(cell.apps)), seed=cell.seed, platform=_platform_for(cell)
    )
    result = CellResult(cell=cell)
    if cell.kind == "set":
        result.outcome = run_application_set(
            cell.apps,
            cell.mode,
            background=cell.background,
            seed=cell.seed,
            runtime=runtime,
            duty=cell.duty,
        )
    elif cell.kind == "throughput":
        (app,) = cell.apps
        load = (
            runtime.launch_background(cell.background, duty=cell.duty)
            if cell.background
            else None
        )
        record = runtime.platform.sim.run_until_event(
            runtime.launch(
                app, seed=cell.seed, mode=cell.mode, calls=cell.calls,
                deadline_s=cell.window_s, delay_s=cell.delay_s,
            )
        )
        if load is not None:
            load.stop()
        result.value = record.calls_completed / (cell.window_s or 1.0)
    elif cell.kind == "scenario":
        # Table 1's single-benchmark scenarios; imported lazily because
        # tables.py itself emits scenario cells through this module.
        from repro.experiments.tables import run_scenario_on

        (app,) = cell.apps
        result.value = run_scenario_on(runtime, app, cell.scenario or "x86", cell.seed)
    else:
        raise ValueError(f"unknown cell kind {cell.kind!r}")
    sim = runtime.platform.sim
    result.events = sim.events_processed
    result.sim_seconds = sim.now
    result.wall_s = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------

def cells_for_sets(
    set_size: int,
    modes: Sequence[SystemMode] | SystemMode,
    background: int = 0,
    repeats: int = 10,
    seed: int = 0,
    pool: Sequence[str] = PAPER_BENCHMARKS,
    duty: float = 1.0,
) -> list[Cell]:
    """The Figure-3/4/5 primitive as a cell list.

    For each repeat one application set is sampled and one child seed
    spawned; all ``modes`` share them, so cross-mode comparisons stay
    paired exactly as in the serial harness. Cells come out grouped by
    repeat, then mode.
    """
    if isinstance(modes, SystemMode):
        modes = (modes,)
    root = np.random.SeedSequence(seed)
    sample_seq, run_seq = root.spawn(2)
    rng = np.random.default_rng(sample_seq)
    repeat_seeds = derive_seeds(run_seq, repeats)
    cells = []
    for repeat in range(repeats):
        apps = sample_application_set(rng, set_size, pool)
        for mode in modes:
            cells.append(
                Cell(
                    kind="set",
                    apps=apps,
                    mode=mode,
                    seed=repeat_seeds[repeat],
                    background=background,
                    duty=duty,
                )
            )
    return cells


def cells_for_throughput(
    app: str,
    modes: Sequence[SystemMode],
    background_loads: Sequence[int],
    n_images: int = 1000,
    window_s: float = 60.0,
    seed: int = 0,
    delay_s: float = 0.0,
    reconfig_base_s: Optional[float] = None,
) -> list[Cell]:
    """Figure-6-style windowed-throughput cells.

    One child seed per background load, shared across modes (paired
    comparisons, as in the serial loop).
    """
    bg_seeds = derive_seeds(seed, len(background_loads))
    return [
        Cell(
            kind="throughput",
            apps=(app,),
            mode=mode,
            seed=bg_seeds[i],
            background=background,
            calls=n_images,
            window_s=window_s,
            delay_s=delay_s,
            reconfig_base_s=reconfig_base_s,
        )
        for i, background in enumerate(background_loads)
        for mode in modes
    ]


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

def platform_config_hash() -> str:
    """Fingerprint of the default testbed's hardware constants.

    Any change to the calibrated specs (CPU cores/frequency, FPGA
    reconfiguration time, link bandwidths) invalidates every cached
    cell, because the same cell spec would simulate differently.
    """
    specs = {
        "x86": asdict(XEON_BRONZE_3104),
        "arm": asdict(THUNDERX),
        "fpga": asdict(ALVEO_U50),
        "ethernet": asdict(ETHERNET_1GBPS),
        "pcie": asdict(PCIE_GEN3_X16),
    }
    payload = json.dumps(specs, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class SweepCache:
    """Content-addressed on-disk cache of :class:`CellResult` payloads.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` where ``key`` is the sha256
    of the canonical cell spec plus a *fingerprint* covering the repro
    version and the platform config hash. A version bump or a testbed
    recalibration therefore misses cleanly; unreadable entries are
    treated as misses and rewritten.
    """

    def __init__(self, root: str | os.PathLike, fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint or self.default_fingerprint()

    @staticmethod
    def default_fingerprint() -> str:
        return f"{__version__}/{platform_config_hash()}"

    def key_for(self, cell: Cell) -> str:
        payload = json.dumps(
            {"cell": cell.spec_dict(), "fingerprint": self.fingerprint},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def load(self, cell: Cell) -> Optional[CellResult]:
        path = self._path(self.key_for(cell))
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None
        if not isinstance(result, CellResult):
            return None
        result.cached = True
        return result

    def store(self, result: CellResult) -> None:
        path = self._path(self.key_for(result.cell))
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)


def _as_cache(cache) -> Optional[SweepCache]:
    if cache is None or isinstance(cache, SweepCache):
        return cache
    return SweepCache(cache)


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------

def resolve_jobs(jobs: Optional[int | str] = None) -> int:
    """Normalize a ``--jobs`` value: ``None`` means 1; 0 or ``"auto"``
    means all CPUs."""
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        jobs = 0 if jobs.strip().lower() == "auto" else int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


@dataclass
class SweepStats:
    """Executor accounting for one :func:`run_cells` call.

    ``jobs`` is the *requested* worker count (after
    :func:`resolve_jobs`); ``workers`` is how many actually ran, and
    ``mode`` records whether the process pool was used — a multi-job
    sweep falls back to ``"serial"`` when fewer than
    ``_MIN_CELLS_PER_WORKER`` cells per worker are pending, where pool
    startup would cost more than it buys.
    """

    cells_total: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1
    workers: int = 1
    mode: str = "serial"
    wall_s: float = 0.0
    busy_s: float = 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of the worker-seconds budget spent simulating."""
        if self.wall_s <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_s / (self.workers * self.wall_s))


@dataclass
class SweepOutcome:
    """Results (in emission order) plus executor accounting."""

    results: list[CellResult] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)


_SWEEP_METRICS: Optional[MetricsRegistry] = None


def sweep_metrics() -> MetricsRegistry:
    """The process-wide sweep metrics registry (wall-clock driven).

    Families: ``sweep_cells_total{kind}``, ``sweep_cache_hits_total``,
    ``sweep_cache_misses_total``, ``sweep_cells_executed_total``,
    ``sweep_runs_total{mode}``, ``sweep_cell_wall_seconds``
    (histogram), and the gauges ``sweep_worker_utilization`` /
    ``sweep_jobs``.
    """
    global _SWEEP_METRICS
    if _SWEEP_METRICS is None:
        _SWEEP_METRICS = MetricsRegistry(clock=time.monotonic)
    return _SWEEP_METRICS


def _record_stats(registry: MetricsRegistry, stats: SweepStats, results) -> None:
    cells = registry.counter(
        "sweep_cells_total", "cells submitted to the sweep executor", ("kind",)
    )
    for result in results:
        cells.labels(kind=result.cell.kind).inc()
    registry.counter(
        "sweep_cache_hits_total", "cells served from the on-disk cache"
    ).inc(stats.cache_hits)
    registry.counter(
        "sweep_cache_misses_total", "cells that had to simulate despite a cache"
    ).inc(stats.cache_misses)
    registry.counter(
        "sweep_cells_executed_total", "cells actually simulated"
    ).inc(stats.executed)
    wall = registry.histogram(
        "sweep_cell_wall_seconds", "per-cell worker-side execution time"
    )
    for result in results:
        if not result.cached:
            wall.observe(result.wall_s)
    registry.counter(
        "sweep_runs_total", "run_cells invocations by execution mode", ("mode",)
    ).labels(mode=stats.mode).inc()
    registry.gauge(
        "sweep_worker_utilization", "busy worker-seconds / (workers * wall)"
    ).set(stats.worker_utilization)
    registry.gauge("sweep_jobs", "worker count of the last sweep").set(stats.jobs)


# ---------------------------------------------------------------------------
# The persistent worker pool
# ---------------------------------------------------------------------------
#
# Spinning up a ProcessPoolExecutor per run_cells call made the bench's
# 27-cell parallel leg *slower* than serial (parallel_speedup 0.92):
# worker spawn plus a cold per-worker compile cache cost more than the
# grid. The pool is therefore process-global and reused across calls:
# workers keep their warm ``repro.core.runtime._COMPILE_CACHE``.

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _pool_for(workers: int) -> ProcessPoolExecutor:
    """The shared pool, grown (never shrunk) to ``workers`` workers."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS < workers:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared worker pool (also runs at interpreter exit)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def run_cells(
    cells: Iterable[Cell],
    jobs: Optional[int | str] = None,
    cache: Optional[SweepCache | str | os.PathLike] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> SweepOutcome:
    """Execute cells, possibly in parallel, preserving emission order.

    Serial and parallel runs are byte-identical: each cell is
    self-seeded, runs on a fresh simulator, and results are collected
    back into cell order regardless of completion order. With a
    ``cache``, previously simulated cells are loaded instead of re-run
    and fresh results are stored after execution.

    Each pool task carries enough cells for about four chunks per
    worker, to amortize per-task pickling.

    A multi-job call still runs serially when fewer than
    ``_MIN_CELLS_PER_WORKER`` cells per worker actually need
    simulating — pool startup costs hundreds of milliseconds, which on
    a small grid of tens-of-milliseconds cells is a net slowdown, not a
    speedup. The chosen path lands in ``SweepOutcome.stats.mode`` and
    the ``sweep_runs_total{mode}`` counter.

    The worker pool persists across calls (workers keep their warm
    compile caches); :func:`shutdown_pool` tears it down.
    """
    cells = list(cells)
    jobs = resolve_jobs(jobs)
    cache = _as_cache(cache)
    started = time.perf_counter()
    results: list[Optional[CellResult]] = [None] * len(cells)
    pending: list[int] = []
    hits = 0
    for index, cell in enumerate(cells):
        loaded = cache.load(cell) if cache is not None else None
        if loaded is not None:
            results[index] = loaded
            hits += 1
        else:
            pending.append(index)
    workers = 1
    mode = "serial"
    pool_workers = min(jobs, len(pending))
    if pool_workers > 1 and len(pending) >= _MIN_CELLS_PER_WORKER * pool_workers:
        workers = pool_workers
        mode = "parallel"
        chunk = max(1, math.ceil(len(pending) / (workers * 4)))
        forks = _POOL is None or _POOL_WORKERS < workers
        pool = _pool_for(workers)
        if forks:
            # A new pool forks its workers at the first submit. With the
            # parent's heap frozen, their collections leave its objects
            # alone instead of copying every page they touch.
            gc.freeze()
        try:
            try:
                fresh = pool.map(
                    run_cell, [cells[i] for i in pending], chunksize=chunk
                )
            finally:
                if forks:
                    gc.unfreeze()
            for index, result in zip(pending, fresh):
                results[index] = result
        except BrokenProcessPool:
            # A worker died (OOM kill, signal). Results are
            # deterministic either way, so recover by finishing the
            # grid serially rather than failing the whole sweep.
            shutdown_pool()
            mode = "serial"
            workers = 1
            for index in pending:
                if results[index] is None:
                    results[index] = run_cell(cells[index])
    else:
        for index in pending:
            results[index] = run_cell(cells[index])
    if cache is not None:
        for index in pending:
            cache.store(results[index])
    stats = SweepStats(
        cells_total=len(cells),
        executed=len(pending),
        cache_hits=hits,
        cache_misses=len(pending) if cache is not None else 0,
        jobs=jobs,
        workers=workers,
        mode=mode,
        wall_s=time.perf_counter() - started,
        busy_s=float(sum(results[i].wall_s for i in pending)),
    )
    final: list[CellResult] = [r for r in results if r is not None]
    # Explicit None check: an empty MetricsRegistry is falsy (__len__).
    _record_stats(sweep_metrics() if metrics is None else metrics, stats, final)
    return SweepOutcome(results=final, stats=stats)


# ---------------------------------------------------------------------------
# Checksums (the serial-vs-parallel equivalence guard)
# ---------------------------------------------------------------------------

def results_checksum(results: Sequence[CellResult]) -> str:
    """Fold every deterministic output of a sweep into one digest.

    Covers run records (timings, targets, migrations), scalar values,
    and the full metrics snapshot of every set cell — but not wall
    times or cache state, which legitimately differ between runs.
    """
    digest = hashlib.sha256()
    for result in results:
        digest.update(json.dumps(result.cell.spec_dict(), sort_keys=True).encode())
        if result.value is not None:
            digest.update(f"{result.value:.12e}".encode())
        if result.outcome is not None:
            for rec in result.outcome.records:
                line = (
                    f"{rec.app},{rec.start_s:.9f},{rec.end_s:.9f},"
                    f"{rec.calls_completed},{rec.migrations},"
                    f"{','.join(str(t) for t in rec.targets)}"
                )
                digest.update(line.encode())
            digest.update(
                json.dumps(result.outcome.metrics, sort_keys=True).encode()
            )
        digest.update(b"\x00")
    return digest.hexdigest()[:16]
