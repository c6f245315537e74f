"""Shared experiment machinery.

The paper's evaluation repeatedly runs *application sets*: a randomly
sampled multiset of the five benchmarks launched concurrently on a
fresh deployment, optionally above a background of MG-B load
generators, measured as the set's average execution time over several
repeats. :func:`run_application_set` is that primitive;
:func:`average_execution_time` wraps the repeat loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core import SystemMode, XarTrekRuntime, build_system
from repro.core.application import RunRecord
from repro.workloads import PAPER_BENCHMARKS

__all__ = [
    "SetOutcome",
    "sample_application_set",
    "run_application_set",
    "average_execution_time",
    "MODE_LABELS",
]

#: The paper's bar labels for each system mode.
MODE_LABELS: dict[SystemMode, str] = {
    SystemMode.VANILLA_X86: "Vanilla Linux/x86",
    SystemMode.VANILLA_ARM: "Vanilla Linux/ARM",
    SystemMode.ALWAYS_FPGA: "FPGA",
    SystemMode.XAR_TREK: "Xar-Trek",
}

#: Small launch stagger so the background load is established before
#: the measured applications issue scheduling requests.
_LAUNCH_DELAY_S = 0.05


@dataclass
class SetOutcome:
    """One application set's measured run."""

    mode: SystemMode
    apps: tuple[str, ...]
    records: list[RunRecord] = field(default_factory=list)
    #: The deployment's full metrics snapshot at measurement end
    #: (:meth:`repro.metrics.MetricsRegistry.snapshot`), so percentile
    #: tables and regression diffs don't need the live runtime. Only the
    #: callers that read it take it: :func:`repro.experiments.sweep.run_cell`
    #: (cached and checksummed cell results) and
    #: :func:`repro.experiments.observability.metrics_experiment`;
    #: :func:`run_application_set` leaves it ``None``.
    metrics: Optional[dict] = None

    @property
    def average_s(self) -> float:
        # np.mean's own arithmetic (one pairwise np.add.reduce, then a
        # division by the count) without its Python-level wrapper.
        values = [rec.elapsed_s for rec in self.records]
        return float(np.add.reduce(values) / len(values))

    @property
    def max_s(self) -> float:
        return max(rec.elapsed_s for rec in self.records)

    def target_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for rec in self.records:
            for target in rec.targets:
                counts[str(target)] = counts.get(str(target), 0) + 1
        return counts


def sample_application_set(
    rng: np.random.Generator,
    size: int,
    pool: Sequence[str] = PAPER_BENCHMARKS,
) -> tuple[str, ...]:
    """Uniformly sample ``size`` applications (with replacement), as in
    Section 4.1's randomized sets."""
    return tuple(str(name) for name in rng.choice(list(pool), size=size))


def run_application_set(
    apps: Sequence[str],
    mode: SystemMode,
    background: int = 0,
    seed: int = 0,
    runtime: Optional[XarTrekRuntime] = None,
    duty: float = 1.0,
) -> SetOutcome:
    """Launch ``apps`` concurrently on a fresh deployment and wait.

    ``background`` MG-B load generators (CPU-bound fraction ``duty``)
    run on the x86 host for the duration. Every run uses its own
    simulator, so repeats are independent and deterministic in
    ``seed``: per-launch seeds are spawned from one
    :class:`~numpy.random.SeedSequence` rooted at ``seed``, so they
    never collide across base seeds (the old ``seed * 1000 + i``
    arithmetic did).

    When a prebuilt ``runtime`` is passed, its platform (and therefore
    the platform RNG seed it was built with) is used as-is — only the
    per-launch seeds still derive from ``seed``. The runtime must have
    been compiled with every application in ``apps``; a partial
    deployment raises ``ValueError`` instead of failing mid-launch. So
    does an empty ``apps``, before anything is built: a set with no
    applications has no average.
    """
    if not apps:
        raise ValueError("an application set needs at least one application")
    if runtime is None:
        runtime = build_system(sorted(set(apps)), seed=seed)
    else:
        missing = sorted(set(apps) - set(runtime.result.applications))
        if missing:
            raise ValueError(
                f"prebuilt runtime lacks applications {missing}; it was "
                f"compiled with {sorted(runtime.result.applications)}"
            )
    from repro.experiments.sweep import derive_seeds

    launch_seeds = derive_seeds(seed, len(apps))
    load = runtime.launch_background(background, duty=duty) if background else None
    events = [
        runtime.launch(app, seed=launch_seeds[i], mode=mode, delay_s=_LAUNCH_DELAY_S)
        for i, app in enumerate(apps)
    ]
    records = runtime.wait_all(events)
    if load is not None:
        load.stop()
    return SetOutcome(mode=mode, apps=tuple(apps), records=records)


def average_execution_time(
    set_size: int,
    mode: SystemMode,
    background: int = 0,
    repeats: int = 10,
    seed: int = 0,
    pool: Sequence[str] = PAPER_BENCHMARKS,
    jobs: Optional[int] = None,
    cache=None,
) -> tuple[float, float]:
    """Mean and standard deviation over ``repeats`` random sets.

    Each repeat samples a fresh application set (same sets across
    modes for a given seed, since sampling is seed-deterministic and
    independent of the mode). The repeats are emitted as sweep cells
    and fanned out over ``jobs`` workers (see
    :mod:`repro.experiments.sweep`); results are byte-identical for
    any ``jobs``.
    """
    from repro.experiments.sweep import cells_for_sets, run_cells

    cells = cells_for_sets(
        set_size, mode, background=background, repeats=repeats, seed=seed, pool=pool
    )
    sweep = run_cells(cells, jobs=jobs, cache=cache)
    averages = [result.outcome.average_s for result in sweep.results]
    return float(np.mean(averages)), float(np.std(averages))
