"""Figures 7-8: periodic (wave) workloads.

Datacenter loads are time-varying (Section 4.3). Two experiments:

* Figure 7: thirty waves of 20 applications, one wave every 30 s over a
  ~43-minute frame; the overlap of slow waves pushes the process count
  from 20 (medium) toward 160 (high) and back. Metric: average
  execution time over all 600 runs.
* Figure 8: a background process count that waves between 10 and 120
  over ~35 minutes while the multi-image face-detection app runs ten
  60-second windows. Metric: average images/second.
"""

from __future__ import annotations

import numpy as np

from repro.core import SystemMode, XarTrekRuntime, build_system
from repro.experiments.harness import MODE_LABELS, sample_application_set
from repro.experiments.report import ExperimentResult
from repro.workloads import PAPER_BENCHMARKS, profile_for

__all__ = [
    "WaveLoad",
    "run_periodic_execution",
    "figure7_periodic_execution",
    "run_periodic_throughput",
    "figure8_periodic_throughput",
]

_MODES = (SystemMode.VANILLA_X86, SystemMode.ALWAYS_FPGA, SystemMode.XAR_TREK)


class WaveLoad:
    """A background worker pool whose size tracks a triangle wave.

    Workers run MG-B rounds on the x86 host; every ``step_s`` the quota
    is recomputed from the wave and workers above the quota exit after
    their current round.
    """

    def __init__(
        self,
        runtime: XarTrekRuntime,
        low: int,
        high: int,
        period_s: float,
        duration_s: float,
        step_s: float = 15.0,
        work_s: float | None = None,
    ):
        if low < 0 or high < low:
            raise ValueError(f"bad wave bounds [{low}, {high}]")
        self.runtime = runtime
        self.low = low
        self.high = high
        self.period_s = period_s
        self.duration_s = duration_s
        self.step_s = step_s
        self.work_s = work_s if work_s is not None else profile_for("mg.B").vanilla_x86_s
        self._quota = 0
        self._active = 0
        self._stopped = False
        self._start = runtime.platform.sim.now
        self._step()

    def target_at(self, t: float) -> int:
        """The triangle wave: low -> high -> low each period."""
        phase = (t % self.period_s) / self.period_s
        tri = 2 * phase if phase < 0.5 else 2 * (1 - phase)
        return int(round(self.low + (self.high - self.low) * tri))

    def _step(self) -> None:
        """The controller: recompute the quota, start workers up to it,
        and come back in ``step_s`` until the frame ends."""
        sim = self.runtime.platform.sim
        if self._stopped or sim.now - self._start >= self.duration_s:
            self._quota = 0
            return
        self._quota = self.target_at(sim.now - self._start)
        while self._active < self._quota:
            self._active += 1
            self._round(self._active)
        sim.defer(self.step_s, self._step)

    def _round(self, index: int) -> None:
        """One worker's next MG-B round, unless it is above the quota."""
        if not self._stopped and index <= self._quota:
            self.runtime.platform.x86.cpu.execute_job(
                self.work_s,
                tag="wave-background",
                on_complete=lambda _job: self._round(index),
            )

    def stop(self) -> None:
        self._stopped = True


def run_periodic_execution(
    mode: SystemMode,
    n_waves: int = 30,
    wave_size: int = 20,
    interval_s: float = 30.0,
    repeats_seed: int = 0,
) -> float:
    """One Figure 7 run: average execution time (s) across all launches."""
    rng = np.random.default_rng(repeats_seed)
    runtime = build_system(PAPER_BENCHMARKS, seed=repeats_seed)
    events = []
    for wave in range(n_waves):
        apps = sample_application_set(rng, wave_size)
        for i, app in enumerate(apps):
            events.append(
                runtime.launch(
                    app,
                    seed=wave * 1000 + i,
                    mode=mode,
                    delay_s=wave * interval_s + 0.01,
                )
            )
    records = runtime.wait_all(events)
    return float(np.mean([rec.elapsed_s for rec in records]))


def figure7_periodic_execution(
    n_waves: int = 30,
    wave_size: int = 20,
    interval_s: float = 30.0,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 7's three bars."""
    result = ExperimentResult(
        name="Figure 7: periodic workload, average execution time",
        headers=["system", "avg execution time (ms)"],
    )
    for mode in _MODES:
        avg_s = run_periodic_execution(
            mode, n_waves=n_waves, wave_size=wave_size,
            interval_s=interval_s, repeats_seed=seed,
        )
        result.rows.append([MODE_LABELS[mode], avg_s * 1e3])
    result.notes = (
        "Paper: Xar-Trek outperforms Vanilla/x86 by 18% and Vanilla/FPGA "
        "by 32%; gains are smaller than fixed loads because medium/high "
        "load is not sustained."
    )
    return result


def run_periodic_throughput(
    mode: SystemMode,
    n_runs: int = 10,
    window_s: float = 60.0,
    n_images: int = 1000,
    wave_low: int = 10,
    wave_high: int = 120,
    frame_s: float = 35 * 60.0,
    seed: int = 0,
) -> float:
    """One Figure 8 run: mean images/second over ``n_runs`` windows."""
    runtime = build_system(["facedet.320"], seed=seed)
    wave = WaveLoad(
        runtime, low=wave_low, high=wave_high,
        period_s=frame_s / 2, duration_s=frame_s,
    )
    gap = (frame_s - n_runs * window_s) / max(1, n_runs)
    events = []
    for run_index in range(n_runs):
        events.append(
            runtime.launch(
                "facedet.320",
                seed=seed * 100 + run_index,
                mode=mode,
                calls=n_images,
                deadline_s=window_s,
                delay_s=run_index * (window_s + gap) + 0.01,
            )
        )
    records = runtime.wait_all(events)
    wave.stop()
    return float(np.mean([rec.calls_completed / window_s for rec in records]))


def figure8_periodic_throughput(seed: int = 0, **kwargs) -> ExperimentResult:
    """Figure 8's three bars."""
    result = ExperimentResult(
        name="Figure 8: periodic workload, face-detection throughput",
        headers=["system", "throughput (img/s)"],
    )
    for mode in _MODES:
        result.rows.append(
            [MODE_LABELS[mode], run_periodic_throughput(mode, seed=seed, **kwargs)]
        )
    result.notes = (
        "Paper: Xar-Trek outperforms Vanilla/x86 by 175% and "
        "Vanilla/FPGA by 50%; smaller than Figure 6's fixed-load gains."
    )
    return result
