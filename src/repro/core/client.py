"""Algorithm 1 — the scheduler client's dynamic threshold update.

A client instance is linked into every application binary
(Section 3.2). Each time the application terminates, it records the
observed execution time and the x86 CPU load at that moment, and
refines the threshold table that step G estimated statically:

* ran on x86 and was slower than the recorded FPGA (resp. ARM) time at
  a load *below* the current threshold -> lower that threshold to the
  observed load (migration would already have paid off here);
* ran on ARM/FPGA and was slower than the recorded x86 time -> raise
  that target's threshold (migration was premature).
"""

from __future__ import annotations

from typing import Optional

from repro.metrics import Counter, FamilySpec, MetricsRegistry, family_table
from repro.thresholds import ThresholdEntry
from repro.types import Target

__all__ = ["ThresholdUpdater", "UpdateOutcome"]


class UpdateOutcome:
    """What an update did (for traces and tests)."""

    LOWERED_FPGA = "lowered_fpga"
    LOWERED_ARM = "lowered_arm"
    LOWERED_BOTH = "lowered_both"
    RAISED_FPGA = "raised_fpga"
    RAISED_ARM = "raised_arm"
    RECORDED = "recorded"


_OUTCOMES = FamilySpec(
    Counter, "threshold_updates_total", "Algorithm 1 passes by outcome", ("outcome",)
)
_FAMILIES = family_table(_OUTCOMES)


class ThresholdUpdater:
    """Executes Algorithm 1 against a shared threshold table entry."""

    def __init__(
        self,
        increase_step: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if increase_step <= 0:
            raise ValueError(f"increase_step must be positive, got {increase_step}")
        self.increase_step = increase_step
        self._metrics = metrics
        if metrics is not None:
            metrics.declare(_FAMILIES)

    def update(
        self,
        entry: ThresholdEntry,
        target: Target,
        exec_seconds: float,
        x86_load: float,
    ) -> str:
        """One Algorithm 1 pass; mutates ``entry``, returns the outcome."""
        outcome = UpdateOutcome.RECORDED
        if target is Target.X86:
            # Lines 4-10: the FPGA check (4-5) and the ARM check (7-8)
            # are independent statements, not an either/or — a run that
            # was slower than both recorded alternatives lowers both
            # thresholds in the same pass.
            lowered_fpga = (
                exec_seconds > entry.observed(Target.FPGA)
                and x86_load < entry.fpga_threshold
            )
            if lowered_fpga:
                entry.fpga_threshold = x86_load
                outcome = UpdateOutcome.LOWERED_FPGA
            if (
                exec_seconds > entry.observed(Target.ARM)
                and x86_load < entry.arm_threshold
            ):
                entry.arm_threshold = x86_load
                outcome = (
                    UpdateOutcome.LOWERED_BOTH
                    if lowered_fpga
                    else UpdateOutcome.LOWERED_ARM
                )
        elif target is Target.ARM:
            # Lines 14-17.
            if exec_seconds > entry.observed(Target.X86):
                entry.arm_threshold += self.increase_step
                outcome = UpdateOutcome.RAISED_ARM
        elif target is Target.FPGA:
            # Lines 19-23.
            if exec_seconds > entry.observed(Target.X86):
                entry.fpga_threshold += self.increase_step
                outcome = UpdateOutcome.RAISED_FPGA
        # Lines 1-2: the record itself (kept last so the comparisons
        # above used the *previous* observation, as in the paper).
        entry.record(target, exec_seconds)
        if self._metrics is not None:
            self._metrics.family(_OUTCOMES).child(outcome).inc()
        return outcome
