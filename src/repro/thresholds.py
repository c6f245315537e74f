"""The threshold table (paper Table 2's data structure).

Produced by the compiler's threshold-estimation step (G), consumed by
the scheduler server (Algorithm 2), and updated in place by the
scheduler client (Algorithm 1). One entry per application: the hardware
kernel name and the x86 CPU loads beyond which migration to FPGA / ARM
is estimated to pay off. The entry also carries the observed execution
times per target — the running measurements Algorithm 1 compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.types import Target

__all__ = ["ThresholdEntry", "ThresholdTable", "ThresholdError"]


class ThresholdError(Exception):
    """Raised for unknown applications or malformed entries."""


@dataclass(slots=True)
class ThresholdEntry:
    """One application's row: thresholds plus last observed times."""

    application: str
    kernel_name: str
    fpga_threshold: float
    arm_threshold: float
    #: Most recent observed end-to-end times per target (seconds);
    #: seeded from step G's isolated measurements, refreshed at run-time.
    observed_s: dict[Target, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.fpga_threshold < 0 or self.arm_threshold < 0:
            raise ThresholdError(
                f"{self.application}: thresholds must be non-negative"
            )

    def observed(self, target: Target) -> float:
        """Last observed time on ``target`` (+inf if never measured)."""
        return self.observed_s.get(target, math.inf)

    def record(self, target: Target, seconds: float) -> None:
        if seconds < 0:
            raise ThresholdError(f"negative execution time {seconds!r}")
        self.observed_s[target] = seconds

    def copy(self) -> "ThresholdEntry":
        return ThresholdEntry(
            application=self.application,
            kernel_name=self.kernel_name,
            fpga_threshold=self.fpga_threshold,
            arm_threshold=self.arm_threshold,
            observed_s=dict(self.observed_s),
        )


class ThresholdTable:
    """All applications' rows; the artifact step G writes out."""

    def __init__(self, entries: Iterable[ThresholdEntry] = ()):
        #: Rows by application; ``None`` marks a row of a :meth:`copy`
        #: not copied yet.
        self._entries: dict[str, Optional[ThresholdEntry]] = {}
        #: The table this one is a copy of (see :meth:`copy`).
        self._source: Optional[ThresholdTable] = None
        for entry in entries:
            self.add(entry)

    def add(self, entry: ThresholdEntry) -> None:
        if entry.application in self._entries:
            raise ThresholdError(f"duplicate entry for {entry.application!r}")
        self._entries[entry.application] = entry

    def entry(self, application: str) -> ThresholdEntry:
        # dict.get instead of try/except: this lookup sits on the
        # scheduler's per-request fast path, where the miss is the
        # exceptional case but exception setup is not free.
        found = self._entries.get(application)
        if found is None:
            if application not in self._entries:
                raise ThresholdError(f"no threshold entry for {application!r}")
            found = self._entries[application] = self._source.entry(application).copy()
        return found

    def has(self, application: str) -> bool:
        return application in self._entries

    def applications(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return (self.entry(application) for application in self._entries)

    def copy(self) -> "ThresholdTable":
        """An independent table: updates to the copy never reach this
        one. Each row is copied when the copy first reads it, so a
        deployment that never consults a row never copies it; this
        table must therefore not change while a copy of it is in use
        (a compilation's table never does)."""
        table = ThresholdTable()
        table._entries = dict.fromkeys(self._entries)
        table._source = self
        return table

    # -- serialization (the tool's text output, Section 3.1) ----------------
    def to_text(self) -> str:
        lines = ["# application kernel fpga_threshold arm_threshold"]
        for entry in self:
            lines.append(
                f"{entry.application} {entry.kernel_name or '-'} "
                f"{entry.fpga_threshold:g} {entry.arm_threshold:g}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ThresholdTable":
        table = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 4:
                raise ThresholdError(f"line {lineno}: expected 4 fields")
            app, kernel, fpga_thr, arm_thr = tokens
            table.add(
                ThresholdEntry(
                    application=app,
                    kernel_name="" if kernel == "-" else kernel,
                    fpga_threshold=float(fpga_thr),
                    arm_threshold=float(arm_thr),
                )
            )
        return table
