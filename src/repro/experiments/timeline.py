"""Timeline extraction and export: what did the system do, and when.

Builds a per-run timeline from a runtime: application spans from its
run records, plus — on a traced platform — the scheduler decisions with
their Algorithm 2 rules and the FPGA reconfigurations the scheduler
started (``platform.timeline``). Exports CSV and JSON for offline
analysis and offers a textual summary — the practical debugging surface
a policy author needs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

from repro.core.runtime import XarTrekRuntime
from repro.sim import TimelineEvent

__all__ = ["TimelineEvent", "Timeline", "extract_timeline"]


@dataclass
class Timeline:
    """An ordered event list with exporters."""

    events: list[TimelineEvent]

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> list[TimelineEvent]:
        return [ev for ev in self.events if ev.kind == kind]

    def between(self, start_s: float, end_s: float) -> "Timeline":
        return Timeline(
            [ev for ev in self.events if start_s <= ev.time_s <= end_s]
        )

    # -- exporters -----------------------------------------------------------
    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["time_s", "kind", "app", "detail"])
        for ev in self.events:
            writer.writerow([f"{ev.time_s:.9f}", ev.kind, ev.app, ev.detail])
        return out.getvalue()

    def to_json(self) -> str:
        return json.dumps([asdict(ev) for ev in self.events], indent=2)

    def decision_counts(self) -> dict[str, int]:
        """Algorithm 2 rule -> how often it fired."""
        counts: dict[str, int] = {}
        for ev in self.of_kind("decision"):
            rule = ev.detail.split("rule=", 1)[-1]
            counts[rule] = counts.get(rule, 0) + 1
        return counts

    def summary(self) -> str:
        spans = self.of_kind("app-end")
        lines = [
            f"{len(self.events)} events, {len(self.of_kind('app-start'))} app "
            f"starts, {len(spans)} completions, "
            f"{len(self.of_kind('reconfig'))} reconfigurations"
        ]
        counts = self.decision_counts()
        if counts:
            lines.append(
                "decisions: "
                + ", ".join(f"{rule}={n}" for rule, n in sorted(counts.items()))
            )
        return "\n".join(lines)


def extract_timeline(runtime: XarTrekRuntime) -> Timeline:
    """Build the timeline from a runtime's run records and its
    platform's timeline.

    Scheduler decisions and reconfigurations require the platform to
    have been built with ``trace=True``; application spans come from
    the run records and are always available.
    """
    events: list[TimelineEvent] = []
    for record in runtime.records:
        events.append(
            TimelineEvent(record.start_s, "app-start", record.app, f"seed={record.seed}")
        )
        if record.finished:
            targets = "+".join(str(t) for t in record.targets) or "-"
            events.append(
                TimelineEvent(
                    record.end_s,
                    "app-end",
                    record.app,
                    f"elapsed={record.elapsed_s:.6f} targets={targets}",
                )
            )
    events.extend(runtime.platform.timeline or ())
    events.sort(key=lambda ev: (ev.time_s, ev.kind))
    return Timeline(events)
