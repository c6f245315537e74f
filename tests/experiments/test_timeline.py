"""Tests for timeline extraction and export."""

import csv
import hashlib
import io
import json

import pytest

from repro.core import SystemMode, build_system
from repro.experiments import extract_timeline
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    OverloadConfig,
    ResilienceConfig,
)
from repro.metrics import to_json


@pytest.fixture()
def traced_runtime():
    runtime = build_system(["digit.2000", "cg.A"], trace=True)
    load = runtime.launch_background(40, work_s=60.0)
    events = [
        runtime.launch(app, seed=i, mode=SystemMode.XAR_TREK, delay_s=0.01)
        for i, app in enumerate(("digit.2000", "cg.A", "digit.2000"))
    ]
    runtime.wait_all(events)
    load.stop()
    return runtime


class TestExtraction:
    def test_spans_and_decisions_present(self, traced_runtime):
        timeline = extract_timeline(traced_runtime)
        assert len(timeline.of_kind("app-start")) == 3
        assert len(timeline.of_kind("app-end")) == 3
        assert len(timeline.of_kind("decision")) == 3
        # Early configuration triggered at least one reconfiguration.
        assert len(timeline.of_kind("reconfig")) >= 1

    def test_events_sorted_by_time(self, traced_runtime):
        timeline = extract_timeline(traced_runtime)
        times = [ev.time_s for ev in timeline.events]
        assert times == sorted(times)

    def test_between_filters(self, traced_runtime):
        timeline = extract_timeline(traced_runtime)
        clipped = timeline.between(0.0, 0.02)
        assert len(clipped) < len(timeline)
        assert all(ev.time_s <= 0.02 for ev in clipped.events)

    def test_decision_counts_by_rule(self, traced_runtime):
        timeline = extract_timeline(traced_runtime)
        counts = timeline.decision_counts()
        assert sum(counts.values()) == 3
        assert all(rule for rule in counts)

    def test_summary_mentions_the_numbers(self, traced_runtime):
        summary = extract_timeline(traced_runtime).summary()
        assert "3 app starts" in summary
        assert "decisions:" in summary


class TestExport:
    def test_csv_round_trip(self, traced_runtime):
        timeline = extract_timeline(traced_runtime)
        rows = list(csv.reader(io.StringIO(timeline.to_csv())))
        assert rows[0] == ["time_s", "kind", "app", "detail"]
        assert len(rows) == len(timeline) + 1
        # Times parse as floats.
        assert all(float(row[0]) >= 0 for row in rows[1:])

    def test_json_round_trip(self, traced_runtime):
        timeline = extract_timeline(traced_runtime)
        decoded = json.loads(timeline.to_json())
        assert len(decoded) == len(timeline)
        assert {"time_s", "kind", "app", "detail"} <= set(decoded[0])

    def test_untraced_runtime_still_exports_spans(self):
        runtime = build_system(["digit.500"])  # trace disabled
        runtime.platform.sim.run_until_event(
            runtime.launch("digit.500", mode=SystemMode.VANILLA_X86)
        )
        timeline = extract_timeline(runtime)
        assert len(timeline.of_kind("app-end")) == 1
        assert timeline.of_kind("decision") == []


_BROWNOUT_APPS = ("digit.2000", "cg.A", "facedet.320")


def _brownout_run(trace: bool = True):
    """Twelve two-call clients over a half-duty background whose load
    crosses the x86-only rung (enter 34, exit 25) several times; the
    card crashes at t=7 s for 1 s, so a later request reloads it."""
    overload = OverloadConfig(
        x86_only_enter_load=34.0,
        x86_only_exit_load=25.0,
        shed_enter_load=1e9,
        shed_exit_load=1e8,
    )
    runtime = build_system(
        list(_BROWNOUT_APPS),
        trace=trace,
        resilience=ResilienceConfig(overload=overload),
    )
    FaultInjector(runtime).arm(
        FaultPlan([FaultSpec(at_s=7.0, kind="device_crash", duration_s=1.0)])
    )
    load = runtime.launch_background(30, duty=0.5)
    events = [
        runtime.launch(
            _BROWNOUT_APPS[i % 3],
            seed=i,
            mode=SystemMode.XAR_TREK,
            delay_s=i * 0.5,
            calls=2,
        )
        for i in range(12)
    ]
    runtime.wait_all(events)
    load.stop()
    return runtime


class TestPinnedTimelines:
    def test_brownout_run_timeline_is_pinned(self):
        timeline = extract_timeline(_brownout_run())
        text = timeline.to_csv()
        assert len(text.splitlines()) == 51
        kinds = {
            kind: len(timeline.of_kind(kind))
            for kind in ("app-start", "app-end", "decision", "reconfig")
        }
        assert kinds == {"app-start": 12, "app-end": 12, "decision": 24, "reconfig": 2}
        assert timeline.decision_counts() == {
            "arm+reconfig": 5,
            "brownout-x86": 12,
            "fpga": 3,
            "x86": 3,
            "x86+reconfig": 1,
        }
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f95e1de64e3ec1ad29fc622306e8f671b74a2b42be22d111e5f7fd46bb25eaa0"
        )

    def test_tracing_changes_nothing(self):
        traced, plain = _brownout_run(), _brownout_run(trace=False)
        assert plain.records == traced.records
        assert to_json(plain.metrics) == to_json(traced.metrics)
        assert (
            plain.platform.sim.events_processed
            == traced.platform.sim.events_processed
        )

    def test_a_failed_load_adds_no_reconfig_line(self):
        runtime = build_system(["digit.500"], trace=True)
        runtime.platform.fpga.inject_reconfig_failures(1)
        runtime.launch("digit.500", mode=SystemMode.XAR_TREK, calls=4)
        runtime.platform.run()
        stats = runtime.server.stats
        assert stats.reconfigurations_failed == 1
        reconfigs = extract_timeline(runtime).of_kind("reconfig")
        assert len(reconfigs) == stats.reconfigurations_started == 2
        assert all(ev.app == "KNL_HW_DR500" for ev in reconfigs)
