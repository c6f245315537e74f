"""Deterministic replay: the engine's tie-breaking promise, end to end.

`sim/engine.py` breaks timestamp ties with a monotone sequence number,
so two deployments built from the same seed must replay *identically* —
not just the same averages, but the same timeline lines, the same metrics
export bytes, and the same scheduler statistics. This is the guarantee
every perf/regression change diffs against. Tracing only observes: the
same scenario run untraced must replay the traced run exactly.
"""

import pytest

from repro.core import SystemMode, build_system
from repro.experiments import extract_timeline
from repro.metrics import to_csv, to_json

pytestmark = pytest.mark.metrics

_APPS = ["digit.2000", "cg.A", "facedet.320"]


def _run_scenario(seed: int, background: int = 30, trace: bool = True):
    """One seeded end-to-end scenario: 3 apps over MG-B background."""
    runtime = build_system(_APPS, seed=seed, trace=trace)
    load = runtime.launch_background(background)
    events = [
        runtime.launch(app, seed=seed * 100 + i, mode=SystemMode.XAR_TREK,
                       delay_s=0.05)
        for i, app in enumerate(_APPS)
    ]
    records = runtime.wait_all(events)
    load.stop()
    return runtime, records


def _stats_text(runtime) -> str:
    stats = runtime.server.stats
    return repr((
        stats.requests,
        sorted((str(t), n) for t, n in stats.by_target.items()),
        sorted(stats.by_rule.items()),
        stats.reconfigurations_started,
        stats.reconfigurations_skipped,
        stats.reconfigurations_failed,
    ))


#: The seed-11 scenario's timeline CSV: every app span, each Algorithm 2
#: decision with its load and rule, and the early-configure load.
_REPLAY_TIMELINE = [
    "time_s,kind,app,detail",
    "0.050000000,app-start,facedet.320,seed=1102",
    "0.050000000,app-start,cg.A,seed=1101",
    "0.050000000,app-start,digit.2000,seed=1100",
    "0.050000000,reconfig,KNL_HW_DR200,image=xclbin_auto0",
    "0.107800000,decision,facedet.320,load=33 target=arm rule=arm+reconfig",
    "0.427378967,decision,digit.2000,load=32 target=arm rule=arm+reconfig",
    "0.627231233,decision,cg.A,load=31 target=arm rule=arm+reconfig",
    "0.737543492,app-end,facedet.320,elapsed=0.687543 targets=arm",
    "8.908475995,app-end,cg.A,elapsed=8.858476 targets=arm",
    "9.311903975,app-end,digit.2000,elapsed=9.261904 targets=arm",
]


class TestDeterministicReplay:
    @pytest.fixture(scope="class")
    def twin_runs(self):
        return _run_scenario(seed=11), _run_scenario(seed=11)

    def test_traces_are_byte_identical(self, twin_runs):
        (first, _), (second, _) = twin_runs
        timeline = extract_timeline(first)
        assert timeline.to_csv() == extract_timeline(second).to_csv()
        assert timeline.of_kind("decision")

    def test_timeline_bytes_are_pinned(self, twin_runs):
        (first, _), _ = twin_runs
        assert extract_timeline(first).to_csv().splitlines() == _REPLAY_TIMELINE

    def test_metrics_exports_are_byte_identical(self, twin_runs):
        (first, _), (second, _) = twin_runs
        assert to_json(first.metrics) == to_json(second.metrics)
        assert to_csv(first.metrics) == to_csv(second.metrics)

    def test_server_stats_are_identical(self, twin_runs):
        (first, _), (second, _) = twin_runs
        assert _stats_text(first) == _stats_text(second)
        assert first.server.stats.requests > 0

    def test_run_records_are_identical(self, twin_runs):
        (_, records_a), (_, records_b) = twin_runs
        for a, b in zip(records_a, records_b):
            assert (a.app, a.elapsed_s, a.targets, a.calls_completed,
                    a.migrations) == (
                b.app, b.elapsed_s, b.targets, b.calls_completed, b.migrations)

    def test_different_scenario_diverges(self, twin_runs):
        # Not a tautology: a perturbed scenario must change the export
        # (the byte-equality above isn't comparing empty snapshots).
        (first, _), _ = twin_runs
        other, _records = _run_scenario(seed=11, background=31)
        assert to_json(first.metrics) != to_json(other.metrics)


def test_tracing_changes_nothing():
    traced, _ = _run_scenario(seed=11)
    plain, _ = _run_scenario(seed=11, trace=False)
    assert plain.records == traced.records
    assert to_json(plain.metrics) == to_json(traced.metrics)
    assert (
        plain.platform.sim.events_processed
        == traced.platform.sim.events_processed
    )
    assert extract_timeline(plain).of_kind("decision") == []
