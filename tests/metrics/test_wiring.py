"""End-to-end tests for the wired-in metrics: every hot layer records,
stats views agree with the counters, and exports are seed-deterministic.

The Figure-5-style acceptance run lives here: a high-load instrumented
experiment must report per-target invocation-latency p50/p95/p99, the
scheduler round-trip histogram, and total reconfiguration time — and
two runs with the same seed must export byte-identical JSON and CSV.
"""

import pytest

from repro.core import SystemMode, build_system
from repro.experiments.observability import high_load_metrics, metrics_experiment
from repro.types import Target

pytestmark = pytest.mark.metrics


def _family(snapshot: dict, name: str) -> dict:
    for fam in snapshot["metrics"]:
        if fam["name"] == name:
            return fam
    raise AssertionError(f"metric {name!r} missing from snapshot")


def _series(family: dict, **labels: str) -> dict:
    for series in family["series"]:
        if series["labels"] == labels:
            return series
    raise AssertionError(f"{family['name']} has no series {labels}")


class TestRuntimeWiring:
    @pytest.fixture(scope="class")
    def loaded_run(self):
        """One digit run over background load, metrics captured."""
        runtime = build_system(["digit.2000"], seed=7)
        load = runtime.launch_background(20)
        done = runtime.launch("digit.2000", mode=SystemMode.XAR_TREK, delay_s=0.05)
        runtime.platform.sim.run_until_event(done)
        load.stop()
        return runtime

    def test_scheduler_roundtrip_recorded(self, loaded_run):
        fam = _family(loaded_run.metrics.snapshot(), "scheduler_roundtrip_seconds")
        series = _series(fam)
        assert series["count"] == loaded_run.server.stats.requests > 0
        # At minimum two socket crossings per request (allow float dust).
        floor = 2 * loaded_run.server.socket_latency_s
        assert series["min"] == pytest.approx(floor) or series["min"] > floor

    def test_no_reservoir_generator_before_an_overflow(self, loaded_run):
        """Registering a histogram builds no generator: the metrics
        streams get a ``metrics/<name>`` entry only when a reservoir
        first overflows, which this run's few calls never do."""
        metrics = loaded_run.metrics
        histograms = [
            family
            for family in map(metrics.get, metrics.names())
            if family.kind == "histogram"
        ]
        assert histograms and max(family.count for family in histograms) > 0
        assert all(family.count < family.reservoir_size for family in histograms)
        streams = metrics._rng
        assert [key for key in streams._streams if key.startswith("metrics/")] == []

    def test_cpu_load_gauge_tracks_background(self, loaded_run):
        fam = _family(loaded_run.metrics.snapshot(), "cpu_load")
        x86 = _series(fam, cluster="x86")
        assert x86["max"] >= 20  # the 20 background generators
        assert x86["time_weighted_mean"] > 0

    def test_invocation_latency_labeled_by_serving_target(self, loaded_run):
        fam = _family(loaded_run.metrics.snapshot(), "invocation_latency_seconds")
        counted = {tuple(s["labels"].values()): s["count"] for s in fam["series"]}
        record = loaded_run.records[0]
        for target in set(record.targets):
            assert counted[(str(target),)] > 0

    def test_reconfiguration_time_and_overlap_accounted(self, loaded_run):
        snap = loaded_run.metrics.snapshot()
        total = _series(_family(snap, "fpga_reconfiguration_seconds_total"))["value"]
        hist = _series(_family(snap, "fpga_reconfiguration_seconds"))
        assert hist["count"] >= 1
        assert total == pytest.approx(hist["sum"])
        # The early-configure path hides programming behind busy CPUs:
        # with 20 background spinners the full window overlaps work.
        overlap = _series(
            _family(snap, "fpga_reconfig_overlap_core_seconds_total")
        )["value"]
        assert overlap > 0

    def test_stats_views_match_metrics_counters(self, loaded_run):
        stats = loaded_run.server.stats
        snap = loaded_run.metrics.snapshot()
        requests = _series(_family(snap, "scheduler_requests_total"))["value"]
        assert stats.requests == requests
        decisions = _family(snap, "scheduler_decisions_total")
        for series in decisions["series"]:
            target = next(t for t in Target if str(t) == series["labels"]["target"])
            assert stats.by_target[target] == series["value"]
        assert sum(stats.by_target.values()) == stats.requests
        assert sum(stats.by_rule.values()) == stats.requests


class TestFigure5StyleAcceptance:
    @pytest.fixture(scope="class")
    def run(self):
        return high_load_metrics(set_size=10, total_processes=120, seed=0)

    def test_per_target_latency_percentiles_present(self, run):
        fam = _family(run.snapshot, "invocation_latency_seconds")
        assert fam["series"], "no invocations recorded"
        for series in fam["series"]:
            for key in ("p50", "p95", "p99"):
                assert series["percentiles"][key] > 0

    def test_roundtrip_histogram_and_reconfig_total_present(self, run):
        roundtrip = _series(_family(run.snapshot, "scheduler_roundtrip_seconds"))
        assert roundtrip["count"] > 0
        total = _series(_family(run.snapshot, "fpga_reconfiguration_seconds_total"))
        assert total["value"] >= 0

    def test_report_renders_the_required_rows(self, run):
        text = run.report().to_text()
        assert "invocation_latency_seconds" in text
        assert "scheduler_roundtrip_seconds" in text
        assert "fpga_reconfiguration_seconds_total" in text
        assert "p50" in run.report().headers[4]

    def test_same_seed_exports_are_byte_identical(self):
        a = high_load_metrics(set_size=5, total_processes=110, seed=3)
        b = high_load_metrics(set_size=5, total_processes=110, seed=3)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_different_seed_changes_the_export(self):
        a = high_load_metrics(set_size=5, total_processes=110, seed=3)
        b = high_load_metrics(set_size=5, total_processes=110, seed=4)
        assert a.to_json() != b.to_json()


class TestMetricsExperiment:
    def test_explicit_app_list(self):
        run = metrics_experiment(["cg.A", "digit.500"], background=4, seed=2)
        fam = _family(run.snapshot, "invocations_total")
        apps = {series["labels"]["app"] for series in fam["series"]}
        assert apps == {"cg.A", "digit.500"}
        assert run.outcome.metrics is run.snapshot
