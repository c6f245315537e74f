"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.popcorn import load_xelf
from repro.traffic import TrafficError


class TestList:
    def test_lists_all_paper_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("cg.A", "facedet.320", "digit.2000", "mg.B", "bfs.1000"):
            assert name in out
        assert "KNL_HW_CG_A" in out


class TestTables:
    def test_table_2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "FPGA_THR" in out and "KNL_HW_FD320" in out

    def test_table_3(self, capsys):
        assert main(["table", "3"]) == 0
        assert "102" in capsys.readouterr().out

    def test_invalid_table_number(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "7"])


class TestFigures:
    def test_figure_10(self, capsys):
        assert main(["figure", "10"]) == 0
        out = capsys.readouterr().out
        assert "Popcorn" in out and "Xar-Trek" in out

    def test_figure_3_with_repeats(self, capsys):
        assert main(["figure", "3", "--repeats", "2"]) == 0
        assert "Vanilla Linux/ARM" in capsys.readouterr().out


class TestRun:
    def test_run_vanilla(self, capsys):
        assert main(["run", "digit.500", "--mode", "x86"]) == 0
        out = capsys.readouterr().out
        assert "883" in out  # Table 1's vanilla time
        assert "targets     : x86" in out

    def test_run_with_background_and_verification(self, capsys):
        code = main(
            ["run", "digit.2000", "--mode", "xar-trek", "--background", "40",
             "--functional"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified    : True" in out

    def test_run_throughput_window(self, capsys):
        assert main(
            ["run", "facedet.320", "--mode", "fpga", "--calls", "50",
             "--deadline", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "calls" in out

    def test_unknown_app_raises(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "nonsense.app"])
        assert exit_info.value.code == 2
        assert "no profile for workload 'nonsense.app'" in capsys.readouterr().err


class TestCompile:
    def test_compile_prints_artifacts(self, capsys):
        assert main(["compile", "--apps", "digit.500", "cg.A"]) == 0
        out = capsys.readouterr().out
        assert "multi-ISA binary" in out
        assert "xclbin" in out

    def test_compile_dumps_loadable_xelf(self, capsys, tmp_path):
        assert main(
            ["compile", "--apps", "digit.500", "--output-dir", str(tmp_path)]
        ) == 0
        binary, metadata = load_xelf(tmp_path / "digit.500.xelf")
        assert binary.name == "digit.500"
        assert len(metadata) == 3

    def test_compile_with_replication(self, capsys):
        assert main(["compile", "--apps", "digit.500", "--replicate-cus"]) == 0
        out = capsys.readouterr().out
        assert "compute units" in out
        assert "4" in out  # replicated


class TestTimelineExport:
    def test_run_writes_csv_timeline(self, capsys, tmp_path):
        path = tmp_path / "run.csv"
        assert main(
            ["run", "digit.500", "--mode", "xar-trek", "--timeline", str(path)]
        ) == 0
        content = path.read_text()
        assert content.startswith("time_s,kind,app,detail")
        assert "app-end" in content

    def test_run_writes_json_timeline(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.json"
        assert main(
            ["run", "digit.500", "--mode", "x86", "--timeline", str(path)]
        ) == 0
        decoded = json.loads(path.read_text())
        assert any(ev["kind"] == "app-end" for ev in decoded)


class TestReport:
    def test_quick_report_prints_all_tables_and_most_figures(self, capsys):
        assert main(["report", "--quick"]) == 0
        out = capsys.readouterr().out
        for heading in ("Table 1", "Table 2", "Table 3", "Table 4",
                        "Figure 3", "Figure 6", "Figure 9", "Figure 10"):
            assert heading in out
        assert "Figure 7" not in out  # skipped in quick mode


class TestThresholds:
    def test_thresholds_text(self, capsys):
        assert main(["thresholds", "--apps", "digit.2000", "cg.A"]) == 0
        out = capsys.readouterr().out
        assert "digit.2000" in out and "cg.A" in out


class TestFleet:
    def test_fewer_clients_than_apps_leaves_the_extra_apps_out(self, capsys):
        assert main(["fleet", "--nodes", "2", "--clients", "4"]) == 0
        out = capsys.readouterr().out
        assert "clients     : 4 in 1 cohorts" in out

    def test_one_client_per_app_still_deals_every_app(self, capsys):
        assert main(["fleet", "--nodes", "2", "--clients", "5"]) == 0
        assert "clients     : 5 in 5 cohorts" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value", [("--nodes", "0"), ("--nodes", "-2"), ("--clients", "0"),
                        ("--clients", "three")]
    )
    def test_non_positive_sizes_get_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["fleet", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected an integer >= 1, got {value!r}" in err


class TestCohort:
    def test_fewer_clients_than_apps_leaves_the_extra_apps_out(self, capsys):
        assert main(["cohort", "--clients", "3"]) == 0
        assert "clients     : 3 in 1 cohorts" in capsys.readouterr().out

    def test_one_client_per_app_still_deals_every_app(self, capsys):
        assert main(["cohort", "--clients", "5"]) == 0
        assert "clients     : 5 in 5 cohorts" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-5", "three"])
    def test_non_positive_clients_get_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["cohort", "--clients", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --clients: expected an integer >= 1, got {value!r}" in err


class TestChaos:
    def test_a_trace_with_a_nan_arrival_is_refused(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(
            '{"schema": "xar-trek-traffic-trace/1", "entries": '
            '[{"app": "digit.500", "arrival_s": NaN, "calls": 1}]}'
        )
        with pytest.raises(TrafficError, match="arrival_s"):
            main(["chaos", "--quick", "--traffic", str(path)])


#: An output path whose directory does not exist.
_MISSING_DIR_FILE = "no-such-directory/out.json"
#: An input file that does not exist.
_MISSING_FILE = "no-such-file.json"


class TestArgumentTypes:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "bfs.-5"], "app"),
            (["run", "bfs.2"], "app"),
            (["thresholds", "--apps", "nope"], "--apps"),
            (["cohort", "--apps", "cg.A", "nope"], "--apps"),
            (["metrics", "--apps", "nope"], "--apps"),
            (["figure", "3", "--jobs", "foo"], "--jobs"),
            (["chaos", "--quick", "--jobs", "-1"], "--jobs"),
            # MG-B is a background-load profile, not an application.
            (["run", "mg.B"], "app"),
            (["cohort", "--apps", "mg.B", "--clients", "10"], "--apps"),
            # A negative background count would give Algorithm 2 a load
            # below the number of runnable processes.
            (["run", "digit.500", "--background", "-3"], "--background"),
            (["traffic", "--background", "-5"], "--background"),
            (["cohort", "--background", "-3"], "--background"),
            (["fleet", "--background", "-5"], "--background"),
            # A zero count is a usage error, not a traceback or nan rows.
            (["cohort", "--calls", "0"], "--calls"),
            (["fleet", "--calls", "0"], "--calls"),
            (["run", "digit.500", "--calls", "0"], "--calls"),
            (["traffic", "--calls-max", "0"], "--calls-max"),
            (["figure", "3", "--repeats", "0"], "--repeats"),
            (["report", "--repeats", "0"], "--repeats"),
            (["metrics", "--set-size", "0"], "--set-size"),
            (["metrics", "--total-processes", "-3"], "--total-processes"),
            # Out-of-range or non-finite numbers are usage errors too,
            # not a library traceback or a silently empty run.
            (["run", "digit.500", "--deadline", "-1"], "--deadline"),
            (["run", "digit.500", "--deadline", "0"], "--deadline"),
            (["run", "digit.500", "--deadline", "nan"], "--deadline"),
            (["traffic", "--rate", "0"], "--rate"),
            (["traffic", "--horizon", "0"], "--horizon"),
            (["traffic", "--diurnal-period", "0"], "--diurnal-period"),
            (["traffic", "--diurnal-amplitude", "2"], "--diurnal-amplitude"),
            (["traffic", "--spike-at", "-1"], "--spike-at"),
            (["traffic", "--spike-duration", "-1"], "--spike-duration"),
            (["traffic", "--spike-factor", "0"], "--spike-factor"),
            (["traffic", "--calls-alpha", "0"], "--calls-alpha"),
            (["traffic", "--deadline", "-1"], "--deadline"),
            (["traffic", "--slo-p99", "-1"], "--slo-p99"),
            (["traffic", "--slo-goodput", "2"], "--slo-goodput"),
            (["chaos", "--quick", "--brownout-floor", "1.5"], "--brownout-floor"),
            (["chaos", "--quick", "--slo-p99", "0"], "--slo-p99"),
            (["chaos", "--quick", "--slo-goodput", "-1"], "--slo-goodput"),
            (["chaos", "--quick", "--horizon", "nan"], "--horizon"),
            (["fleet", "--gossip-interval", "0"], "--gossip-interval"),
            # An output file in a missing directory fails before the
            # run, not with a traceback after it.
            (["run", "digit.500", "--timeline", _MISSING_DIR_FILE], "--timeline"),
            (["chaos", "--quick", "--json", _MISSING_DIR_FILE], "--json"),
            (["cohort", "--clients", "10", "--json", _MISSING_DIR_FILE], "--json"),
            (
                ["fleet", "--nodes", "1", "--clients", "10", "--json", _MISSING_DIR_FILE],
                "--json",
            ),
            (["metrics", "--set-size", "1", "--json", _MISSING_DIR_FILE], "--json"),
            (["metrics", "--set-size", "1", "--csv", _MISSING_DIR_FILE], "--csv"),
            (["traffic", "--out", _MISSING_DIR_FILE], "--out"),
            (["run", "digit.500", "--timeline", ""], "--timeline"),
            (["chaos", "--quick", "--emit-plan", _MISSING_DIR_FILE], "--emit-plan"),
            # A missing input file fails the same way, before any run.
            (["chaos", "--quick", "--plan", _MISSING_FILE], "--plan"),
            (["chaos", "--quick", "--traffic", _MISSING_FILE], "--traffic"),
            (["traffic", "--load", _MISSING_FILE], "--load"),
        ],
    )
    def test_bad_values_get_a_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["auto", "0", "2"])
    def test_jobs_accepts_auto_and_counts(self, capsys, jobs):
        assert main(["figure", "10", "--jobs", jobs]) == 0
