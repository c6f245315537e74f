"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the workload registry with calibrated per-target times;
* ``table {1,2,3,4}`` / ``figure {3..10}`` — regenerate one of the
  paper's tables/figures and print it;
* ``run APP`` — one application run on the simulated testbed under a
  chosen system and background load;
* ``compile`` — run the compiler pipeline (steps A-G) over a set of
  applications, print the artifact summary, optionally dump XELF
  binaries to a directory;
* ``thresholds`` — print step G's threshold table (Table 2's format);
* ``metrics`` — run an instrumented application set (Figure-5-style by
  default) and print/export the metrics report (see
  ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.compiler import XarTrekCompiler
from repro.core import SystemMode, build_system
from repro.core.runtime import spec_for
from repro.experiments.report import REPORT_FIGURES as _FIGURES
from repro.experiments.report import REPORT_TABLES as _TABLES
from repro.popcorn.elf import dump_xelf
from repro.workloads import (
    PAPER_BENCHMARKS,
    CalibrationError,
    available_workloads,
    profile_for,
)

__all__ = ["main"]

_MODES = {
    "x86": SystemMode.VANILLA_X86,
    "arm": SystemMode.VANILLA_ARM,
    "fpga": SystemMode.ALWAYS_FPGA,
    "xar-trek": SystemMode.XAR_TREK,
}


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """The parallel-sweep knobs shared by figure/table/report."""
    parser.add_argument("--jobs", type=_jobs, default=None, metavar="N",
                        help="worker processes for sweep cells (0 or "
                        "'auto' = all CPUs; default: 1)")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="content-addressed on-disk result cache for "
                        "sweep cells (reruns only simulate changed cells)")


def _int_at_least(minimum: int):
    """An argparse type: an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}"
            )
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _jobs(text: str) -> int | str:
    """An argparse type for ``--jobs``: ``auto`` or an integer >= 0."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or an integer >= 0, got {text!r}"
        )
    return value


def _workload(text: str) -> str:
    """An argparse type: a workload name with a calibrated profile and
    a hardware kernel (MG-B only generates background load)."""
    try:
        profile = profile_for(text)
    except (KeyError, CalibrationError) as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    if not profile.kernel_name:
        raise argparse.ArgumentTypeError(
            f"{text!r} is a background-load profile with no hardware "
            "kernel, not an application"
        )
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Xar-Trek reproduction: simulate run-time execution "
        "migration among FPGAs and heterogeneous-ISA CPUs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and their calibrated profiles")

    table = sub.add_parser("table", help="regenerate one of the paper's tables")
    table.add_argument("number", type=int, choices=sorted(_TABLES))
    _add_sweep_flags(table)

    figure = sub.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("number", type=int, choices=sorted(_FIGURES))
    figure.add_argument("--repeats", type=_positive_int, default=10,
                        help="repeats for the randomized-set figures (3-5)")
    figure.add_argument("--seed", type=int, default=0)
    _add_sweep_flags(figure)

    run = sub.add_parser("run", help="run one application on the testbed")
    run.add_argument("app", type=_workload,
                     help="workload name, e.g. digit.2000 or bfs.1000")
    run.add_argument("--mode", choices=sorted(_MODES), default="xar-trek")
    run.add_argument("--background", type=_non_negative_int, default=0,
                     help="MG-B load generators on the x86 host")
    run.add_argument("--calls", type=_positive_int, default=None,
                     help="override calls per run (throughput app)")
    run.add_argument("--deadline", type=float, default=None,
                     help="stop issuing calls after this many seconds")
    run.add_argument("--functional", action="store_true",
                     help="also execute the real kernel and verify")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--timeline", default=None, metavar="FILE",
                     help="write a CSV timeline of the run (.json for JSON)")

    report = sub.add_parser(
        "report", help="regenerate every table and figure (EXPERIMENTS.md data)"
    )
    report.add_argument("--repeats", type=_positive_int, default=10)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--quick", action="store_true",
                        help="3 repeats and skip the periodic figures")
    _add_sweep_flags(report)

    compile_cmd = sub.add_parser("compile", help="run compiler steps A-G")
    compile_cmd.add_argument("--apps", nargs="+", type=_workload,
                             default=list(PAPER_BENCHMARKS))
    compile_cmd.add_argument("--replicate-cus", action="store_true",
                             help="space-sharing: replicate compute units")
    compile_cmd.add_argument("--output-dir", default=None,
                             help="dump XELF binaries here")

    thresholds = sub.add_parser("thresholds", help="print step G's table")
    thresholds.add_argument("--apps", nargs="+", type=_workload,
                            default=list(PAPER_BENCHMARKS))

    chaos = sub.add_parser(
        "chaos",
        help="run the scale_stress workload under a fault plan and "
        "verify graceful degradation",
    )
    chaos.add_argument("--plan", default=None, metavar="FILE",
                       help="fault plan JSON (default: generate from --seed)")
    chaos.add_argument("--quick", action="store_true",
                       help="reduced fleet for CI smoke runs")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--json", default=None, metavar="FILE",
                       help="also write the chaos report as JSON")
    chaos.add_argument("--emit-plan", default=None, metavar="FILE",
                       help="write the (possibly generated) plan here and exit")
    chaos.add_argument("--jobs", type=_jobs, default=None, metavar="N",
                       help="run the baseline and chaos legs in N>1 pool "
                       "workers (0 or 'auto' = all CPUs; default: serial)")
    chaos.add_argument("--traffic", default=None, metavar="FILE",
                       help="replay this traffic trace JSON (see `repro "
                       "traffic`) instead of the seeded workload")
    chaos.add_argument("--brownout-floor", type=float, default=None,
                       metavar="FRACTION",
                       help="judge by the brownout contract with this "
                       "goodput floor instead of completion_rate == 1.0")
    chaos.add_argument("--slo-p99", type=float, default=None, metavar="SECONDS",
                       help="score every app in the workload against this "
                       "p99 latency target")
    chaos.add_argument("--slo-goodput", type=float, default=None,
                       metavar="FRACTION",
                       help="score every app against this deadline-goodput "
                       "floor")
    chaos.add_argument("--horizon", type=float, default=None, metavar="SECONDS",
                       help="scenario horizon; refuses plans whose faults "
                       "would fire past it")

    traffic = sub.add_parser(
        "traffic",
        help="generate, inspect, or replay a trace-driven open-loop "
        "arrival workload (diurnal + flash-crowd spikes)",
    )
    traffic.add_argument("--load", default=None, metavar="FILE",
                         help="load an existing trace JSON instead of "
                         "generating one")
    traffic.add_argument("--apps", nargs="+", type=_workload, default=None,
                         help="applications the crowd calls (default: the "
                         "interactive benchmarks)")
    traffic.add_argument("--rate", type=float, default=3.0, metavar="PER_S",
                         help="base arrival rate (clients/second)")
    traffic.add_argument("--horizon", type=float, default=30.0,
                         metavar="SECONDS", help="arrivals stop here")
    traffic.add_argument("--diurnal-period", type=float, default=30.0,
                         metavar="SECONDS", help="diurnal cycle length")
    traffic.add_argument("--diurnal-amplitude", type=float, default=0.4,
                         help="diurnal swing in [0, 1); 0 disables it")
    traffic.add_argument("--spike-at", type=float, default=None,
                         metavar="SECONDS", help="flash-crowd spike start")
    traffic.add_argument("--spike-duration", type=float, default=5.0,
                         metavar="SECONDS")
    traffic.add_argument("--spike-factor", type=float, default=10.0,
                         help="rate multiplier while the spike is active")
    traffic.add_argument("--calls-alpha", type=float, default=1.5,
                         help="Pareto tail index for session lengths")
    traffic.add_argument("--calls-max", type=_positive_int, default=4,
                         help="session-length cap (calls per client)")
    traffic.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="per-client completion deadline")
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument("--out", default=None, metavar="FILE",
                         help="write the trace as replayable JSON")
    traffic.add_argument("--replay", action="store_true",
                         help="replay the trace through the simulated "
                         "deployment and report per-app SLO scores")
    traffic.add_argument("--background", type=_non_negative_int, default=10,
                         help="resident background processes during replay")
    traffic.add_argument("--slo-p99", type=float, default=None,
                         metavar="SECONDS",
                         help="with --replay: per-app p99 latency target")
    traffic.add_argument("--slo-goodput", type=float, default=None,
                         metavar="FRACTION",
                         help="with --replay: per-app deadline-goodput floor")

    cohort = sub.add_parser(
        "cohort",
        help="run a cohort-vectorized client population (O(cohorts) "
        "events for thousands of clients)",
    )
    cohort.add_argument("--clients", type=_positive_int, default=10_000,
                        help="total clients across all cohorts (an app "
                        "dealt none is left out)")
    cohort.add_argument("--calls", type=_positive_int, default=5,
                        help="scheduler calls per client")
    cohort.add_argument("--apps", nargs="+", type=_workload, default=None,
                        help="applications, one cohort each (default: the "
                        "paper benchmark set)")
    cohort.add_argument("--background", type=_non_negative_int, default=50,
                        help="static background processes on the x86 host")
    cohort.add_argument("--seed", type=int, default=0)
    cohort.add_argument("--json", default=None, metavar="FILE",
                        help="also write the per-cohort summary as JSON")

    fleet = sub.add_parser(
        "fleet",
        help="shard a client population across a multi-node fleet "
        "(gossip + two-level placement)",
    )
    fleet.add_argument("--nodes", type=_positive_int, default=4,
                       help="complete x86+ARM+FPGA nodes in the fleet")
    fleet.add_argument("--clients", type=_positive_int, default=10_000,
                       help="total clients across all cohorts (an app "
                       "dealt none is left out)")
    fleet.add_argument("--calls", type=_positive_int, default=5,
                       help="scheduler calls per client")
    fleet.add_argument("--apps", nargs="+", type=_workload, default=None,
                       help="applications, one cohort each (default: the "
                       "paper benchmark set)")
    fleet.add_argument("--background", type=_non_negative_int, default=20,
                       help="background processes per node")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--gossip-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="load-digest publication interval (bounds "
                       "placement staleness)")
    fleet.add_argument("--faults", action="store_true",
                       help="generate a per-node fault plan (half the "
                       "nodes) and arm it against the run")
    fleet.add_argument("--json", default=None, metavar="FILE",
                       help="also write the per-node summary as JSON")

    metrics = sub.add_parser(
        "metrics",
        help="run an instrumented application set and report p50/p95/p99",
    )
    metrics.add_argument("--apps", nargs="+", type=_workload, default=None,
                         help="explicit app list (default: sample like Figure 5)")
    metrics.add_argument("--set-size", type=_positive_int, default=10,
                         help="sampled set size when --apps is not given")
    metrics.add_argument("--total-processes", type=int, default=120,
                         help="target process count incl. MG-B background")
    metrics.add_argument("--mode", choices=sorted(_MODES), default="xar-trek")
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--json", default=None, metavar="FILE",
                         help="also write the snapshot as deterministic JSON")
    metrics.add_argument("--csv", default=None, metavar="FILE",
                         help="also write the snapshot as deterministic CSV")
    return parser


def _cmd_list() -> int:
    from repro.experiments.report import format_table

    rows = []
    # facedet.multi shares facedet.320's profile; skip the alias.
    names = [n for n in available_workloads() if n != "facedet.multi"]
    for name in (*names, "bfs.1000", "bfs.5000"):
        profile = profile_for(name)
        rows.append(
            [
                name,
                profile.kernel_name or "-",
                f"{profile.vanilla_x86_s * 1e3:.1f}",
                f"{profile.x86_fpga_s * 1e3:.1f}" if profile.fpga_capable else "-",
                f"{profile.x86_arm_s * 1e3:.1f}" if profile.arm_capable else "-",
                profile.calls_per_run,
            ]
        )
    print(
        format_table(
            ["workload", "hw kernel", "x86 (ms)", "x86/FPGA (ms)", "x86/ARM (ms)", "calls"],
            rows,
        )
    )
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    import repro.experiments as experiments

    fn = getattr(experiments, _TABLES[args.number])
    if args.number == 1:
        result = fn(jobs=args.jobs, cache=args.cache)
    else:
        result = fn()
    print(result.to_text())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    import repro.experiments as experiments

    number = args.number
    fn = getattr(experiments, _FIGURES[number])
    if number in (3, 4, 5):
        result = fn(
            repeats=args.repeats, seed=args.seed, jobs=args.jobs, cache=args.cache
        )
    elif number == 6:
        result = fn(seed=args.seed, jobs=args.jobs, cache=args.cache)
    elif number in (7, 8, 9):
        result = fn(seed=args.seed)
    else:
        result = fn()
    print(result.to_text())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report, sweep_stats_section

    for result in generate_report(
        repeats=args.repeats, seed=args.seed, quick=args.quick,
        jobs=args.jobs, cache=args.cache,
    ):
        print(result.to_text())
        print()
    print(sweep_stats_section().to_text())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    mode = _MODES[args.mode]
    trace = bool(args.timeline)
    runtime = build_system([args.app], seed=args.seed, trace=trace)
    load = runtime.launch_background(args.background) if args.background else None
    done = runtime.launch(
        args.app, seed=args.seed, mode=mode, calls=args.calls,
        deadline_s=args.deadline, functional=args.functional, delay_s=0.01,
    )
    record = runtime.platform.sim.run_until_event(done)
    if load is not None:
        load.stop()
    print(f"application : {record.app}")
    print(f"system      : {mode.value}")
    print(f"elapsed     : {record.elapsed_s * 1e3:.1f} ms")
    print(f"calls       : {record.calls_completed}")
    print(f"targets     : {', '.join(str(t) for t in record.targets) or '-'}")
    print(f"migrations  : {record.migrations}")
    if args.functional:
        print(f"verified    : {record.verified}")
    if args.timeline:
        from repro.experiments import extract_timeline

        timeline = extract_timeline(runtime)
        payload = (
            timeline.to_json()
            if args.timeline.endswith(".json")
            else timeline.to_csv()
        )
        with open(args.timeline, "w") as handle:
            handle.write(payload)
        print(f"timeline    : {args.timeline} ({len(timeline)} events)")
    if record.verified is False:
        return 1
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    compiler = XarTrekCompiler(replicate_compute_units=args.replicate_cus)
    result = compiler.compile(spec_for(args.apps))
    for name, app in result.applications.items():
        binary = app.compiled.binary
        print(
            f"{name:14s} multi-ISA binary {binary.size_bytes / 1e6:5.2f} MB "
            f"({len(binary.symbols)} symbols, "
            f"{len(app.compiled.metadata)} migration points)"
        )
    for image_name, image in result.xclbins.items():
        cus = {k: image.compute_units(k) for k in image.kernel_names}
        print(f"{image_name}: {image.size_bytes / 1e6:.2f} MB, compute units {cus}")
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        for name, app in result.applications.items():
            path = os.path.join(args.output_dir, f"{name}.xelf")
            size = dump_xelf(path, app.compiled.binary, app.compiled.metadata)
            print(f"wrote {path} ({size} bytes)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.experiments.observability import high_load_metrics, metrics_experiment

    mode = _MODES[args.mode]
    if args.apps:
        background = max(0, args.total_processes - len(args.apps))
        run = metrics_experiment(
            args.apps, mode=mode, background=background, seed=args.seed
        )
    else:
        run = high_load_metrics(
            set_size=args.set_size,
            total_processes=args.total_processes,
            mode=mode,
            seed=args.seed,
        )
    print(run.report().to_text())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(run.to_json())
        print(f"json        : {args.json}")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(run.to_csv())
        print(f"csv         : {args.csv}")
    return 0


def _slo_targets(apps, p99, goodput):
    """Uniform per-app SLO targets from the CLI's two knobs."""
    from repro.traffic import SLOTarget

    if p99 is None and goodput is None:
        return ()
    return tuple(
        SLOTarget(app, p99_latency_s=p99, goodput_floor=goodput)
        for app in sorted(apps)
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.faults import BrownoutCriteria, FaultPlan, default_plan, run_chaos

    if args.plan:
        plan = FaultPlan.from_file(args.plan)
    else:
        plan = default_plan(args.seed)
    if args.emit_plan:
        plan.to_file(args.emit_plan)
        print(f"plan        : {args.emit_plan} ({len(plan)} faults)")
        return 0
    traffic = None
    if args.traffic:
        from repro.traffic import Trace

        traffic = Trace.load(args.traffic)
    brownout = (
        BrownoutCriteria(goodput_floor=args.brownout_floor)
        if args.brownout_floor is not None
        else None
    )
    apps = (
        sorted({entry.app for entry in traffic})
        if traffic is not None
        else sorted(set(PAPER_BENCHMARKS))
    )
    report = run_chaos(
        plan=plan, seed=args.seed, quick=args.quick, jobs=args.jobs,
        traffic=traffic, brownout=brownout,
        slo=_slo_targets(apps, args.slo_p99, args.slo_goodput),
        horizon_s=args.horizon,
    )
    print(f"legs        : {report.mode}")
    print(report.to_text())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"json        : {args.json}")
    return 0 if report.ok else 1


def _deal_cohorts(args: argparse.Namespace):
    """``(apps, specs)``: ``--clients`` dealt across ``--apps``.

    Each app gets an equal share and the first also the remainder, as
    one cohort whose arrival law cycles through uniform, poisson and
    staggered. With fewer clients than apps the first app is dealt
    them all, and an app dealt none gets no cohort.
    """
    import numpy as np

    from repro.core.cohort import ArrivalLaw, CohortSpec

    apps = tuple(sorted(set(args.apps or PAPER_BENCHMARKS)))
    laws = ("uniform", "poisson", "staggered")
    rng = np.random.default_rng(args.seed)
    per_app = args.clients // len(apps)
    specs = []
    for index, app in enumerate(apps):
        clients = per_app + (args.clients - per_app * len(apps) if index == 0 else 0)
        if not clients:
            continue
        specs.append(
            CohortSpec(
                app,
                clients,
                calls=args.calls,
                arrival=ArrivalLaw(
                    laws[index % len(laws)],
                    start=float(rng.uniform(0.0, 5.0)),
                    span=30.0,
                ),
                seed=int(rng.integers(2**32)),
            )
        )
    return apps, specs


def _cmd_cohort(args: argparse.Namespace) -> int:
    import json

    apps, specs = _deal_cohorts(args)
    result = build_system(apps, seed=args.seed).run_cohorts(
        specs, background=args.background
    )
    print(f"path        : {result.path}")
    print(f"clients     : {result.clients} in {len(result.cohorts)} cohorts")
    print(f"sim events  : {result.sim_events}")
    print(f"logical     : {result.logical_events} client events")
    print(f"sim seconds : {result.sim_seconds:.3f}")
    for target, count in sorted(result.served_by_target().items()):
        print(f"served {target.name.lower():<5}: {count}")
    if result.fault_fallbacks:
        print(f"fallbacks   : {result.fault_fallbacks}")
    for line in result.lines():
        print(f"  {line}")
    if args.json:
        payload = {
            "path": result.path,
            "clients": result.clients,
            "sim_events": result.sim_events,
            "logical_events": result.logical_events,
            "sim_seconds": result.sim_seconds,
            "decisions_by_target": {
                t.name.lower(): c for t, c in result.decisions_by_target.items()
            },
            "decisions_by_rule": result.decisions_by_rule,
            "fault_fallbacks": result.fault_fallbacks,
            "lines": result.lines(),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"json        : {args.json}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import FleetConfig, FleetDeployment

    apps, specs = _deal_cohorts(args)
    fleet = FleetDeployment(
        FleetConfig(
            nodes=args.nodes,
            apps=apps,
            seed=args.seed,
            gossip_interval_s=args.gossip_interval,
        )
    )
    fault_plans = None
    if args.faults:
        from repro.faults import FleetFaultPlan

        kernels = sorted(
            {
                profile_for(app).kernel_name
                for app in apps
                if profile_for(app).kernel_name
            }
        )
        fleet_plan = FleetFaultPlan.generate(
            args.seed, args.nodes, horizon_s=40.0, kernels=kernels
        )
        fault_plans = dict(fleet_plan.plans)
        counts = ", ".join(
            f"{kind}={count}" for kind, count in fleet_plan.counts_by_kind().items()
        )
        print(f"fault plan  : {len(fleet_plan)} faults on "
              f"{len(fleet_plan.plans)}/{args.nodes} nodes ({counts})")
    result = fleet.run_cohorts(
        specs, background=args.background, fault_plans=fault_plans
    )
    fleet.stop()

    print(f"nodes       : {args.nodes}")
    print(f"clients     : {result.clients} in {len(specs)} cohorts")
    print(f"assigned    : {','.join(str(c) for c in result.assigned_per_node)} "
          f"(skew {result.assignment_skew()})")
    print(f"sim events  : {result.sim_events}")
    print(f"logical     : {result.logical_events} client events")
    print(f"sim seconds : {result.sim_seconds:.3f} (slowest node)")
    print(f"gossip      : {fleet.gossip.rounds} rounds every "
          f"{args.gossip_interval:g}s")
    if result.fault_fallbacks:
        print(f"fallbacks   : {result.fault_fallbacks}")
    for index, node_result in result.node_results:
        print(f"  node{index}: {node_result.clients} clients, "
              f"{node_result.logical_events} events, "
              f"{node_result.sim_seconds:.3f}s, path={node_result.path}")
    if args.json:
        payload = {
            "nodes": args.nodes,
            "clients": result.clients,
            "assigned_per_node": result.assigned_per_node,
            "assignment_skew": result.assignment_skew(),
            "sim_events": result.sim_events,
            "logical_events": result.logical_events,
            "sim_seconds": result.sim_seconds,
            "gossip_rounds": fleet.gossip.rounds,
            "fault_fallbacks": result.fault_fallbacks,
            "per_node": [
                {
                    "node": index,
                    "clients": node_result.clients,
                    "logical_events": node_result.logical_events,
                    "sim_seconds": node_result.sim_seconds,
                    "path": node_result.path,
                }
                for index, node_result in result.node_results
            ],
            "lines": result.lines(),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"json        : {args.json}")
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.traffic import SpikeWindow, Trace, TrafficSpec, generate_trace

    if args.load:
        trace = Trace.load(args.load)
        print(f"trace       : {args.load}")
    else:
        spikes = ()
        if args.spike_at is not None:
            spikes = (
                SpikeWindow(
                    at_s=args.spike_at,
                    duration_s=args.spike_duration,
                    factor=args.spike_factor,
                ),
            )
        apps = tuple(sorted(set(
            args.apps or ("digit.500", "facedet.320", "facedet.640")
        )))
        spec = TrafficSpec(
            apps=apps,
            base_rate_per_s=args.rate,
            horizon_s=args.horizon,
            diurnal_period_s=args.diurnal_period,
            diurnal_amplitude=args.diurnal_amplitude,
            spikes=spikes,
            calls_alpha=args.calls_alpha,
            calls_max=args.calls_max,
            deadline_s=args.deadline,
            seed=args.seed,
        )
        trace = generate_trace(spec)
        print(f"peak rate   : {spec.peak_rate_per_s:g} clients/s")
    per_app: dict[str, int] = {}
    for entry in trace:
        per_app[entry.app] = per_app.get(entry.app, 0) + 1
    print(f"clients     : {len(trace)} ({trace.total_calls} calls, "
          f"seed {trace.seed})")
    print(f"horizon     : {trace.horizon_s:g} s")
    for app, count in sorted(per_app.items()):
        print(f"  {app:<14}: {count} clients")
    if args.out:
        trace.save(args.out)
        print(f"json        : {args.out}")
    if args.replay:
        from repro.faults.harness import _run_workload
        from repro.traffic import SLOTracker

        _runtime, records = _run_workload(
            trace.seed, len(trace), args.background, None, None,
            trace, trace.horizon_s or None,
        )
        tracker = SLOTracker(
            _slo_targets(per_app, args.slo_p99, args.slo_goodput)
        )
        tracker.observe_all(records)
        finished = sum(1 for rec in records if rec.finished)
        print(f"replay      : {finished}/{len(records)} clients finished")
        for line in tracker.lines():
            print(f"  {line}")
        if any(report.violations for report in tracker.score().values()):
            return 1
    return 0


def _cmd_thresholds(apps: list[str]) -> int:
    result = XarTrekCompiler().compile(spec_for(apps))
    print(result.thresholds.to_text(), end="")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "thresholds":
        return _cmd_thresholds(args.apps)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "traffic":
        return _cmd_traffic(args)
    if args.command == "cohort":
        return _cmd_cohort(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
