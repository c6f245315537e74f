"""Benchmark of the Xar-Trek simulator: four workloads, end to end.

Usage (from the repository root)::

    python3 bench/run.py --seed 0                 # all four workloads
    python3 bench/run.py --workload paper_grid --seed 1 --seconds 15
    python3 bench/run.py --seed 0 --trace         # per-layer numbers
    python3 bench/compare.py A.json B.json

Every measurement runs in a fresh child process (``bench/worker.py``)
with one thread, no worker pool and a pinned environment, one at a
time. The untraced run reports the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace`` runs the workload untraced and then
traced (half of ``--seconds`` each) and reports the per-layer metrics,
including the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A results file with every
run, the checks, the host and the environment goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("percall_scale", "flash_crowd", "fleet_cohort", "paper_grid")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
#: Fresh set-up-only processes per run; the measuring child adds one
#: more sample, and setup_s is the median.
SETUP_SAMPLES = 10
SETUP_TIMEOUT_S = 60.0
MEASURE_TIMEOUT_S = 150.0
SCHEMA = "xar-trek-bench-results/1"


class BenchError(Exception):
    """A child failed or the benchmark cannot run here."""


def host_block() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def child_env() -> dict:
    """The children's whole environment: nothing from the caller's
    shell but ``PATH``, so no ``REPRO_*`` switch (or any other stray
    variable) can change what is measured."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(args: list[str], timeout_s: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds until it reported ready, result).

    The child is killed if it outlives ``timeout_s`` and is always
    waited for.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or not ready.startswith('{"ready"'):
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    lines = rest.strip().splitlines()
    return ready_s, json.loads(lines[-1]) if lines else None


def measure(workload: str, seed: int, seconds: float, passes, mode: str,
            trace_out: str | None = None) -> tuple[float, dict]:
    args = ["--workload", workload, "--seed", str(seed), "--mode", mode,
            "--seconds", repr(seconds)]
    if passes is not None:
        args += ["--passes", str(passes)]
    if trace_out:
        args += ["--trace-out", trace_out]
    return spawn(args, MEASURE_TIMEOUT_S)


def run_untraced(workload: str, seed: int, seconds: float, passes) -> dict:
    """End-to-end metrics. Host times are on the calibrated scale of
    ``worker.wall_estimate``; the raw numbers go to the results file."""
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_SAMPLES):
        ready_s, calibration = spawn(
            ["--workload", workload, "--seed", str(seed), "--mode", "setup"],
            SETUP_TIMEOUT_S,
        )
        setup_raw.append(ready_s)
        setup_scaled.append(ready_s * calibration["scale"])
    ready_s, result = measure(workload, seed, seconds, passes, "measure")
    setup_raw.append(ready_s)
    setup_scaled.append(ready_s * result["scale"])
    sim = result["sim"]
    metrics = {
        "wall_s": result["wall_s"],
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "sim_latency_p50_s": sim["latency_p50_s"],
        "sim_latency_tail_s": sim["latency_tail_s"],
        "sim_goodput": sim["goodput"],
    }
    checks = common_checks(result)
    checks["held_out_seed_differs"] = bool(result["held_out_differs"])
    return {
        "metrics": metrics,
        "checks": checks,
        "attempted": len(result["walls"]) + 2,
        "failed": result["failed"],
        "iterations": len(result["walls"]),
        "replicas": result["replicas"],
        "checksums": result["checksums"],
        "raw_wall_s": result["raw_wall_s"],
        "quiet_fraction": result["quiet_fraction"],
        "raw_setup_samples": setup_raw,
        "calibrations": result["calibrations"],
        "tail": {"q": sim["latency_tail_q"], "n": sim["latency_n"]},
        "ops_failed_frac": sim["ops_failed_frac"],
        "wall_p90_s": result["wall_p90_s"],
        "diagnostics": result.get("diagnostics", {}),
    }


def run_traced(workload: str, seed: int, seconds: float, passes, trace_out: str) -> dict:
    from trace import layer_metrics

    _ready, untraced = measure(workload, seed, seconds / 2, passes, "measure")
    _ready, traced = measure(workload, seed, seconds / 2, passes, "trace", trace_out)
    checks = common_checks(untraced)
    checks.update({f"traced_{k}": v for k, v in common_checks(traced).items()})
    checks["traced_matches_untraced"] = traced["checksums"] == untraced["checksums"]
    checks["held_out_seed_differs"] = bool(untraced["held_out_differs"])
    return {
        "metrics": layer_metrics(traced, untraced),
        "checks": checks,
        "attempted": len(untraced["walls"]) + len(traced["walls"]) + 3,
        "failed": untraced["failed"] + traced["failed"],
        "iterations": len(traced["walls"]),
        "replicas": traced["replicas"],
        "checksums": traced["checksums"],
        "trace_file": os.path.relpath(trace_out, ROOT),
    }


def common_checks(result: dict) -> dict:
    return {
        "checksums_repeat": result["failed"] == 0,
        "clients_conserved": all(
            attempted > 0 and completed + shed + unfinished == attempted
            for attempted, completed, shed, unfinished in result["conservation"]
        ),
    }


def report(workload: str, run: dict, names: dict) -> None:
    print(f"== {workload}  ({run['iterations']} iterations over "
          f"{run['replicas']} replica inputs)")
    for name, value in run["metrics"].items():
        note = ""
        if name == "sim_latency_tail_s":
            note = f"  (p{run['tail']['q']:g} of n={run['tail']['n']})"
        print(f"  {name:32s} {value:>16.6g} {names[name]['unit']}{note}")
    for name, diag in run.get("diagnostics", {}).items():
        low, high = diag["paper_band_pct"]
        value = diag["value"]
        error = 0.0 if low <= value <= high else min(abs(value - low), abs(value - high))
        print(f"  {name:32s} {value:>16.6g} %  (paper {low:g}-{high:g} %, "
              f"error {error:.1f} pp)")
    if "ops_failed_frac" in run:
        print(f"  {'ops_failed_frac':32s} {run['ops_failed_frac']:>16.6g} ratio  "
              f"(wall p90 {run['wall_p90_s']:.4f} s)")
    failed = [name for name, ok in run["checks"].items() if not ok]
    print("  checks: " + ("all passed" if not failed else "FAILED " + ", ".join(failed)))


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (1 is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="measuring time per run (split in two with --trace)")
    parser.add_argument("--passes", "--iterations", type=int, default=None,
                        dest="passes",
                        help="measure N passes over the replica inputs instead "
                             "of --seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced run with per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="independent runs per workload (for compare.py)")
    parser.add_argument("--out", default=None, help="results JSON path")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = {m["name"]: m for m in benchmark["per_layer" if trace else "end_to_end"]}
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if trace else "")
    out_dir = ROOT / "bench" / "out"
    results = {
        "schema": SCHEMA,
        "host": host_block(),
        # The pinned part of the children's environment (PATH is the
        # caller's), with the checkout's location left out.
        "env": {**{k: v for k, v in child_env().items() if k != "PATH"},
                "PYTHONPATH": "<checkout>/src"},
        "seed": args.seed,
        "trace": trace,
        "config": {"seconds": args.seconds, "passes": args.passes},
        "workloads": {},
    }
    correct, attempted, failed = True, 0, 0
    final_metrics: dict = {}
    for workload in selected:
        runs = []
        for index in range(args.runs):
            try:
                if trace:
                    run = run_traced(
                        workload, args.seed, args.seconds, args.passes,
                        str(out_dir / f"bench-trace-{workload}-seed{args.seed}.json"),
                    )
                else:
                    run = run_untraced(workload, args.seed, args.seconds, args.passes)
            except BenchError as exc:
                print(f"{workload}: {exc}", file=sys.stderr)
                return 1
            run["checks"]["metric_names_declared"] = (
                set(run["metrics"]) == set(names)
                and all(NAME_RE.match(name) for name in run["metrics"])
            )
            report(workload if args.runs == 1 else f"{workload} run {index + 1}", run, names)
            correct = correct and all(run["checks"].values())
            attempted += run["attempted"]
            failed += run["failed"]
            runs.append(run)
        results["workloads"][workload] = {"runs": runs}
        medians = {
            name: statistics.median(run["metrics"][name] for run in runs)
            for name in names
        }
        final_metrics[workload] = {
            name: {"value": value, "unit": names[name]["unit"]}
            for name, value in medians.items()
        }
    results["correct"] = correct
    out = Path(args.out) if args.out else out_dir / f"results-{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"results: {out}")
    summary = {"correct": correct, "attempted": attempted, "failed": failed}
    summary["metrics"] = (
        final_metrics[selected[0]] if len(selected) == 1 else final_metrics
    )
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
