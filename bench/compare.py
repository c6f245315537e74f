"""Compare two benchmark results files run by run.py.

    python3 bench/compare.py A.json B.json

For every (workload, metric) pair it prints each side's median and
quartiles and a verdict for B against A, using the bound and direction
``BENCHMARK.json`` declares:

* ``better`` / ``worse``: the medians differ by more than the bound;
* ``unchanged``: they differ by no more than the bound;
* ``unresolved``: one side's spread (quartile distance over median) is
  wider than the bound, and not every run of one side beats every run
  of the other.

Simulated metrics (``sim_*``) are deterministic for a seed, so any
difference at all is reported, whatever the bound. The checksums and
``ops_failed_frac`` must match exactly too. Per-layer results (from
``--trace``) have no bounds; their medians are listed without a
verdict.

The comparison is refused (exit 2) when the host blocks, seeds, run
lengths or replica counts differ. Exit 1 means some metric got worse,
or a checksum or ``ops_failed_frac`` changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound, exact: bool) -> str:
    if bound is None:
        return ""
    sign = 1.0 if better == "lower" else -1.0
    if exact and len(set(a)) == 1 and len(set(b)) == 1:
        if a[0] == b[0]:
            return "unchanged"
        return "worse" if sign * (b[0] - a[0]) > 0 else "better"
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def comparable(a: dict, b: dict) -> list[str]:
    problems = []
    for key in ("host", "seed", "trace", "config"):
        if a.get(key) != b.get(key):
            problems.append(f"{key} differs: {a.get(key)} vs {b.get(key)}")
    for workload in set(a["workloads"]) & set(b["workloads"]):
        replicas = {
            run["replicas"]
            for side in (a, b)
            for run in side["workloads"][workload]["runs"]
        }
        if len(replicas) > 1:
            problems.append(f"{workload}: replica counts differ: {sorted(replicas)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    problems = comparable(a, b)
    if problems:
        print("refusing to compare:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if a["trace"] else "end_to_end"]
    worse = False
    for workload in [w for w in a["workloads"] if w in b["workloads"]]:
        runs_a = a["workloads"][workload]["runs"]
        runs_b = b["workloads"][workload]["runs"]
        print(f"== {workload}  (A: {len(runs_a)} runs, B: {len(runs_b)} runs)")
        for metric in declared:
            name = metric["name"]
            va = [run["metrics"][name] for run in runs_a]
            vb = [run["metrics"][name] for run in runs_b]
            result = verdict(va, vb, metric["better"], metric.get("bound"),
                             exact=name.startswith("sim_"))
            worse = worse or result == "worse"
            qa, qb = quartiles(va), quartiles(vb)
            print(
                f"  {name:30s} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {metric['unit']}  {result}"
            )
        exact = {
            "checksums": [run["checksums"] for run in runs_a + runs_b],
            "ops_failed_frac": [run.get("ops_failed_frac") for run in runs_a + runs_b],
        }
        for key, values in exact.items():
            same = all(value == values[0] for value in values)
            print(f"  {key:30s} {'identical' if same else 'DIFFER'}")
            worse = worse or not same
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
