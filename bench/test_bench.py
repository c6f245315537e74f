"""Checks on the benchmark itself: ``python -m pytest bench/``.

Each workload runs with ``--iterations 2`` (two passes over its
replica inputs), untraced and traced. These tests are not part of the
repository's tier-1 suite (``testpaths`` names only ``tests``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def bench(tmp_path: Path, workload: str, seed: int = 0, trace: int = 0):
    out = tmp_path / f"{workload}-{seed}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--iterations", "2", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return summary, json.loads(out.read_text())["workloads"][workload]["runs"][0]


def test_declared_metric_names():
    for key, limit in (("end_to_end", 16), ("per_layer", 128)):
        names = [m["name"] for m in BENCHMARK[key]]
        assert 1 <= len(names) <= limit
        assert len(set(names)) == len(names)
        assert all(NAME_RE.match(name) for name in names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload(tmp_path, workload):
    summary, run = bench(tmp_path, workload)
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert all(run["checks"].values()), run["checks"]

    traced_summary, traced = bench(tmp_path, workload, trace=1)
    assert traced_summary["correct"]
    assert set(traced_summary["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    # Tracing must not change a single simulated outcome.
    assert traced["checksums"] == run["checksums"]

    held_out, _run = bench(tmp_path, workload, seed=1)
    for name in ("sim_latency_p50_s", "sim_latency_tail_s"):
        assert held_out["metrics"][name]["value"] != summary["metrics"][name]["value"]


def test_refuses_without_sources(tmp_path):
    """A directory holding only BENCHMARK.json and bench/ has nothing to
    measure: exit non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
