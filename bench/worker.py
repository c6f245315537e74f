"""One benchmark child process: set up one workload, then measure it.

``bench/run.py`` starts this script in a fresh interpreter per
measurement, with a pinned environment, and reads two JSON lines from
its standard output: ``{"ready": ...}`` once set-up is done (the
parent's set-up clock stops there) and the result at the end.

A workload's inputs are ``replicas`` independent input sets drawn from
child seeds of ``--seed``; iterations cycle through them, and every
repetition of a replica must reproduce that replica's checksum. The
simulated metrics pool the first pass over all replicas, so they are a
pure function of the seed.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import heapq
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Independent input sets per workload: enough that the pooled
#: simulated metrics of one run vary by a few percent between seeds.
REPLICAS = {"percall_scale": 8, "flash_crowd": 16, "fleet_cohort": 8, "paper_grid": 4}


#: Host times are reported on a common scale: seconds on a host where
#: one :func:`calibrate` call takes this long. The shared machines this
#: benchmark runs on change speed by up to 2x, in phases of seconds to
#: minutes; a calibration loop interleaved with the iterations follows
#: those phases (see :func:`wall_estimate`).
CALIBRATION_REFERENCE_S = 0.02
#: Calibrate before an iteration once this long has passed since the
#: last calibration (so before every iteration of 0.1 s or more).
CALIBRATE_EVERY_S = 0.1
#: An iteration counts as run at full speed when both calibrations
#: around it took at most this multiple of the run's fast calibration
#: (its 10th percentile).
QUIET_FACTOR = 1.2


class _Job:
    __slots__ = ("work", "tag")

    def __init__(self, work, tag):
        self.work = work
        self.tag = tag


def calibrate(n: int = 20_000) -> float:
    """Seconds to run a fixed pure-Python loop shaped like the
    simulator's hot path: a heap of tuples, slotted objects, dict
    updates. It shares no code with the simulator, so a change to the
    simulator moves the measurement but not the scale."""
    started = time.perf_counter()
    heap: list = []
    totals: dict = {}
    x = 12345
    for seq in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x % 1000 / 7.0, seq, _Job(x & 255, seq % 7)))
        if len(heap) > 64:
            job = heapq.heappop(heap)[2]
            totals[job.tag] = totals.get(job.tag, 0) + job.work
    return time.perf_counter() - started


def wall_estimate(walls, starts, replica_of, calibrations) -> dict:
    """Host seconds per iteration, robust to the machine's speed phases.

    Each iteration is scaled by the slower of the two calibrations
    around it, and only iterations run at full speed count (all of a
    replica's, if none of them did). The result is the mean over the
    replica inputs of each one's median, so the mix of cheap and costly
    inputs is the same in every run.
    """
    cal_t = [t for t, _c in calibrations]
    cal_c = [c for _t, c in calibrations]
    fast = statistics.quantiles(cal_c, n=10)[0]
    quiet: dict = {}
    every: dict = {}
    raw: dict = {}
    for wall, start, replica in zip(walls, starts, replica_of):
        before = cal_c[bisect.bisect_right(cal_t, start) - 1]
        after_index = bisect.bisect_left(cal_t, start + wall)
        local = max(before, cal_c[after_index]) if after_index < len(cal_c) else before
        scaled = wall * CALIBRATION_REFERENCE_S / local
        every.setdefault(replica, []).append(scaled)
        raw.setdefault(replica, []).append(wall)
        if local <= QUIET_FACTOR * fast:
            quiet.setdefault(replica, []).append(scaled)
    return {
        "wall_s": statistics.fmean(
            statistics.median(quiet.get(r, every[r])) for r in every
        ),
        "raw_wall_s": statistics.fmean(statistics.median(v) for v in raw.values()),
        "quiet_fraction": sum(map(len, quiet.values())) / len(walls),
        "scale": CALIBRATION_REFERENCE_S / statistics.median(cal_c),
    }


def replica_seeds(seed: int, replicas: int) -> list[int]:
    import numpy as np

    return [
        int(child.generate_state(1)[0])
        for child in np.random.SeedSequence(seed).spawn(replicas)
    ]


def checksum(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        import trace as tracing

        tracer = tracing.Tracer()
        tracer.install()
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not this checkout")
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    replicas = REPLICAS[args.workload]
    before_setup = tracer.snapshot() if tracer else None
    inputs = [setup(seed) for seed in replica_seeds(args.seed, replicas)]
    workloads.compile_app_sets(inputs)
    emit({"ready": True})
    calibrations = [(time.perf_counter(), calibrate()) for _ in range(3)]
    if args.mode == "setup":
        emit({"scale": CALIBRATION_REFERENCE_S / statistics.median(c for _t, c in calibrations)})
        return 0

    started = time.perf_counter()
    warmup_digest = checksum(run(inputs[0]).lines)
    warmup_s = time.perf_counter() - started

    result = {
        "replicas": replicas,
        "warmup_s": warmup_s,
        "walls": [],
        "replica_of": [],
        "checksums": [],
        "conservation": [],
        "failed": 0,
    }
    if tracer:
        result["setup_layers"] = tracing.iteration_delta(before_setup, tracer.snapshot())
        result["layer_iters"] = []
        result["counters"] = []
        tracer.roundtrips.clear()
    pooled = {"latencies": [], "attempted": 0, "good": 0, "shed": 0, "unfinished": 0}
    diagnostics = []
    begin = time.perf_counter()
    starts = []
    index = 0
    while True:
        if time.perf_counter() - calibrations[-1][0] >= CALIBRATE_EVERY_S:
            calibrations.append((time.perf_counter(), calibrate()))
        replica = index % replicas
        first_pass = index < replicas
        if tracer:
            tracer.iteration = index
            tracer.recording = index == 0
            before = tracer.snapshot()
        started = time.perf_counter()
        outcome = run(inputs[replica])
        wall = time.perf_counter() - started
        result["walls"].append(wall)
        starts.append(started)
        result["replica_of"].append(replica)
        digest = checksum(outcome.lines)
        if first_pass:
            result["checksums"].append(digest)
            result["conservation"].append(
                [outcome.attempted, outcome.completed, outcome.shed, outcome.unfinished]
            )
            if index == 0:
                first_summary = workloads.latency_summary(outcome.latencies)
                result["failed"] += digest != warmup_digest
            pooled["latencies"].extend(outcome.latencies)
            for key in ("attempted", "good", "shed", "unfinished"):
                pooled[key] += getattr(outcome, key)
            if outcome.diagnostics:
                diagnostics.append(outcome.diagnostics)
        elif digest != result["checksums"][replica]:
            result["failed"] += 1
        if tracer:
            result["layer_iters"].append(tracing.iteration_delta(before, tracer.snapshot()))
            if first_pass:
                result["counters"].append(tracing.sim_counters(outcome))
        del outcome
        index += 1
        if tracer and index == replicas:
            result["roundtrips"] = (
                workloads.latency_summary(tracer.roundtrips) if tracer.roundtrips else None
            )
        if index % replicas:
            continue
        calibrations.append((time.perf_counter(), calibrate()))
        if args.passes is not None:
            if index >= args.passes * replicas:
                break
        elif time.perf_counter() - begin >= args.seconds:
            break

    result["calibrations"] = [c for _t, c in calibrations]
    result.update(
        wall_estimate(result["walls"], starts, result["replica_of"], calibrations)
    )
    ordered = sorted(result["walls"])
    result["wall_p90_s"] = ordered[math.ceil(0.9 * len(ordered)) - 1] * result["scale"]
    summary = workloads.latency_summary(pooled["latencies"])
    result["sim"] = {
        "latency_p50_s": summary["p50"],
        "latency_tail_s": summary["tail"],
        "latency_tail_q": summary["tail_q"],
        "latency_n": summary["n"],
        "goodput": pooled["good"] / pooled["attempted"],
        "ops_failed_frac": (pooled["shed"] + pooled["unfinished"]) / pooled["attempted"],
    }
    if diagnostics:
        result["diagnostics"] = {
            key: {
                "value": sum(d[key]["value"] for d in diagnostics) / len(diagnostics),
                "paper_band_pct": diagnostics[0][key]["paper_band_pct"],
            }
            for key in diagnostics[0]
        }
    if tracer:
        if args.trace_out:
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.trace_out, "w") as handle:
                json.dump(tracer.trace_file(), handle)
    else:
        # The held-out check: the first replica of the next seed must
        # give other records and other simulated numbers.
        other = run(setup(replica_seeds(args.seed + 1, replicas)[0]))
        other_sim = workloads.latency_summary(other.latencies)
        result["held_out_differs"] = (
            checksum(other.lines) != result["checksums"][0]
            and (other_sim["p50"], other_sim["tail"])
            != (first_summary["p50"], first_summary["tail"])
        )
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
