"""Outside-in tracing for the benchmark's ``--trace`` run.

:class:`Tracer` replaces each layer's public entry points with timing
wrappers (``setattr`` on the class or module that owns the name) before
any deployment is built. Every wrapped call becomes a span — name,
start, end, parent span, iteration — and folds into per-name totals of
calls, duration and self time (duration minus the time its child spans
cover). Totals are kept for the whole run; full spans only for the
first traced iteration, so the trace file stays small.

The spans see only calls that cross a wrapped boundary. Work a public
call schedules into simulator callbacks runs later, inside
``Simulator.run``/``run_until_event``, and is billed to ``sim``.

:func:`layer_metrics` turns the totals plus the simulated counters the
program already exposes (metrics registries, ``DSM.stats``,
``load_snapshot()``, the fleet router and gossip bus) into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

#: span name -> the (module, attribute path) pairs wrapped under it.
#: ``build_system`` and ``decide`` are bound by name in several modules;
#: each binding is wrapped, all under one span name.
ENTRY_POINTS = {
    "sim.run": [("repro.sim.engine", "Simulator.run"),
                ("repro.sim.engine", "Simulator.run_until_event")],
    "hardware.submit": [("repro.hardware.sharing", "FairShareServer.submit")],
    "hardware.link": [("repro.hardware.interconnect", "Link.transfer")],
    "server.request": [("repro.core.server", "SchedulerServer.request")],
    "policy.decide": [("repro.core.server", "decide"),
                      ("repro.core.cohort", "decide")],
    "runtime.launch": [("repro.core.runtime", "XarTrekRuntime.launch")],
    "runtime.build": [("repro.core", "build_system"),
                      ("repro.core.runtime", "build_system"),
                      ("repro.experiments.harness", "build_system"),
                      ("repro.fleet.deployment", "build_system")],
    "thresholds.update": [("repro.core.client", "ThresholdUpdater.update")],
    "xrt.run_kernel": [("repro.xrt.device", "XRTDevice.run_kernel")],
    "xrt.load_xclbin": [("repro.xrt.device", "XRTDevice.load_xclbin")],
    "popcorn.migrate": [("repro.popcorn.runtime", "PopcornRuntime.migrate")],
    "popcorn.dsm": [("repro.popcorn.dsm", "DSM.migrate_pages")],
    "metrics.op": [("repro.metrics.core", "Counter.inc"),
                   ("repro.metrics.core", "Histogram.observe"),
                   ("repro.metrics.core", "Gauge.set")],
    "faults.admit": [("repro.faults.resilience", "OverloadGuard.admit")],
    "cohort.run": [("repro.core.cohort", "CohortPopulation.run")],
    "fleet.route": [("repro.fleet.router", "FleetRouter.route")],
    "fleet.publish": [("repro.fleet.gossip", "GossipBus.publish")],
    "fleet.shard": [("repro.fleet.deployment", "FleetDeployment.shard_cohorts")],
    "compiler.compile": [("repro.compiler.pipeline", "XarTrekCompiler.compile")],
    "traffic.generate": [("repro.traffic", "generate_trace"),
                         ("repro.traffic.generator", "generate_trace")],
}

#: Spans kept in memory for the trace file (the first traced iteration).
SPAN_CAP = 200_000


class Tracer:
    """Span bookkeeping for one traced process (install once)."""

    def __init__(self):
        self.names = list(ENTRY_POINTS)
        #: name -> [calls, total ns, self ns]
        self.totals = {name: [0, 0, 0] for name in self.names}
        self.spans: list = []
        self.recording = False
        self.iteration = -1
        self._stack: list = []
        #: Root-span time, for what no wrapper covered.
        self.root_ns = 0
        #: Simulated scheduler round trips (seconds) seen so far.
        self.roundtrips: list[float] = []
        self._wrapped: dict = {}

    def install(self) -> None:
        for name, targets in ENTRY_POINTS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                # One wrapper per function object, so a name bound in
                # several modules stays one object everywhere.
                key = id(original)
                if key not in self._wrapped:
                    self._wrapped[key] = self._wrap(original, name)
                setattr(owner, attr, self._wrapped[key])

    def _wrap(self, fn, name):
        totals = self.totals[name]
        name_id = self.names.index(name)
        stack = self._stack
        clock = time.perf_counter_ns
        watch_reply = name == "server.request"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = -1
            if self.recording and len(self.spans) < SPAN_CAP:
                span_id = len(self.spans)
                self.spans.append(None)
            frame = [0, span_id, clock()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if watch_reply:
                    self._watch_reply(args[0], result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if parent is None:
                    self.root_ns += duration
                else:
                    parent[0] += duration
                if span_id >= 0:
                    self.spans[span_id] = (
                        name_id, frame[2], end,
                        parent[1] if parent is not None else -1,
                        self.iteration,
                    )

        return traced

    def _watch_reply(self, server, reply) -> None:
        """Record the simulated request->reply time of one scheduler
        request. The callback only reads the clock, so the simulation
        is unchanged (the traced == untraced checksum check holds it)."""
        sim = server.platform.sim
        sent = sim.now
        samples = self.roundtrips

        def observe(event) -> None:
            if event.ok:
                samples.append(sim.now - sent)

        reply.callbacks.append(observe)

    def snapshot(self) -> dict:
        """Copy of the running totals, for per-iteration differences
        (``_root`` carries the time spent inside any root span)."""
        snap = {name: list(values) for name, values in self.totals.items()}
        snap["_root"] = [0, self.root_ns, 0]
        return snap

    def trace_file(self) -> dict:
        return {
            "names": self.names,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "iteration"],
            "spans": [span for span in self.spans if span is not None],
            "totals": {
                name: {"calls": c, "total_ns": t, "self_ns": s}
                for name, (c, t, s) in self.totals.items()
            },
        }


def iteration_delta(before: dict, after: dict) -> dict:
    """Per-name ``[calls, total s, self s]`` spent between two snapshots."""
    return {
        name: [
            after[name][0] - before[name][0],
            (after[name][1] - before[name][1]) / 1e9,
            (after[name][2] - before[name][2]) / 1e9,
        ]
        for name in after
    }


#: counter key -> (metric family, attribute) summed over the registry of
#: every deployment an iteration built.
_FAMILIES = {
    "shed": ("shed_total", "value"),
    "kernel_ok": ("fpga_kernel_run_seconds", "count"),
    "kernel_failed": ("fpga_kernel_failures_total", "value"),
    "reconfigs": ("fpga_reconfiguration_seconds", "count"),
    "reconfig_sim_s": ("fpga_reconfiguration_seconds_total", "value"),
    "overlap_core_s": ("fpga_reconfig_overlap_core_seconds_total", "value"),
    "fallbacks": ("fallbacks_total", "value"),
    "retries": ("retries_total", "value"),
    "quarantines": ("quarantines_total", "value"),
}


def sim_counters(outcome) -> dict:
    """Simulated-side counters of one iteration, read from the
    program's public state after the iteration ended."""
    runtimes = outcome.runtimes
    sims = {id(rt.platform.sim): rt.platform.sim for rt in runtimes}
    events = sum(sim.events_processed for sim in sims.values())
    if outcome.cohorts is not None:
        events += outcome.cohorts.sim_events
    counts = dict.fromkeys(_FAMILIES, 0.0)
    decisions = {"x86": 0.0, "arm": 0.0, "fpga": 0.0}
    dsm_pages = dsm_bytes = 0.0
    for rt in runtimes:
        for key, (name, attr) in _FAMILIES.items():
            family = rt.metrics.get(name)
            if family is not None:
                counts[key] += getattr(family, attr)
        family = rt.metrics.get("scheduler_decisions_total")
        if family is not None:
            for (target,), value in family.as_dict().items():
                decisions[target] += value
        if rt.dsm is not None:
            dsm_pages += rt.dsm.stats.page_transfers
            dsm_bytes += rt.dsm.stats.bytes_transferred
    fleet, cohorts = outcome.fleet, outcome.cohorts
    return {
        **counts,
        "events": float(events),
        "decisions": decisions,
        "dsm_pages": dsm_pages,
        "dsm_bytes": dsm_bytes,
        "x86_mean_load": statistics.fmean(
            rt.load_snapshot()["x86"]["time_weighted_mean"] for rt in runtimes
        ),
        "cross_node_migrations": float(fleet.router.cross_node_migrations) if fleet else 0.0,
        "fabric_page_transfers": float(fleet.dsm.stats.page_transfers) if fleet else 0.0,
        "logical_events": float(cohorts.logical_events) if cohorts else 0.0,
    }


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """The per-layer metrics of one traced run.

    Layer host times are medians over passes of the mean per iteration,
    times the run's calibration scale. Counts are means over the first
    pass through the replica inputs, which every run makes in full, so
    they repeat exactly for a seed. ``untraced`` is the untraced half of
    the run: its ``wall_s`` gives the tracing overhead and the host time
    per simulated event.
    """
    iters = traced["layer_iters"]
    replicas = traced["replicas"]
    first = iters[:replicas]
    counters = traced["counters"]

    def per_pass(values):
        """Median over passes of the per-iteration mean."""
        values = list(values)
        return statistics.median(
            statistics.fmean(values[start:start + replicas])
            for start in range(0, len(values), replicas)
        )

    def calls(name):
        return statistics.fmean(it[name][0] for it in first)

    scale = traced["scale"]

    def self_s(name):
        return per_pass(it[name][2] for it in iters) * scale

    def counter(key):
        return statistics.fmean(c[key] for c in counters)

    def decisions(target):
        return statistics.fmean(c["decisions"].get(target, 0.0) for c in counters)

    wall = untraced["wall_s"]
    events = counter("events")
    admits = calls("faults.admit")
    kernel_ok, kernel_failed = counter("kernel_ok"), counter("kernel_failed")
    roundtrip = traced["roundtrips"] or {"p50": 0.0, "tail": 0.0}
    setup = traced["setup_layers"]
    return {
        "sim.events": events,
        "sim.self_s": self_s("sim.run"),
        "sim.ns_per_event": wall / events * 1e9 if events else 0.0,
        "hardware.submit_calls": calls("hardware.submit"),
        "hardware.submit_self_s": self_s("hardware.submit"),
        "hardware.link_transfers": calls("hardware.link"),
        "hardware.link_self_s": self_s("hardware.link"),
        "hardware.x86_mean_load": counter("x86_mean_load"),
        "server.requests": calls("server.request"),
        "server.request_self_s": self_s("server.request"),
        "server.shed": counter("shed"),
        "server.admit_ratio": 1.0 - counter("shed") / admits if admits else 1.0,
        "server.roundtrip_p50_sim_s": roundtrip["p50"],
        "server.roundtrip_tail_sim_s": roundtrip["tail"],
        "server.decisions_x86": decisions("x86"),
        "server.decisions_arm": decisions("arm"),
        "server.decisions_fpga": decisions("fpga"),
        "policy.decide_calls": calls("policy.decide"),
        "policy.decide_self_s": self_s("policy.decide"),
        "runtime.launches": calls("runtime.launch"),
        "runtime.launch_self_s": self_s("runtime.launch"),
        "runtime.build_calls": calls("runtime.build"),
        "runtime.build_self_s": self_s("runtime.build"),
        "thresholds.updates": calls("thresholds.update"),
        "thresholds.update_self_s": self_s("thresholds.update"),
        "xrt.kernel_runs": calls("xrt.run_kernel"),
        "xrt.run_kernel_self_s": self_s("xrt.run_kernel"),
        "xrt.kernel_success_ratio": (
            kernel_ok / (kernel_ok + kernel_failed) if kernel_ok + kernel_failed else 1.0
        ),
        "xrt.reconfigs": counter("reconfigs"),
        "xrt.reconfig_sim_s": counter("reconfig_sim_s"),
        "xrt.reconfig_overlap_core_s": counter("overlap_core_s"),
        "popcorn.migrations": calls("popcorn.migrate"),
        "popcorn.migrate_self_s": self_s("popcorn.migrate"),
        "popcorn.dsm_calls": calls("popcorn.dsm"),
        "popcorn.dsm_self_s": self_s("popcorn.dsm"),
        "popcorn.dsm_page_transfers": counter("dsm_pages"),
        "popcorn.dsm_bytes": counter("dsm_bytes"),
        "metrics.ops": calls("metrics.op"),
        "metrics.self_s": self_s("metrics.op"),
        "faults.admits": admits,
        "faults.admit_self_s": self_s("faults.admit"),
        "faults.fallbacks": counter("fallbacks"),
        "faults.retries": counter("retries"),
        "faults.quarantines": counter("quarantines"),
        "cohort.runs": calls("cohort.run"),
        "cohort.run_self_s": self_s("cohort.run"),
        "cohort.logical_events": counter("logical_events"),
        "fleet.routes": calls("fleet.route"),
        "fleet.route_self_s": self_s("fleet.route"),
        "fleet.publishes": calls("fleet.publish"),
        "fleet.publish_self_s": self_s("fleet.publish"),
        "fleet.shard_self_s": self_s("fleet.shard"),
        "fleet.cross_node_migrations": counter("cross_node_migrations"),
        "fleet.fabric_page_transfers": counter("fabric_page_transfers"),
        "compiler.compile_s": setup["compiler.compile"][1] * scale,
        "traffic.generate_s": setup["traffic.generate"][1] * scale,
        "ops_failed_frac": traced["sim"]["ops_failed_frac"],
        "bench.unattributed_s": per_pass(
            w - it["_root"][1] for w, it in zip(traced["walls"], iters)
        ) * scale,
        "bench.trace_overhead_frac": traced["wall_s"] / wall - 1.0,
        "bench.warmup_s": untraced["warmup_s"] * untraced["scale"],
        "bench.wall_p90_s": untraced["wall_p90_s"],
    }
