"""The cohort differential oracle: vectorized == per-client, bit for bit.

:mod:`repro.core.cohort` advances a whole cohort per simulator event
with numpy arrays; ``ReferencePopulation`` (``cohort_reference.py``)
keeps the client model it was vectorized from, one generator process
per client, as the canonical reference. Their equivalence is a
*contract*, not a one-off check: every property here runs both paths
over hypothesis-generated populations (workload mixes, arrival laws,
threshold orderings, fault plans, cohort split boundaries) and demands
identical per-client completion times, decision targets/rules, serving
targets, metrics snapshots, and checksum lines. "Identical" means byte-identical float64 arrays — the
two paths are required to perform the same IEEE additions in the same
order, so ``tobytes()`` equality is the bar, not ``allclose``.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.cohort
from repro.core import build_system
from repro.core.cohort import (
    RULES,
    ArrivalLaw,
    CohortError,
    CohortPopulation,
    CohortSpec,
    sample_arrivals,
)
from repro.core.policy import decide
from repro.core.server import ServerStats
from repro.faults import FaultPlan, resolve_cohort_faults
from repro.faults.plan import FaultSpec
from repro.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.thresholds import ThresholdEntry, ThresholdTable
from repro.types import Target
from repro.workloads import profile_for
from tests.core.cohort_reference import ReferencePopulation
from tests.experiments.contract import cohort_stress_specs

pytestmark = pytest.mark.metrics

#: fpga+arm capable, fpga+arm capable, fpga+arm capable, neither.
_APPS = ("cg.A", "digit.500", "facedet.320", "mg.B")

# Integer-valued thresholds mixed with arbitrary floats: loads are
# integers, so integer thresholds land exactly on the > boundary.
_thresholds = st.one_of(
    st.integers(min_value=0, max_value=50).map(float),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)

_times = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)


@st.composite
def cohort_specs(draw, app=None, max_clients=8):
    app = app or draw(st.sampled_from(_APPS))
    clients = draw(st.integers(min_value=1, max_value=max_clients))
    calls = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(("uniform", "staggered", "poisson", "explicit")))
    if kind == "explicit":
        law = ArrivalLaw(
            "explicit",
            times=tuple(
                draw(st.lists(_times, min_size=clients, max_size=clients))
            ),
        )
    else:
        law = ArrivalLaw(
            kind,
            start=draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
            span=draw(st.floats(min_value=0.1, max_value=20.0, allow_nan=False)),
        )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return CohortSpec(app, clients, calls=calls, arrival=law, seed=seed)


@st.composite
def populations(draw, max_cohorts=4):
    specs = tuple(
        draw(st.lists(cohort_specs(), min_size=1, max_size=max_cohorts))
    )
    background = draw(st.integers(min_value=0, max_value=40))
    table = ThresholdTable()
    for app in sorted({spec.app for spec in specs}):
        kernel = ""
        if profile_for(app).fpga_capable:
            # An empty kernel name exercises the unavailable branch.
            kernel = draw(st.sampled_from(("", f"k_{app}")))
        table.add(
            ThresholdEntry(
                application=app,
                kernel_name=kernel,
                fpga_threshold=draw(_thresholds),
                arm_threshold=draw(_thresholds),
            )
        )
    return specs, background, table


def _table_for(apps, fpga_thr=5.0, arm_thr=15.0):
    table = ThresholdTable()
    for app in sorted(set(apps)):
        capable = profile_for(app).fpga_capable
        table.add(
            ThresholdEntry(
                application=app,
                kernel_name=f"k_{app}" if capable else "",
                fpga_threshold=fpga_thr,
                arm_threshold=arm_thr,
            )
        )
    return table


def _run_both(specs, background, table, fault_targets=None):
    runs, snaps = [], []
    for population_class in (CohortPopulation, ReferencePopulation):
        population = population_class(
            specs,
            background=background,
            thresholds=table,
            fault_targets=fault_targets,
        )
        runs.append(population.run())
        snaps.append(population.metrics.snapshot())
    return runs[0], runs[1], snaps[0], snaps[1]


def _assert_equivalent(vec, ref, vec_snap, ref_snap):
    assert vec.path == "vectorized"
    assert ref.path == "reference"
    for a, b in zip(vec.cohorts, ref.cohorts):
        # Byte equality, not closeness: the contract is bit-identity.
        assert a.completions.tobytes() == b.completions.tobytes()
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.served, b.served)
        assert np.array_equal(a.rules, b.rules)
        assert a.fault_fallbacks == b.fault_fallbacks
    assert vec.lines() == ref.lines()
    assert vec.decisions_by_target == ref.decisions_by_target
    assert vec.decisions_by_rule == ref.decisions_by_rule
    assert vec.served_by_target() == ref.served_by_target()
    assert vec.fault_fallbacks == ref.fault_fallbacks
    assert vec.logical_events == ref.logical_events
    assert vec.sim_seconds == ref.sim_seconds
    # The completion-time multiset across the whole population.
    assert np.sort(vec.completions()).tobytes() == np.sort(ref.completions()).tobytes()
    # The vectorization must never cost *more* simulator events.
    assert vec.sim_events <= ref.sim_events
    # The metrics snapshots agree on every series except the run
    # counter itself, whose path label is the one intended difference.
    def families(snap):
        return [
            family
            for family in snap["metrics"]
            if family["name"] != "cohort_runs_total"
        ]

    assert families(vec_snap) == families(ref_snap)


class TestDifferentialOracle:
    @settings(deadline=None, max_examples=50)
    @given(population=populations())
    def test_paths_bit_identical(self, population):
        specs, background, table = population
        _assert_equivalent(*_run_both(specs, background, table))

    @settings(deadline=None, max_examples=25)
    @given(
        population=populations(max_cohorts=2),
        raw_faults=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=6,
        ),
    )
    def test_fault_targets_preserve_equivalence(self, population, raw_faults):
        specs, background, table = population
        vec, ref, vec_snap, ref_snap = _run_both(
            specs, background, table, fault_targets=raw_faults
        )
        _assert_equivalent(vec, ref, vec_snap, ref_snap)
        # Every fallback corresponds to a call decided-to-FPGA but
        # served on x86; fault triples aimed elsewhere are no-ops.
        for run in (vec, ref):
            rerouted = sum(
                int(
                    np.count_nonzero(
                        (r.targets == int(Target.FPGA))
                        & (r.served == int(Target.X86))
                    )
                )
                for r in run.cohorts
            )
            assert run.fault_fallbacks == rerouted

    @settings(deadline=None, max_examples=40)
    @given(
        app=st.sampled_from(_APPS),
        times=st.lists(_times, min_size=2, max_size=10),
        data=st.data(),
    )
    def test_split_cohort_preserves_every_client(self, app, times, data):
        # Splitting one explicit cohort at any boundary leaves the
        # global arrival multiset — and therefore the open-loop load
        # function and every per-client result — unchanged.
        split = data.draw(st.integers(min_value=1, max_value=len(times) - 1))
        table = _table_for(
            [app],
            fpga_thr=data.draw(_thresholds),
            arm_thr=data.draw(_thresholds),
        )
        background = data.draw(st.integers(min_value=0, max_value=30))
        calls = data.draw(st.integers(min_value=1, max_value=3))

        def spec(ts):
            return CohortSpec(
                app, len(ts), calls=calls,
                arrival=ArrivalLaw("explicit", times=tuple(ts)),
            )

        merged = CohortPopulation(
            [spec(times)], background=background, thresholds=table
        ).run()
        parts = CohortPopulation(
            [spec(times[:split]), spec(times[split:])],
            background=background,
            thresholds=table,
        ).run()
        whole = merged.cohorts[0]
        left, right = parts.cohorts
        assert (
            np.concatenate([left.completions, right.completions]).tobytes()
            == whole.completions.tobytes()
        )
        assert np.array_equal(
            np.vstack([left.targets, right.targets]), whole.targets
        )
        assert np.array_equal(
            np.vstack([left.served, right.served]), whole.served
        )
        assert np.array_equal(np.vstack([left.rules, right.rules]), whole.rules)
        assert merged.decisions_by_rule == parts.decisions_by_rule


class TestDecideMirror:
    @settings(deadline=None, max_examples=100)
    @given(
        fpga_thr=_thresholds,
        arm_thr=_thresholds,
        available=st.booleans(),
        loads=st.lists(
            st.integers(min_value=0, max_value=60), min_size=1, max_size=30
        ),
    )
    def test_vectorized_decide_matches_scalar(
        self, fpga_thr, arm_thr, available, loads
    ):
        # The array mirror of Algorithm 2 against the scalar original,
        # over every threshold ordering (incl. equality) and both
        # kernel-availability states.
        entry = ThresholdEntry("cg.A", "k_cg.A", fpga_thr, arm_thr)
        table = ThresholdTable([entry])
        population = CohortPopulation(
            [CohortSpec("cg.A", 1)],
            thresholds=table,
            resident_kernels=("k_cg.A",) if available else (),
        )
        cohort = population._cohorts[0]
        assert cohort.available is available
        targets, rules = population._decide_array(
            cohort, np.asarray(loads, dtype=np.int64)
        )
        for load, target, rule in zip(loads, targets, rules):
            decision = decide(load, entry, available)
            assert int(decision.target) == target
            assert RULES[rule] == decision.rule


class TestEventAccounting:
    def test_vectorized_is_o_of_cohorts_not_clients(self):
        specs = [
            CohortSpec(
                "digit.500", 200, calls=4,
                arrival=ArrivalLaw("staggered", span=10.0),
            ),
            CohortSpec(
                "cg.A", 200, calls=4,
                arrival=ArrivalLaw("uniform", span=10.0), seed=7,
            ),
        ]
        table = _table_for([s.app for s in specs])
        vec, ref, _, _ = _run_both(specs, 10, table)
        assert vec.logical_events == ref.logical_events == 400 * (4 + 3)
        # One event per (cohort, call) plus one completion flush per
        # cohort — versus hundreds for the per-client processes.
        assert vec.sim_events <= 2 * (4 + 1) + 2
        assert ref.sim_events >= 400
        assert vec.clients == ref.clients == 400

    def test_load_model_scalar_and_array_agree(self):
        specs = [
            CohortSpec(
                "facedet.320", 50, calls=2,
                arrival=ArrivalLaw("poisson", span=5.0), seed=3,
            )
        ]
        population = ReferencePopulation(
            specs, background=7, thresholds=_table_for(["facedet.320"])
        )
        times = np.linspace(0.0, 30.0, 200)
        array_loads = population.loads_at(times)
        assert array_loads.tolist() == [population.load_at(float(t)) for t in times]
        # Before anyone arrives the load is background + the requester.
        assert population.load_at(-1.0) == 8


class TestValidation:
    def test_unknown_arrival_kind(self):
        with pytest.raises(CohortError, match="unknown arrival law"):
            ArrivalLaw("burst")

    def test_negative_start(self):
        with pytest.raises(CohortError, match="start must be >= 0"):
            ArrivalLaw("uniform", start=-0.5)

    def test_non_positive_span(self):
        with pytest.raises(CohortError, match="span must be positive"):
            ArrivalLaw("poisson", span=0.0)

    def test_explicit_needs_times(self):
        with pytest.raises(CohortError, match="non-empty"):
            ArrivalLaw("explicit")
        with pytest.raises(CohortError, match=">= 0"):
            ArrivalLaw("explicit", times=(1.0, -2.0))

    def test_explicit_length_mismatch(self):
        spec = CohortSpec(
            "cg.A", 3, arrival=ArrivalLaw("explicit", times=(0.0, 1.0))
        )
        with pytest.raises(CohortError, match="2 times for 3 clients"):
            sample_arrivals(spec)

    def test_spec_bounds(self):
        with pytest.raises(CohortError, match="clients must be >= 1"):
            CohortSpec("cg.A", 0)
        with pytest.raises(CohortError, match="calls must be >= 1"):
            CohortSpec("cg.A", 1, calls=0)

    def test_population_needs_specs_and_thresholds(self):
        with pytest.raises(CohortError, match="at least one cohort"):
            CohortPopulation([], thresholds=_table_for(["cg.A"]))
        with pytest.raises(CohortError, match="ThresholdTable"):
            CohortPopulation([CohortSpec("cg.A", 1)])

    def test_negative_background_rejected(self):
        with pytest.raises(ValueError, match="background"):
            CohortPopulation(
                [CohortSpec("cg.A", 1)], background=-3, thresholds=_table_for(["cg.A"])
            )

    def test_run_must_start_at_time_zero(self):
        population = CohortPopulation(
            [CohortSpec("cg.A", 1)], thresholds=_table_for(["cg.A"])
        )
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        with pytest.raises(CohortError, match="time 0.0"):
            population.run(sim=sim)

    def test_population_class_selects_the_path(self):
        specs = [CohortSpec("digit.500", 3, calls=1)]
        table = _table_for(["digit.500"])
        assert CohortPopulation(specs, thresholds=table).run().path == "vectorized"
        reference = ReferencePopulation(specs, thresholds=table).run()
        assert reference.path == "reference"


class TestMetricsRecording:
    def test_bulk_record_matches_per_decision_counting(self):
        # record_decisions (the cohort bulk path) must leave the
        # registry exactly as N per-request _count_decision calls
        # would — same series, same label children, same totals.
        entry = ThresholdEntry("cg.A", "k", 5.0, 15.0)
        decisions = [
            decide(load, entry, available)
            for load in (0, 3, 6, 10, 16, 40)
            for available in (True, False)
        ]
        registry_a = MetricsRegistry()
        stats_a = ServerStats(registry_a)
        for decision in decisions:
            stats_a._count_decision(decision)
        by_target: dict = {}
        by_rule: dict = {}
        for decision in decisions:
            by_target[decision.target] = by_target.get(decision.target, 0) + 1
            by_rule[decision.rule] = by_rule.get(decision.rule, 0) + 1
        registry_b = MetricsRegistry()
        ServerStats(registry_b).record_decisions(by_target, by_rule)
        assert registry_a.snapshot() == registry_b.snapshot()

    def test_zero_counts_add_no_series(self):
        registry = MetricsRegistry()
        ServerStats(registry).record_decisions({Target.X86: 0}, {"x86": 0})
        assert registry.get("scheduler_decisions_total").as_dict() == {}
        assert registry.get("scheduler_requests_total").value == 0

    def test_population_counters_populated(self):
        specs = [
            CohortSpec("digit.500", 4, calls=2),
            CohortSpec("mg.B", 2, calls=1),
        ]
        population = CohortPopulation(specs, thresholds=_table_for(_APPS))
        run = population.run()
        registry = population.metrics
        assert registry.get("cohort_clients_total").value == 6
        served_total = sum(
            count for _, count in registry.get("cohort_calls_total").as_dict().items()
        )
        assert served_total == 4 * 2 + 2 * 1
        assert registry.get("cohort_runs_total").as_dict() == {("vectorized",): 1}
        assert (
            registry.get("scheduler_requests_total").value
            == sum(run.decisions_by_target.values())
        )


class TestFaultResolution:
    def _specs(self):
        return [
            CohortSpec(
                "digit.500", 4, calls=2,
                arrival=ArrivalLaw("explicit", times=(0.0, 2.0, 4.0, 6.0)),
            ),
            CohortSpec(
                "mg.B", 2, calls=2,
                arrival=ArrivalLaw("explicit", times=(1.0, 3.0)),
            ),
        ]

    def test_kernel_fault_strikes_first_arrivals_at_or_after(self):
        specs = self._specs()
        table = _table_for([s.app for s in specs])
        plan = FaultPlan(
            specs=(FaultSpec(at_s=2.0, kind="kernel_fault",
                             target="k_digit.500", count=2),)
        )
        targets = resolve_cohort_faults(plan, specs, table)
        # Clients 1 and 2 (arrivals 2.0, 4.0) on their first call; the
        # kernel-less mg.B cohort is untouchable by a kernel fault.
        assert targets == frozenset({(0, 1, 0), (0, 2, 0)})

    def test_device_crash_strikes_window_on_every_call(self):
        specs = self._specs()
        table = _table_for([s.app for s in specs])
        plan = FaultPlan(
            specs=(FaultSpec(at_s=1.5, kind="device_crash", duration_s=3.0),)
        )
        targets = resolve_cohort_faults(plan, specs, table)
        assert targets == frozenset({(0, 1, 0), (0, 1, 1), (0, 2, 0), (0, 2, 1)})

    def test_unmodeled_kinds_resolve_to_nothing(self):
        specs = self._specs()
        table = _table_for([s.app for s in specs])
        plan = FaultPlan(
            specs=(
                FaultSpec(at_s=0.0, kind="server_outage", duration_s=5.0),
                FaultSpec(at_s=0.0, kind="link_degrade",
                          target="ethernet", factor=0.5, duration_s=5.0),
            )
        )
        assert resolve_cohort_faults(plan, specs, table) == frozenset()

    def test_resolution_is_deterministic(self):
        specs = [
            CohortSpec(
                "facedet.320", 20, calls=2,
                arrival=ArrivalLaw("poisson", span=10.0), seed=11,
            )
        ]
        table = _table_for(["facedet.320"])
        plan = FaultPlan(
            specs=(FaultSpec(at_s=1.0, kind="kernel_fault",
                             target="k_facedet.320", count=5),)
        )
        first = resolve_cohort_faults(plan, specs, table)
        second = resolve_cohort_faults(plan, specs, table)
        assert first == second
        assert len(first) == 5


class TestRuntimeIntegration:
    def test_run_cohorts_lands_in_server_metrics(self):
        runtime = build_system(["digit.500", "cg.A"], seed=0)
        before = runtime.server.stats.requests
        result = runtime.run_cohorts(
            [
                CohortSpec("digit.500", 10, calls=2,
                           arrival=ArrivalLaw("staggered", span=5.0)),
                CohortSpec("cg.A", 10, calls=2,
                           arrival=ArrivalLaw("uniform", span=5.0), seed=1),
            ],
            background=20,
        )
        assert result.clients == 20
        assert result.path == "vectorized"
        decided = sum(result.decisions_by_target.values())
        assert decided == 20 * 2
        assert runtime.server.stats.requests == before + decided

    def test_run_cohorts_applies_fault_plan_identically_on_both_paths(
        self, monkeypatch
    ):
        specs = [
            CohortSpec("digit.500", 12, calls=2,
                       arrival=ArrivalLaw("staggered", span=6.0))
        ]
        runtime = build_system(["digit.500"], seed=0)
        kernel = runtime.server.thresholds.entry("digit.500").kernel_name
        plan = FaultPlan(
            specs=(FaultSpec(at_s=0.0, kind="kernel_fault",
                             target=kernel, count=3),)
        )
        vec = runtime.run_cohorts(specs, fault_plan=plan)
        monkeypatch.setattr(repro.core.cohort, "CohortPopulation", ReferencePopulation)
        ref = build_system(["digit.500"], seed=0).run_cohorts(specs, fault_plan=plan)
        assert (vec.path, ref.path) == ("vectorized", "reference")
        assert vec.lines() == ref.lines()
        assert vec.fault_fallbacks == ref.fault_fallbacks


@pytest.mark.wallclock
class TestVectorizedRate:
    def test_cohort_stress_clears_the_acceptance_floor(self):
        # The vectorization's acceptance floor: at least 500k logical
        # client events per wall second on cohort_stress's 10k clients.
        # An absolute rate, so it depends on the host; best of three
        # runs, each on a fresh runtime built outside the timed region.
        specs = cohort_stress_specs(0)
        apps = tuple(spec.app for spec in specs)
        best = 0.0
        for _ in range(3):
            runtime = build_system(apps, seed=0)
            started = time.perf_counter()
            result = runtime.run_cohorts(specs, background=50)
            best = max(best, result.logical_events / (time.perf_counter() - started))
        assert best >= 500_000
