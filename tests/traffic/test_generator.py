"""Trace-driven traffic generation: validation, determinism, round
trips, and the cohort plug-in that replays a trace through the
existing arrival machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import (
    SpikeWindow,
    Trace,
    TraceEntry,
    TrafficError,
    TrafficSpec,
    generate_trace,
)


def _spec(**overrides):
    kwargs = dict(
        apps=("digit.500", "facedet.320"),
        base_rate_per_s=2.0,
        horizon_s=20.0,
        diurnal_period_s=20.0,
        diurnal_amplitude=0.4,
        spikes=(SpikeWindow(at_s=5.0, duration_s=3.0, factor=8.0),),
        calls_alpha=1.5,
        calls_max=4,
        deadline_s=10.0,
        seed=0,
    )
    kwargs.update(overrides)
    return TrafficSpec(**kwargs)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"apps": ()},
            {"base_rate_per_s": 0.0},
            {"base_rate_per_s": -1.0},
            {"horizon_s": 0.0},
            {"diurnal_period_s": 0.0},
            {"diurnal_amplitude": -0.1},
            {"diurnal_amplitude": 1.0},
            {"calls_alpha": 0.0},
            {"calls_max": 0},
            {"deadline_s": 0.0},
            {"deadline_s": float("inf")},
            {"deadline_s": float("nan")},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(TrafficError):
            _spec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"at_s": -1.0, "duration_s": 1.0, "factor": 2.0},
            {"at_s": 0.0, "duration_s": 0.0, "factor": 2.0},
            {"at_s": 0.0, "duration_s": 1.0, "factor": 0.0},
        ],
    )
    def test_bad_spike_rejected(self, kwargs):
        with pytest.raises(TrafficError):
            SpikeWindow(**kwargs)

    def test_spike_past_horizon_rejected(self):
        with pytest.raises(TrafficError, match="past the"):
            _spec(spikes=(SpikeWindow(at_s=25.0, duration_s=1.0, factor=2.0),))

    def test_rate_function_composes_diurnal_and_spike(self):
        spec = _spec()
        # t=5 is the diurnal peak (sin(2*pi*5/20) = 1) AND inside the spike.
        assert spec.rate_at(5.0) == pytest.approx(2.0 * 1.4 * 8.0)
        # t=15 is the trough, outside the spike.
        assert spec.rate_at(15.0) == pytest.approx(2.0 * 0.6)
        # The envelope bounds the rate everywhere (thinning correctness).
        peak = spec.peak_rate_per_s
        assert all(
            spec.rate_at(t / 10) <= peak + 1e-12 for t in range(0, 200)
        )


class TestGeneration:
    def test_same_spec_same_trace(self):
        assert generate_trace(_spec()) == generate_trace(_spec())

    def test_different_seed_different_trace(self):
        assert generate_trace(_spec(seed=0)) != generate_trace(_spec(seed=1))

    def test_entries_well_formed(self):
        spec = _spec()
        trace = generate_trace(spec)
        assert len(trace) > 0
        arrivals = [e.arrival_s for e in trace]
        assert arrivals == sorted(arrivals)
        for entry in trace:
            assert 0.0 <= entry.arrival_s < spec.horizon_s
            assert entry.app in spec.apps
            assert 1 <= entry.calls <= spec.calls_max
            assert entry.deadline_s == spec.deadline_s

    def test_spike_concentrates_arrivals(self):
        spec = _spec()
        trace = generate_trace(spec)
        window = [e for e in trace if 5.0 <= e.arrival_s < 8.0]
        # 3 s of 8x spike at the diurnal peak: well over half the total
        # arrivals land inside the window even though it is 15% of the
        # horizon — the flash-crowd shape the scenario depends on.
        assert len(window) > len(trace) / 2

    def test_no_deadline_spec_leaves_entries_undeadlined(self):
        trace = generate_trace(_spec(deadline_s=None))
        assert all(e.deadline_s is None for e in trace)


class TestOverlappingSpikes:
    def test_overlapping_spikes_are_sampled_at_their_product(self):
        spec = TrafficSpec(
            apps=("digit.500",),
            base_rate_per_s=10.0,
            horizon_s=100.0,
            spikes=(
                SpikeWindow(at_s=0.0, duration_s=100.0, factor=2.0),
                SpikeWindow(at_s=0.0, duration_s=100.0, factor=3.0),
            ),
            seed=1,
        )
        assert spec.rate_at(50.0) == 60.0
        assert spec.peak_rate_per_s == 60.0
        # 6,000 arrivals expected: a Poisson count's sd is about 1.3 %.
        assert 57.0 < len(generate_trace(spec)) / spec.horizon_s < 63.0

    @settings(max_examples=200, deadline=None)
    @given(
        spikes=st.lists(
            st.builds(
                SpikeWindow,
                at_s=st.floats(min_value=0.0, max_value=99.0),
                duration_s=st.floats(min_value=0.1, max_value=60.0),
                factor=st.floats(min_value=0.1, max_value=10.0),
            ),
            max_size=5,
        ),
        amplitude=st.floats(min_value=0.0, max_value=0.9),
        t=st.floats(min_value=0.0, max_value=100.0, exclude_max=True),
    )
    def test_the_envelope_bounds_the_rate(self, spikes, amplitude, t):
        spec = TrafficSpec(
            apps=("digit.500",),
            base_rate_per_s=10.0,
            horizon_s=100.0,
            diurnal_period_s=40.0,
            diurnal_amplitude=amplitude,
            spikes=tuple(spikes),
        )
        peak = spec.peak_rate_per_s
        # The active set changes only at spike edges: probe each one.
        edges = [edge for s in spikes for edge in (s.at_s, s.end_s)]
        for at in (t, *edges):
            if at < spec.horizon_s:
                assert spec.rate_at(at) <= peak


class TestTraceValue:
    def test_unsorted_entries_rejected(self):
        with pytest.raises(TrafficError, match="sorted"):
            Trace(
                entries=(
                    TraceEntry(app="a", arrival_s=2.0, calls=1),
                    TraceEntry(app="a", arrival_s=1.0, calls=1),
                )
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"app": "a", "arrival_s": -0.1, "calls": 1},
            {"app": "a", "arrival_s": 0.0, "calls": 0},
            {"app": "a", "arrival_s": 0.0, "calls": 1, "deadline_s": 0.0},
            {"app": "a", "arrival_s": float("nan"), "calls": 1},
            {"app": "a", "arrival_s": float("inf"), "calls": 1},
            {"app": "a", "arrival_s": 0.0, "calls": 1, "deadline_s": float("nan")},
            {"app": "a", "arrival_s": 0.0, "calls": 1, "deadline_s": float("inf")},
        ],
    )
    def test_bad_entry_rejected(self, kwargs):
        with pytest.raises(TrafficError):
            TraceEntry(**kwargs)

    def test_a_value_too_large_for_its_column_is_refused(self):
        # 2**32 calls does not fit the 32-bit column: refused, not wrapped.
        with pytest.raises(TrafficError, match="does not fit its column"):
            Trace(entries=(TraceEntry(app="a", arrival_s=0.0, calls=2**32),))
        with pytest.raises(TrafficError, match="does not fit its column"):
            generate_trace(_spec(calls_alpha=0.01, calls_max=2**40))

    def test_totals(self):
        trace = Trace(
            entries=(
                TraceEntry(app="a", arrival_s=0.0, calls=2),
                TraceEntry(app="b", arrival_s=1.0, calls=3),
            )
        )
        assert trace.clients == len(trace) == 2
        assert trace.total_calls == 5

    def test_lines_are_repr_exact(self):
        trace = generate_trace(_spec())
        lines = trace.lines()
        assert lines[0].startswith(f"trace:{trace.clients}:{trace.total_calls}")
        # repr-rendered floats: parsing a line back recovers the exact bits.
        app, arrival, calls, deadline = lines[1].split(",")
        first = trace.entries[0]
        assert app == first.app
        assert float(arrival) == first.arrival_s
        assert int(calls) == first.calls
        assert float(deadline) == first.deadline_s


class TestSerialization:
    def test_json_round_trip_is_identity(self):
        trace = generate_trace(_spec())
        assert Trace.from_json(trace.to_json()) == trace

    def test_file_round_trip(self, tmp_path):
        trace = generate_trace(_spec())
        path = str(tmp_path / "trace.json")
        trace.save(path)
        assert Trace.load(path) == trace

    def test_schema_tag_enforced(self):
        with pytest.raises(TrafficError, match="schema"):
            Trace.from_json('{"schema": "something-else/9", "entries": []}')

    def test_invalid_json_rejected(self):
        with pytest.raises(TrafficError, match="invalid trace JSON"):
            Trace.from_json("{nope")

    def test_malformed_entry_rejected(self):
        payload = (
            '{"schema": "xar-trek-traffic-trace/1", '
            '"entries": [{"app": "a"}]}'
        )
        with pytest.raises(TrafficError, match="malformed trace entry"):
            Trace.from_json(payload)

    @pytest.mark.parametrize(
        "entry",
        [
            '{"app": "a", "arrival_s": NaN, "calls": 1}',
            '{"app": "a", "arrival_s": Infinity, "calls": 1}',
            '{"app": "a", "arrival_s": 0.0, "calls": 1, "deadline_s": NaN}',
        ],
    )
    def test_non_finite_times_rejected(self, entry):
        payload = f'{{"schema": "xar-trek-traffic-trace/1", "entries": [{entry}]}}'
        with pytest.raises(TrafficError, match="must be finite"):
            Trace.from_json(payload)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(TrafficError, match="cannot read trace"):
            Trace.load(str(tmp_path / "absent.json"))


class TestCohortPlugIn:
    def test_empty_trace_has_no_cohorts(self):
        with pytest.raises(TrafficError, match="empty trace"):
            Trace(entries=()).to_cohorts()

    def test_groups_preserve_every_arrival(self):
        trace = generate_trace(_spec())
        cohorts = trace.to_cohorts()
        assert sum(c.clients for c in cohorts) == trace.clients
        assert sum(c.clients * c.calls for c in cohorts) == trace.total_calls
        # The explicit arrival laws replay exactly the trace's times.
        times = sorted(
            t for c in cohorts for t in c.arrival.times
        )
        assert times == [e.arrival_s for e in trace]
        for cohort in cohorts:
            assert cohort.arrival.kind == "explicit"
            assert len(cohort.arrival.times) == cohort.clients

    def test_cohorts_drive_the_population_machinery(self):
        from repro.core.cohort import CohortPopulation, sample_arrivals
        from repro.thresholds import ThresholdEntry, ThresholdTable
        from repro.workloads import profile_for

        trace = generate_trace(_spec(base_rate_per_s=0.5, spikes=()))
        cohorts = trace.to_cohorts()
        table = ThresholdTable()
        for app in sorted({c.app for c in cohorts}):
            capable = profile_for(app).fpga_capable
            table.add(
                ThresholdEntry(
                    application=app,
                    kernel_name=f"k_{app}" if capable else "",
                    fpga_threshold=5.0,
                    arm_threshold=15.0,
                )
            )
        assert sorted(
            float(t) for c in cohorts for t in sample_arrivals(c)
        ) == [e.arrival_s for e in trace]
        result = CohortPopulation(cohorts, thresholds=table).run()
        assert result.clients == trace.clients
        assert result.sim_seconds > 0.0
