"""The column-stored trace against the per-entry generator it replaced.

``trace_reference.reference_trace`` is the sampling loop that built one
:class:`TraceEntry` per accepted arrival. Over random specs, the
library's column trace must match it draw for draw in every reader,
and come back unchanged from JSON, a file and pickle. A trace built
from entries must give those very entries back, and a v1 file written
by the per-entry code must load equal and be written back byte for
byte.
"""

import os
import pickle
import tempfile

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
from tests.traffic.trace_reference import reference_trace

_APPS = ("digit.500", "facedet.320", "facedet.640", "cg.A")

_DATA = os.path.join(os.path.dirname(__file__), "data")


@st.composite
def traffic_specs(draw) -> TrafficSpec:
    horizon = draw(st.floats(1.0, 30.0))
    spikes = draw(
        st.lists(
            st.builds(
                SpikeWindow,
                at_s=st.floats(0.0, horizon, exclude_max=True),
                duration_s=st.floats(0.1, 10.0),
                factor=st.floats(0.5, 5.0),
            ),
            max_size=2,
        )
    )
    return TrafficSpec(
        # Repeats allowed: a repeated app is drawn more often.
        apps=tuple(draw(st.lists(st.sampled_from(_APPS), min_size=1, max_size=4))),
        base_rate_per_s=draw(st.floats(0.05, 10.0)),
        horizon_s=horizon,
        diurnal_period_s=draw(st.floats(0.5, 100.0)),
        diurnal_amplitude=draw(st.floats(0.0, 0.95)),
        spikes=tuple(spikes),
        calls_alpha=draw(st.floats(0.3, 3.0)),
        calls_max=draw(st.integers(1, 8)),
        deadline_s=draw(st.none() | st.floats(0.1, 60.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _round_trips(trace: Trace) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        trace.save(path)
        loaded = Trace.load(path)
    return [Trace.from_json(trace.to_json()), loaded] + [
        pickle.loads(pickle.dumps(trace, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ]


@settings(max_examples=60, deadline=None)
@given(spec=traffic_specs())
def test_the_column_trace_matches_the_per_entry_generator(spec):
    trace, reference = generate_trace(spec), reference_trace(spec)
    assert trace.lines() == reference.lines()
    assert trace.to_dict() == reference.to_dict()
    assert list(trace) == list(reference)
    assert trace == reference and hash(trace) == hash(reference)
    if len(reference):
        assert trace.to_cohorts() == reference.to_cohorts()
    else:
        with pytest.raises(TrafficError, match="empty trace"):
            trace.to_cohorts()
    for copy in _round_trips(trace):
        assert copy == trace and hash(copy) == hash(trace)
        assert copy.lines() == trace.lines()


_entry_rows = st.lists(
    st.tuples(
        st.sampled_from(_APPS),
        st.floats(0.0, 1e6),
        st.integers(1, 2**32 - 1),
        st.none() | st.floats(1e-9, 1e6),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(rows=_entry_rows, seed=st.integers(0, 2**32 - 1))
def test_a_trace_gives_back_the_entries_it_was_built_from(rows, seed):
    entries = tuple(TraceEntry(*row) for row in sorted(rows, key=lambda r: r[1]))
    trace = Trace(entries=entries, seed=seed, horizon_s=1e6)
    assert trace.entries == entries and tuple(trace) == entries
    assert len(trace) == trace.clients == len(entries)
    assert trace.total_calls == sum(e.calls for e in entries)
    assert trace.lines()[1:] == [
        f"{e.app},{e.arrival_s!r},{e.calls},{e.deadline_s!r}" for e in entries
    ]
    assert trace.apps == tuple(dict.fromkeys(e.app for e in entries))
    for copy in _round_trips(trace):
        assert copy == trace and copy.entries == entries


def test_a_v1_file_loads_equal_and_is_written_back_byte_for_byte(tmp_path):
    # Written by the per-entry implementation from this spec.
    spec = TrafficSpec(
        apps=("digit.500", "facedet.320", "facedet.640"),
        base_rate_per_s=1.0,
        horizon_s=12.0,
        diurnal_period_s=12.0,
        diurnal_amplitude=0.4,
        spikes=(SpikeWindow(at_s=4.0, duration_s=2.0, factor=5.0),),
        calls_max=4,
        deadline_s=15.0,
        seed=11,
    )
    path = os.path.join(_DATA, "trace_v1.json")
    loaded = Trace.load(path)
    assert loaded == generate_trace(spec)
    out = tmp_path / "again.json"
    loaded.save(str(out))
    with open(path, "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_a_trace_is_immutable():
    trace = generate_trace(
        TrafficSpec(apps=("digit.500",), base_rate_per_s=2.0, horizon_s=5.0)
    )
    with pytest.raises(AttributeError):
        trace.seed = 1
    with pytest.raises(AttributeError):
        del trace.apps
