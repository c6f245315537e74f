"""Unit tests for the metrics primitives (counters, gauges, histograms,
registry, exporters)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricError,
    MetricsRegistry,
    flatten,
    to_csv,
    to_json,
)
from repro.sim import RandomStreams

pytestmark = pytest.mark.metrics


@pytest.fixture
def clock():
    """A settable fake simulation clock."""
    holder = [0.0]

    def read() -> float:
        return holder[0]

    read.set = lambda t: holder.__setitem__(0, t)
    return read


class TestCounter:
    def test_counts_and_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_labeled_series_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("decisions", labelnames=("target",))
        c.labels(target="fpga").inc()
        c.labels(target="x86").inc(2)
        assert c.labels(target="fpga").value == 1
        assert c.value == 3  # family value aggregates
        assert c.as_dict() == {("fpga",): 1.0, ("x86",): 2.0}

    def test_labeled_family_rejects_direct_inc_and_bad_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("decisions", labelnames=("target",))
        with pytest.raises(MetricError):
            c.inc()
        with pytest.raises(MetricError):
            c.labels(wrong="x")
        with pytest.raises(MetricError):
            reg.counter("plain").labels(target="x")


class TestGauge:
    def test_min_max_last(self, clock):
        reg = MetricsRegistry(clock=clock)
        g = reg.gauge("load")
        g.set(4)
        g.set(1)
        g.set(9)
        assert (g.value, g._min, g._max) == (9, 1, 9)

    def test_time_weighted_mean_is_exact_for_step_signal(self, clock):
        reg = MetricsRegistry(clock=clock)
        g = reg.gauge("load")
        g.set(2)  # value 2 over [0, 4)
        clock.set(4.0)
        g.set(6)  # value 6 over [4, 8)
        clock.set(8.0)
        assert g.time_weighted_mean() == pytest.approx(4.0)

    def test_inc_dec(self, clock):
        reg = MetricsRegistry(clock=clock)
        g = reg.gauge("runs")
        g.inc()
        g.inc()
        g.dec()
        assert g.value == 1

    def test_unset_gauge_mean_is_zero(self):
        assert MetricsRegistry().gauge("idle").time_weighted_mean() == 0.0


class TestHistogram:
    def test_exact_percentiles_below_reservoir_size(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in range(1, 101):
            h.observe(v / 1000.0)
        assert h.percentile(50) == pytest.approx(0.050)
        assert h.percentile(95) == pytest.approx(0.095)
        assert h.percentile(99) == pytest.approx(0.099)
        assert h.count == 100
        assert h.sum == pytest.approx(sum(range(1, 101)) / 1000.0)

    def test_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()["series"][0]
        assert snap["buckets"] == [[0.01, 1], [0.1, 2], [1.0, 3], ["+Inf", 4]]

    def test_reservoir_overflow_is_deterministic(self):
        def fill(reg):
            h = reg.histogram("lat", reservoir_size=32)
            for v in range(1000):
                h.observe(float(v))
            return h

        h1 = fill(MetricsRegistry())
        h2 = fill(MetricsRegistry())
        assert h1._reservoir == h2._reservoir
        assert len(h1._reservoir) == 32
        assert h1.count == 1000  # buckets/sum still exact
        assert h1.sum == pytest.approx(sum(range(1000)))

    def test_reservoir_uses_registry_rng_streams(self):
        h1 = MetricsRegistry(rng=RandomStreams(7)).histogram("x", reservoir_size=8)
        h2 = MetricsRegistry(rng=RandomStreams(7)).histogram("x", reservoir_size=8)
        h3 = MetricsRegistry(rng=RandomStreams(8)).histogram("x", reservoir_size=8)
        for v in range(200):
            h1.observe(float(v))
            h2.observe(float(v))
            h3.observe(float(v))
        assert h1._reservoir == h2._reservoir
        assert h1._reservoir != h3._reservoir

    def test_lazy_generator_matches_an_eager_one(self):
        """A labelled histogram given the streams builds its generator
        on first overflow, from the same cached stream its children
        share: the snapshot equals one built with that stream up front."""

        def drive(family):
            for v in range(40):
                family.labels(target="x86" if v % 3 else "fpga").observe(v * 0.5)
            family.labels(target="fpga").observe_many(np.linspace(0.0, 9.0, 30))
            return family.snapshot()

        lazy = Histogram(
            "lat", labelnames=("target",), reservoir_size=8, streams=RandomStreams(7)
        )
        eager = Histogram(
            "lat",
            labelnames=("target",),
            reservoir_size=8,
            rng=RandomStreams(7).stream("metrics/lat"),
        )
        assert drive(lazy) == drive(eager)
        assert lazy.labels(target="x86")._rng is lazy.labels(target="fpga")._rng

    def test_empty_histogram_percentile_is_zero(self):
        h = MetricsRegistry().histogram("lat")
        assert h.percentile(99) == 0.0
        with pytest.raises(MetricError):
            h.percentile(101)

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


def _histogram_state(h):
    """Everything a histogram series holds, floats as exact bit
    patterns (``-0.0 == 0.0``, so plain float equality would miss a
    sign): count, sum, min, max, buckets and the reservoir in slot
    order."""
    exact = float.hex
    return (
        h._count,
        exact(h._sum),
        None if h._min is None else exact(h._min),
        None if h._max is None else exact(h._max),
        list(h._bucket_counts),
        [exact(v) for v in h._reservoir],
    )


def _observe_both(batches, reservoir_size, rng=True, tail=()):
    """Feed ``batches`` to one histogram through observe_many and to a
    twin through observe, then ``tail`` to both through observe (which
    draws from the reservoir generator once it is full, so any stream
    position difference shows); returns both states after each step."""
    def make():
        registry = MetricsRegistry(rng=RandomStreams(3) if rng else None)
        return registry.histogram(
            "h", buckets=(0.1, 1.0, 10.0), reservoir_size=reservoir_size
        )

    bulk, scalar = make(), make()
    states = []
    for batch in batches:
        bulk.observe_many(np.asarray(batch, dtype=np.float64))
        for value in batch:
            scalar.observe(value)
        states.append((_histogram_state(bulk), _histogram_state(scalar)))
    for value in tail:
        bulk.observe(value)
        scalar.observe(value)
    states.append((_histogram_state(bulk), _histogram_state(scalar)))
    return states


class TestObserveMany:
    """``observe_many(values)`` leaves a series exactly as a loop of
    ``observe(value)`` calls would."""

    @pytest.mark.parametrize("rng", [True, False])
    def test_batches_that_cross_a_small_reservoir(self, rng):
        values = [0.1 * k + 0.01 for k in range(40)]
        batches = [values[:3], values[3:11], [], values[11:29], values[29:]]
        tail = [0.3, 7.0, 20.0, 0.05] * 10
        for bulk, scalar in _observe_both(batches, 8, rng=rng, tail=tail):
            assert bulk == scalar

    def test_sum_is_added_left_to_right(self):
        # Pairwise or compensated summation of these rounds differently
        # from a left-to-right fold.
        values = [1e16, 1.0, -1e16, 1.0, 0.1, 0.2, 0.3] * 50
        bulk, scalar = _observe_both([values], 4096)[0]
        assert bulk == scalar
        total = float.fromhex(bulk[1])
        assert total != math.fsum(values)
        assert total != float(np.sum(values))

    def test_empty_input_changes_nothing(self):
        states = _observe_both([[], [0.5, 2.0], []], 1, tail=[1.0, 3.0])
        assert states[0][0] == _observe_both([], 1)[0][0]  # still pristine
        for bulk, scalar in states:
            assert bulk == scalar

    def test_first_of_equal_extremes_is_kept(self):
        # min()/max() keep the earlier of equal values, so a -0.0 seen
        # before 0.0 is the minimum (and the maximum).
        for batch in ([-0.0, 0.0, -0.0], [0.0, -0.0], [-0.0]):
            for bulk, scalar in _observe_both([batch, [0.0, -0.0]], 2):
                assert bulk == scalar

    def test_labelled_family_rejects_observe_many(self):
        h = MetricsRegistry().histogram("lat", labelnames=("app",))
        with pytest.raises(MetricError):
            h.observe_many(np.array([0.5]))
        with pytest.raises(MetricError):
            h.observe_many(np.array([]))
        h.labels(app="a").observe_many(np.array([0.5, 1.5]))
        assert h.count == 2

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            max_size=60,
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
        reservoir_size=st.integers(min_value=1, max_value=20),
        tail=st.lists(st.floats(min_value=0.0, max_value=5.0), max_size=8),
    )
    def test_matches_a_loop_of_observe(self, values, cuts, reservoir_size, tail):
        edges = [0, *sorted(min(c, len(values)) for c in cuts), len(values)]
        batches = [values[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]
        for bulk, scalar in _observe_both(batches, reservoir_size, tail=tail):
            assert bulk == scalar


class TestRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_type_or_label_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(MetricError):
            reg.gauge("a")
        with pytest.raises(MetricError):
            reg.counter("a", labelnames=("x",))

    def test_snapshot_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zeta")
        reg.counter("alpha")
        names = [fam["name"] for fam in reg.snapshot()["metrics"]]
        assert names == ["alpha", "zeta"]

    def test_bind_clock_reaches_existing_children(self, clock):
        reg = MetricsRegistry()
        g = reg.gauge("load", labelnames=("cluster",))
        child = g.labels(cluster="x86")
        reg.bind_clock(clock)
        child.set(5)
        clock.set(2.0)
        child.set(1)
        assert child.time_weighted_mean() == pytest.approx(5.0)


class TestExport:
    def _populated(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs", labelnames=("target",))
        c.labels(target="fpga").inc(3)
        reg.gauge("load").set(2)
        reg.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        return reg

    def test_json_roundtrips_and_is_stable(self):
        reg = self._populated()
        text = to_json(reg)
        assert text == to_json(reg) == to_json(reg.snapshot())
        parsed = json.loads(text)
        assert {f["name"] for f in parsed["metrics"]} == {"reqs", "load", "lat"}

    def test_csv_one_scalar_per_row(self):
        lines = to_csv(self._populated()).splitlines()
        assert lines[0] == "name,type,labels,field,value"
        assert "reqs,counter,target=fpga,value,3.0" in lines
        assert any(line.startswith("lat,histogram,,bucket_le_0.1,") for line in lines)
        assert any(line.startswith("lat,histogram,,p99,") for line in lines)

    def test_flatten_rows_sorted_within_series(self):
        rows = flatten(self._populated())
        assert all(len(row) == 5 for row in rows)
        gauge_fields = [r[3] for r in rows if r[0] == "load"]
        assert gauge_fields == sorted(gauge_fields)
