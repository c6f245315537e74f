"""The cohort-sharding oracle: array sharding == the scalar walk, bit for bit.

:meth:`FleetDeployment.shard_cohorts` places every cohort client with
array operations. The reference below is the per-client walk it
replaced, kept verbatim apart from two things: ``self`` became
``fleet``, and the staleness of each placement goes to the scalar
:meth:`Histogram.observe` of the fleet's own staleness histogram (the
walk used to record through ``GossipBus.record_staleness``, which now
takes the whole array). Every property demands identical sub-specs,
identical per-node counts and an identical fleet metrics snapshot,
which pins the random draws, their order, the gossip segments and the
staleness observations (``-0.0`` included).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cohort import ArrivalLaw, CohortSpec, sample_arrivals
from repro.fleet import FleetConfig, FleetDeployment

pytestmark = pytest.mark.metrics

APPS = ("digit.2000", "facedet.320")


def reference_shard(fleet, specs):
    """The scalar walk: global arrival order, stale view refreshed at
    each gossip boundary, ``rng.choice`` power-of-two-choices."""
    specs = tuple(specs)
    n = len(fleet.nodes)
    arrivals = [sample_arrivals(spec) for spec in specs]
    order = sorted(
        (float(arr[ci]), si, ci)
        for si, arr in enumerate(arrivals)
        for ci in range(len(arr))
    )
    interval = fleet.config.gossip_interval_s
    rng = fleet._streams.spawn("cohort-shard").stream("assign")
    staleness = fleet.metrics.get("fleet_gossip_staleness_seconds")
    true_counts = [0] * n
    stale_counts = [0] * n
    last_boundary = 0.0
    assignment = [np.zeros(len(arr), dtype=np.int64) for arr in arrivals]
    for t, si, ci in order:
        boundary = math.floor(t / interval) * interval
        if boundary > last_boundary:
            stale_counts = list(true_counts)
            last_boundary = boundary
        staleness.observe(t - last_boundary)
        if n == 1:
            node = 0
        else:
            i, j = rng.choice(n, size=2, replace=False)
            i, j = int(i), int(j)
            if stale_counts[i] < stale_counts[j]:
                node = i
            elif stale_counts[j] < stale_counts[i]:
                node = j
            else:
                node = min(i, j)
        true_counts[node] += 1
        assignment[si][ci] = node

    per_node = [[] for _ in range(n)]
    for si, spec in enumerate(specs):
        for node in range(n):
            indexes = np.flatnonzero(assignment[si] == node)
            if not len(indexes):
                continue
            times = tuple(float(arrivals[si][ci]) for ci in indexes)
            per_node[node].append(
                CohortSpec(
                    app=spec.app,
                    clients=len(times),
                    calls=spec.calls,
                    arrival=ArrivalLaw(kind="explicit", times=times),
                    seed=spec.seed,
                )
            )
    return per_node, true_counts


def _fleet(nodes, interval):
    return FleetDeployment(
        FleetConfig(nodes=nodes, apps=APPS, seed=11, gossip_interval_s=interval)
    )


def _flat(sharding):
    """Every field of every sub-spec, with times as exact bit patterns
    (``-0.0 == 0.0``, so plain float equality would miss a sign)."""
    per_node, counts = sharding
    return [
        [
            (s.app, s.clients, s.calls, s.seed, [t.hex() for t in s.arrival.times])
            for s in node_specs
        ]
        for node_specs in per_node
    ], counts


def _snapshot(fleet):
    # json.dumps writes floats by repr, so -0.0 and 0.0 differ here.
    return json.dumps(fleet.metrics.snapshot(), sort_keys=True)


def assert_matches_reference(nodes, interval, specs):
    """Array sharding (and the staleness its run records) == the walk."""
    reference = _fleet(nodes, interval)
    expected = reference_shard(reference, specs)
    fleet = _fleet(nodes, interval)
    before = _snapshot(fleet)
    got = fleet.shard_cohorts(specs)
    assert _snapshot(fleet) == before  # sharding records nothing
    assert _flat(got) == _flat(expected)
    result = fleet.run_cohorts(specs)
    assert result.assigned_per_node == expected[1]
    assert _snapshot(fleet) == _snapshot(reference)
    reference.stop()
    fleet.stop()


# Times on (multiples of) the gossip intervals below, exact ties, and
# both signed zeros, mixed with arbitrary times.
_special_times = st.sampled_from(
    (-0.0, 0.0, 0.001, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 3.5, 7.0)
)
_times = st.one_of(
    _special_times,
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
)


@st.composite
def cohort_specs(draw, kind):
    clients = draw(st.integers(min_value=1, max_value=40))
    if kind == "explicit":
        law = ArrivalLaw(
            "explicit",
            times=tuple(draw(st.lists(_times, min_size=clients, max_size=clients))),
        )
    else:
        law = ArrivalLaw(
            kind,
            start=draw(st.sampled_from((0.0, -0.0, 0.5, 2.0))),
            span=draw(st.sampled_from((0.5, 3.0, 10.0))),
        )
    return CohortSpec(
        draw(st.sampled_from(APPS)),
        clients,
        calls=draw(st.integers(min_value=1, max_value=3)),
        arrival=law,
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


_kinds = st.lists(
    st.sampled_from(("uniform", "staggered", "poisson", "explicit")),
    min_size=1,
    max_size=4,
)


class TestShardOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        nodes=st.integers(min_value=1, max_value=12),
        interval=st.sampled_from((0.001, 0.25, 0.5, 1.0, 3.5)),
        data=st.data(),
    )
    def test_matches_the_scalar_walk(self, nodes, interval, data):
        kinds = data.draw(_kinds)
        specs = [data.draw(cohort_specs(kind)) for kind in kinds]
        assert_matches_reference(nodes, interval, specs)

    @pytest.mark.parametrize("nodes", [1, 2, 3, 12])
    def test_every_arrival_law_at_scale(self, nodes):
        specs = [
            CohortSpec("digit.2000", 700, calls=2,
                       arrival=ArrivalLaw("uniform", start=0.5, span=9.0), seed=3),
            CohortSpec("facedet.320", 500, calls=2,
                       arrival=ArrivalLaw("poisson", start=1.0, span=9.0), seed=4),
            CohortSpec("digit.2000", 400, calls=1,
                       arrival=ArrivalLaw("staggered", start=0.0, span=8.0), seed=5),
            CohortSpec("facedet.320", 6, calls=1, arrival=ArrivalLaw(
                "explicit", times=(3.0, -0.0, 0.0, 1.0, 1.0, 0.0)), seed=6),
        ]
        assert_matches_reference(nodes, 0.5, specs)

    @pytest.mark.parametrize(
        "times", [(-0.0,), (-0.0, 0.0), (0.0, -0.0), (0.0, -0.0, 2.0, -0.0)]
    )
    def test_signed_zero_arrivals(self, times):
        specs = [
            CohortSpec("digit.2000", len(times), calls=1,
                       arrival=ArrivalLaw("explicit", times=times), seed=1),
        ]
        assert_matches_reference(3, 1.0, specs)
        fleet = _fleet(3, 1.0)
        fleet.run_cohorts(specs)
        staleness = fleet.metrics.get("fleet_gossip_staleness_seconds")
        # The walk's first boundary is 0.0, never -0.0, so an arrival at
        # -0.0 is -0.0 seconds stale; the first of equal minima is kept.
        first_zero = next(t for t in times if t == 0.0)
        assert math.copysign(1.0, staleness.snapshot()["series"][0]["min"]) == (
            math.copysign(1.0, first_zero)
        )
        fleet.stop()

    def test_no_specs(self):
        assert_matches_reference(4, 1.0, [])


class TestDrawEquivalence:
    """The one ``integers`` call consumes the stream of sequential
    ``choice(n, 2, replace=False)`` calls: Floyd's draws from [0, n-2]
    and [0, n-1], then one draw shuffling the pair (0 swaps it)."""

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 17, 64, 1000])
    def test_same_pairs_and_stream_position(self, n):
        m = 3000
        sequential = np.random.default_rng(n)
        pairs = [
            tuple(map(int, sequential.choice(n, size=2, replace=False)))
            for _ in range(m)
        ]
        batched = np.random.default_rng(n)
        draws = batched.integers(
            0, np.tile(np.array([n - 1, n, 2], dtype=np.int32), m), dtype=np.int32
        ).reshape(m, 3)
        first = draws[:, 0]
        second = np.where(draws[:, 1] == first, n - 1, draws[:, 1])
        assert pairs == [
            (a, b) if keep else (b, a)
            for a, b, keep in zip(first.tolist(), second.tolist(), draws[:, 2].tolist())
        ]
        assert sequential.random() == batched.random()
