"""Simulation-time-aware metrics primitives.

The registry is the quantitative sibling of the run timeline
(:func:`repro.experiments.extract_timeline`): where the timeline answers
*why* something happened, metrics answer *how much* and *how fast* —
"what was the p99 scheduler round-trip?", "how many decisions picked
the FPGA?", "what fraction of reconfiguration time hid behind CPU work?".

Three metric types, modelled on the Prometheus data model but driven by
the *simulated* clock rather than wall time:

* :class:`Counter` — a monotonically increasing total;
* :class:`Gauge` — a sampled value with min/max and a time-weighted
  mean (the integral is advanced on every update, so the mean is exact
  for piecewise-constant signals like CPU load);
* :class:`Histogram` — fixed cumulative buckets plus an exact-percentile
  reservoir. Up to ``reservoir_size`` observations percentiles are
  exact; beyond that, Algorithm-R reservoir sampling keeps a uniform
  sample using a generator derived deterministically from the metric
  name (or from the registry's seeded :class:`~repro.sim.RandomStreams`),
  so two runs with the same seed export identical snapshots.

Every metric family supports Prometheus-style labels: declare
``labelnames`` at registration and call :meth:`~Metric.labels` to get
the per-series child. Snapshots order families by name and series by
label value, so exports are byte-stable.
"""

from __future__ import annotations

import array
import bisect
import hashlib
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_PERCENTILES",
    "FamilySpec",
    "family_table",
]


class MetricError(Exception):
    """Raised for metric misuse (type clash, bad labels, negative inc)."""


#: Log-ish latency buckets from 10 µs to 100 s — wide enough to span a
#: 50 µs socket hop and a multi-second FPGA reconfiguration.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)

#: Percentiles reported in snapshots.
DEFAULT_PERCENTILES: tuple[int, ...] = (50, 90, 95, 99)


def _normalized_buckets(name: str, buckets: Sequence[float]) -> tuple[float, ...]:
    """Bucket bounds as the sorted float tuple a histogram bisects.

    :data:`DEFAULT_LATENCY_BUCKETS` already is one, so the default is
    taken as it is; caller-supplied bounds are sorted, converted and
    checked here, once per family (its label children share the
    family's tuple)."""
    if buckets is DEFAULT_LATENCY_BUCKETS:
        return buckets
    normalized = tuple(sorted(float(b) for b in buckets))
    if not normalized:
        raise MetricError(f"{name}: need at least one bucket bound")
    return normalized


def _derived_rng(name: str, seed: int = 0) -> np.random.Generator:
    """A generator derived from a metric name (same recipe as
    :class:`~repro.sim.rng.RandomStreams`): stable across runs and
    independent per metric."""
    digest = hashlib.sha256(f"{seed}/metrics/{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class Metric:
    """Shared family/series machinery for all metric types.

    A metric registered with ``labelnames`` is a *family*: readings go
    through :meth:`labels`, which returns (creating on first use) the
    child series for one label combination. A metric without labelnames
    is itself the single series.
    """

    kind = "metric"
    __slots__ = ("name", "help", "labelnames", "_clock", "labelvalues", "_children")

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        clock: Optional[Callable[[], float]] = None,
    ):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._clock = clock or (lambda: 0.0)
        self.labelvalues: tuple[str, ...] = ()
        self._children: dict[tuple[str, ...], "Metric"] = {}

    # -- label handling ----------------------------------------------------
    def labels(self, **labelvalues: Any) -> "Metric":
        """The child series for one label combination (created lazily)."""
        if not self.labelnames:
            raise MetricError(f"{self.name} was registered without labels")
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"{self.name} needs labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        return self._child_for(tuple(str(labelvalues[n]) for n in self.labelnames))

    def child(self, *labelvalues: str) -> "Metric":
        """:meth:`labels` for hot paths: the label values as strings, in
        ``labelnames`` order. A hit is one dict lookup, so callers keep
        no memo of their own."""
        child = self._children.get(labelvalues)
        if child is None:
            if len(labelvalues) != len(self.labelnames) or not self.labelnames:
                raise MetricError(
                    f"{self.name} needs label values for {self.labelnames}, "
                    f"got {labelvalues}"
                )
            child = self._child_for(tuple(str(value) for value in labelvalues))
        return child

    def _child_for(self, key: tuple[str, ...]) -> "Metric":
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            child.labelvalues = key
            self._children[key] = child
        return child

    def _make_child(self) -> "Metric":
        return type(self)(self.name, self.help, clock=self._clock)

    def _series(self) -> list["Metric"]:
        """All concrete series, sorted by label values (deterministic)."""
        if self.labelnames:
            return [self._children[key] for key in sorted(self._children)]
        return [self]

    def _check_leaf(self) -> None:
        if self.labelnames:
            raise MetricError(
                f"{self.name} has labels {self.labelnames}; use .labels(...)"
            )

    # -- snapshotting ------------------------------------------------------
    def _series_snapshot(self) -> dict[str, Any]:
        raise NotImplementedError

    def snapshot(self) -> dict[str, Any]:
        """This family's deterministic snapshot (sorted series)."""
        series = []
        for child in self._series():
            entry = {"labels": dict(zip(self.labelnames, child.labelvalues))}
            entry.update(child._series_snapshot())
            series.append(entry)
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": series,
        }


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self, name, help="", labelnames=(), clock=None):
        super().__init__(name, help, labelnames, clock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self._check_leaf()
        if amount < 0:
            raise MetricError(f"{self.name}: counters only go up (inc {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        if self.labelnames:
            return sum(child._value for child in self._children.values())
        return self._value

    def as_dict(self) -> dict[tuple[str, ...], float]:
        """Label values -> count, sorted (for thin dict views)."""
        return {key: self._children[key]._value for key in sorted(self._children)}

    def _series_snapshot(self) -> dict[str, Any]:
        return {"value": self._value}


class Gauge(Metric):
    """A sampled value with min/max and an exact time-weighted mean.

    Two modes: *push* (the default — call :meth:`set`/:meth:`inc` on
    every change, the integral advances per update) and *pull* (call
    :meth:`bind_sampler` once with a callable owning equivalent running
    aggregates; the series is derived at read time and the per-change
    cost disappears from the instrumented hot path).
    """

    kind = "gauge"
    __slots__ = (
        "_value", "_min", "_max", "_updates", "_t0", "_last_t", "_integral",
        "_sampler",
    )

    def __init__(self, name, help="", labelnames=(), clock=None):
        super().__init__(name, help, labelnames, clock)
        self._value = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._updates = 0
        self._t0: Optional[float] = None  # time of the first set
        self._last_t = 0.0
        self._integral = 0.0
        self._sampler: Optional[Callable[[], dict[str, Any]]] = None

    def bind_sampler(self, sampler: Callable[[], dict[str, Any]]) -> None:
        """Make this series pull-based: ``sampler()`` must return a dict
        with ``value``, ``min``, ``max``, ``time_weighted_mean`` and
        ``updates`` keys (e.g.
        :meth:`repro.hardware.sharing.FairShareServer.load_snapshot`).
        Mixing with push updates is rejected — two owners for the same
        timeline cannot stay exact.
        """
        self._check_leaf()
        if self._updates:
            raise MetricError(
                f"{self.name}: cannot bind a sampler after push updates"
            )
        self._sampler = sampler

    def set(self, value: float) -> None:
        self._check_leaf()
        if self._sampler is not None:
            raise MetricError(
                f"{self.name}: gauge is sampler-bound; its value is pulled"
            )
        now = self._clock()
        if self._t0 is None:
            self._t0 = now
        else:
            self._integral += self._value * (now - self._last_t)
        self._last_t = now
        self._value = float(value)
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        self._updates += 1

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self._value - amount)

    @property
    def value(self) -> float:
        self._check_leaf()
        if self._sampler is not None:
            return float(self._sampler()["value"])
        return self._value

    def time_weighted_mean(self) -> float:
        """Mean value over [first set, now], exact for step signals."""
        self._check_leaf()
        if self._sampler is not None:
            return float(self._sampler()["time_weighted_mean"])
        if self._t0 is None:
            return 0.0
        now = self._clock()
        elapsed = now - self._t0
        if elapsed <= 0:
            return self._value
        integral = self._integral + self._value * (now - self._last_t)
        return integral / elapsed

    def aggregates(self) -> dict[str, Any]:
        """Full series view — ``value``/``min``/``max``/
        ``time_weighted_mean``/``updates`` — for callers that feed a
        gauge into a load snapshot (e.g. FPGA occupancy)."""
        self._check_leaf()
        return self._series_snapshot()

    def _series_snapshot(self) -> dict[str, Any]:
        if self._sampler is not None:
            sample = self._sampler()
            return {
                "value": float(sample["value"]),
                "min": float(sample["min"]),
                "max": float(sample["max"]),
                "time_weighted_mean": float(sample["time_weighted_mean"]),
                "updates": int(sample["updates"]),
            }
        return {
            "value": self._value,
            "min": self._min if self._min is not None else 0.0,
            "max": self._max if self._max is not None else 0.0,
            "time_weighted_mean": self.time_weighted_mean(),
            "updates": self._updates,
        }


class Histogram(Metric):
    """Fixed cumulative buckets plus an exact-percentile reservoir."""

    kind = "histogram"
    __slots__ = (
        "buckets", "reservoir_size", "_rng", "_streams", "_bucket_counts",
        "_count", "_sum", "_min", "_max", "_reservoir",
    )

    def __init__(
        self,
        name,
        help="",
        labelnames=(),
        clock=None,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        reservoir_size: int = 4096,
        rng: Optional[np.random.Generator] = None,
        streams=None,
    ):
        """``rng`` is the reservoir's generator. Without one, it is made
        on first overflow: ``streams.stream("metrics/<name>")`` from an
        optional :class:`~repro.sim.RandomStreams`, else a generator
        derived from the name. Most histograms never overflow, so most
        never build one. A labelled family holds no series state of its
        own: only its children observe."""
        super().__init__(name, help, labelnames, clock)
        if reservoir_size < 1:
            raise MetricError(f"{name}: reservoir_size must be >= 1")
        self.buckets = _normalized_buckets(name, buckets)
        self.reservoir_size = reservoir_size
        self._rng = rng
        self._streams = streams
        if not self.labelnames:
            self._start_series()

    def _start_series(self) -> None:
        self._bucket_counts = [0] * (len(self.buckets) + 1)  # + overflow
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        # Unboxed float64s: a full reservoir is 32 KiB instead of ~130.
        self._reservoir = array.array("d")

    def _make_child(self) -> "Histogram":
        # The family's bounds are already normalized, so the child skips
        # __init__'s checks and shares the family's tuple.
        child = Histogram.__new__(Histogram)
        Metric.__init__(child, self.name, self.help, clock=self._clock)
        child.buckets = self.buckets
        child.reservoir_size = self.reservoir_size
        child._rng = self._rng
        child._streams = self._streams
        child._start_series()
        return child

    def _reservoir_rng(self) -> np.random.Generator:
        """The reservoir's generator, made on first overflow (see
        ``__init__``). Labelled children share the registry's stream:
        ``RandomStreams`` caches each stream by key."""
        if self._rng is None:
            if self._streams is not None:
                self._rng = self._streams.stream(f"metrics/{self.name}")
            else:
                self._rng = _derived_rng(self.name)
        return self._rng

    def observe(self, value: float) -> None:
        self._check_leaf()
        value = float(value)
        self._count += 1
        self._sum += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        self._bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        if len(self._reservoir) < self.reservoir_size:
            self._reservoir.append(value)
        else:
            # Algorithm R: keep a uniform sample, deterministically.
            slot = int(self._reservoir_rng().integers(0, self._count))
            if slot < self.reservoir_size:
                self._reservoir[slot] = value

    def observe_many(self, values: np.ndarray | Sequence[float]) -> None:
        """Observe every value of a 1-D array, in order.

        Leaves the series in exactly the state a loop of :meth:`observe`
        calls would (for non-NaN values): the same count, min, max and
        buckets, the same sum added left to right, the same reservoir,
        and the reservoir generator at the same stream position.
        """
        self._check_leaf()
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        m = len(values)
        if not m:
            return
        seen = self._count
        self._count += m
        # cumsum adds left to right like repeated +=; np.sum would add
        # pairwise and round differently.
        self._sum = float(np.cumsum(np.concatenate(([self._sum], values)))[-1])
        # argmin/argmax return the first of equal extremes, which is
        # the one the scalar min()/max() fold keeps (this tells -0.0
        # from 0.0).
        low = float(values[np.argmin(values)])
        high = float(values[np.argmax(values)])
        self._min = low if self._min is None else min(self._min, low)
        self._max = high if self._max is None else max(self._max, high)
        added = np.bincount(
            np.searchsorted(self.buckets, values, side="left"),
            minlength=len(self._bucket_counts),
        )
        self._bucket_counts = [
            n + k for n, k in zip(self._bucket_counts, added.tolist())
        ]
        fill = min(m, self.reservoir_size - len(self._reservoir))
        self._reservoir.frombytes(values[:fill].tobytes())
        if fill == m:
            return
        # Algorithm R past the fill: one draw per observation, each in
        # [0, running count), taken in one call that consumes the same
        # stream as the scalar draws.
        slots = self._reservoir_rng().integers(
            0, np.arange(seen + fill + 1, seen + m + 1)
        )
        kept = np.flatnonzero(slots < self.reservoir_size)
        for slot, value in zip(slots[kept].tolist(), values[fill:][kept].tolist()):
            self._reservoir[slot] = value

    @property
    def count(self) -> int:
        if self.labelnames:
            return sum(child._count for child in self._children.values())
        return self._count

    @property
    def sum(self) -> float:
        if self.labelnames:
            return sum(child._sum for child in self._children.values())
        return self._sum

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100), nearest-rank on the reservoir.

        Exact while fewer than ``reservoir_size`` values were observed.
        """
        self._check_leaf()
        if not 0 <= q <= 100:
            raise MetricError(f"percentile {q} out of range [0, 100]")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        rank = max(0, int(np.ceil(q / 100.0 * len(ordered))) - 1)
        return ordered[rank]

    def _series_snapshot(self) -> dict[str, Any]:
        cumulative: list[list[Any]] = []
        running = 0
        for bound, n in zip(self.buckets, self._bucket_counts):
            running += n
            cumulative.append([bound, running])
        cumulative.append(["+Inf", running + self._bucket_counts[-1]])
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._min is not None else 0.0,
            "max": self._max if self._max is not None else 0.0,
            "buckets": cumulative,
            "percentiles": {
                f"p{q}": self.percentile(q) for q in DEFAULT_PERCENTILES
            },
        }


class FamilySpec(NamedTuple):
    """A metric family a component declares up front and makes on use.

    A component's families are a module-level table (:func:`family_table`)
    it hands to :meth:`MetricsRegistry.declare` once per deployment; the
    registry makes a family object only when something first reads or
    records it (:meth:`MetricsRegistry.family`). Until then the family
    still exports, at zero, exactly as a registered family that nothing
    touched. Declared histograms use the default buckets and reservoir.
    """

    cls: type
    name: str
    help: str = ""
    labelnames: tuple[str, ...] = ()


def family_table(*specs: FamilySpec) -> dict[str, FamilySpec]:
    """``{name: spec}`` for :meth:`MetricsRegistry.declare`."""
    table = {spec.name: spec for spec in specs}
    if len(table) != len(specs):
        raise MetricError("a family table names one family twice")
    return table


class MetricsRegistry:
    """A named collection of metric families sharing one (sim) clock.

    Registration is idempotent: asking for an existing name returns the
    existing family, provided the type and label names match — so
    loosely coupled components can share a series without plumbing
    references around. A family can also be declared
    (:meth:`declare`): it is part of the registry at once (names,
    ``len``, snapshots) but its object is made on first use, so a
    deployment pays only for the families its run records into.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None, rng=None):
        """``rng`` is an optional :class:`~repro.sim.RandomStreams`;
        histogram reservoirs draw from ``rng.stream("metrics/<name>")``
        (made on a reservoir's first overflow) so reservoir downsampling
        replays identically under the simulation seed."""
        self._clock = clock or (lambda: 0.0)
        self._rng = rng
        self._families: dict[str, Metric] = {}
        #: Declared families not made yet (disjoint from _families).
        self._declared: dict[str, FamilySpec] = {}

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulator clock (used by gauges' time weighting)."""
        self._clock = clock
        for family in self._families.values():
            family._clock = clock
            for child in family._children.values():
                child._clock = clock

    # -- registration ------------------------------------------------------
    def _new(self, cls, name: str, help: str, labelnames, **kwargs) -> Metric:
        if cls is Histogram:
            kwargs["streams"] = self._rng
        return cls(name, help, labelnames, clock=self._clock, **kwargs)

    def _existing(self, cls, name: str, labelnames):
        """The family or declaration called ``name`` (``None`` if
        neither), checked against the type and labels asked for."""
        existing = self._families.get(name) or self._declared.get(name)
        if existing is not None:
            kind = existing.cls if isinstance(existing, FamilySpec) else type(existing)
            if kind is not cls or existing.labelnames != tuple(labelnames):
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{kind.kind} with labels {existing.labelnames}"
                )
        return existing

    def _register(self, cls, name: str, help: str, labelnames, **kwargs) -> Metric:
        existing = self._existing(cls, name, labelnames)
        if existing is not None:
            if not isinstance(existing, FamilySpec):
                return existing
            # First use of a declared family: the declaration wins, as
            # an earlier registration would.
            del self._declared[name]
            help, labelnames, kwargs = existing.help, existing.labelnames, {}
        metric = self._new(cls, name, help, labelnames, **kwargs)
        self._families[name] = metric
        return metric

    def declare(self, families: dict[str, FamilySpec]) -> None:
        """Add a :func:`family_table`'s families, each made on first use.

        Declaring a family that is already registered or declared with
        the same type and labels is a no-op; a clash raises
        :class:`MetricError`, as registration does.
        """
        declared = self._declared
        if declared.keys().isdisjoint(families) and self._families.keys().isdisjoint(
            families
        ):
            declared.update(families)
            return
        for name, spec in families.items():
            if self._existing(spec.cls, name, spec.labelnames) is None:
                declared[name] = spec

    def family(self, spec: FamilySpec) -> Metric:
        """The family ``spec`` names, made now if it was only declared."""
        family = self._families.get(spec.name)
        if family is None:
            family = self._register(spec.cls, spec.name, spec.help, spec.labelnames)
        return family

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames=(),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        reservoir_size: int = 4096,
    ) -> Histogram:
        return self._register(
            Histogram,
            name,
            help,
            labelnames,
            buckets=buckets,
            reservoir_size=reservoir_size,
        )

    # -- queries -----------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        family = self._families.get(name)
        if family is None and name in self._declared:
            family = self.family(self._declared[name])
        return family

    def names(self) -> list[str]:
        return sorted(self._families.keys() | self._declared.keys())

    def __contains__(self, name: str) -> bool:
        return name in self._families or name in self._declared

    def __len__(self) -> int:
        return len(self._families) + len(self._declared)

    # -- export ------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Every family's snapshot, sorted by name (byte-stable). A
        declared family nothing used exports as a fresh family would."""
        families, declared = self._families, self._declared
        metrics = []
        for name in self.names():
            family = families.get(name)
            if family is None:
                spec = declared[name]
                family = self._new(spec.cls, name, spec.help, spec.labelnames)
            metrics.append(family.snapshot())
        return {"metrics": metrics}

    def clear(self) -> None:
        self._families.clear()
        self._declared.clear()
