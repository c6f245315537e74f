"""Trace-driven open-loop traffic generation (flash crowds, diurnals).

Everything before this module drove the scheduler with *closed-loop*
or gently staggered load: a fixed client population whose arrival
times were chosen to keep the system comfortable. Real serving fleets
are hit by *open-loop* arrival processes — demand does not slow down
because the servers are melting — and the interesting robustness
questions (shedding, brownout, SLO violations) only appear under that
model.

This module generates such arrival processes as replayable traces:

- a seeded non-homogeneous Poisson process whose rate function is a
  diurnal sinusoid times a set of flash-crowd spike windows, sampled
  by Lewis-Shedler thinning (exact, and trivially deterministic given
  the numpy ``default_rng`` stream);
- heavy-tailed per-session lengths (bounded Pareto call counts), the
  classic "most sessions are short, the tail is very long" shape;
- a frozen :class:`Trace` value, stored by column (a few bytes per
  arrival, not an object each), that serialises to versioned JSON and
  converts losslessly into the existing cohort machinery via
  ``ArrivalLaw(kind="explicit")``, so every downstream consumer (the
  chaos harness, the bench, the CLI) replays the *same* arrivals bit
  for bit.

The generator never looks at the simulated clock: a trace is pure
data, computed once and replayed everywhere, which is what makes the
serial and parallel chaos legs (and any number of re-runs) byte
identical.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core.cohort import ArrivalLaw, CohortSpec

__all__ = [
    "SpikeWindow",
    "Trace",
    "TraceEntry",
    "TrafficError",
    "TrafficSpec",
    "TRACE_SCHEMA",
    "generate_trace",
]

#: Version tag carried by serialised traces.
TRACE_SCHEMA = "xar-trek-traffic-trace/1"


class TrafficError(Exception):
    """Raised for malformed traffic specs or trace files."""


@dataclass(frozen=True)
class SpikeWindow:
    """A flash-crowd window: rate multiplied by ``factor`` over it."""

    at_s: float
    duration_s: float
    factor: float

    def __post_init__(self):
        if self.at_s < 0:
            raise TrafficError(f"spike at_s must be >= 0, got {self.at_s!r}")
        if self.duration_s <= 0:
            raise TrafficError(
                f"spike duration_s must be positive, got {self.duration_s!r}"
            )
        if self.factor <= 0:
            raise TrafficError(f"spike factor must be positive, got {self.factor!r}")

    @property
    def end_s(self) -> float:
        return self.at_s + self.duration_s

    def active(self, t: float) -> bool:
        return self.at_s <= t < self.end_s


@dataclass(frozen=True)
class TrafficSpec:
    """A seeded open-loop arrival process over ``[0, horizon_s)``.

    The instantaneous rate is::

        rate(t) = base_rate_per_s
                  * (1 + diurnal_amplitude * sin(2*pi*t / diurnal_period_s))
                  * prod(spike.factor for active spikes)

    Session lengths (calls per client) follow a bounded Pareto:
    ``calls = 1 + min(calls_max - 1, floor(Pareto(calls_alpha)))``,
    giving the heavy-tailed "mice and elephants" mix. Apps are drawn
    uniformly from ``apps``. ``deadline_s``, when set, stamps every
    entry with a completion deadline the SLO tracker and the admission
    controller both understand.
    """

    apps: tuple[str, ...]
    base_rate_per_s: float
    horizon_s: float
    diurnal_period_s: float = 60.0
    diurnal_amplitude: float = 0.0
    spikes: tuple[SpikeWindow, ...] = ()
    calls_alpha: float = 1.5
    calls_max: int = 6
    deadline_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "apps", tuple(self.apps))
        object.__setattr__(self, "spikes", tuple(self.spikes))
        if not self.apps:
            raise TrafficError("a traffic spec needs at least one app")
        if self.base_rate_per_s <= 0:
            raise TrafficError(
                f"base_rate_per_s must be positive, got {self.base_rate_per_s!r}"
            )
        if self.horizon_s <= 0:
            raise TrafficError(f"horizon_s must be positive, got {self.horizon_s!r}")
        if self.diurnal_period_s <= 0:
            raise TrafficError(
                f"diurnal_period_s must be positive, got {self.diurnal_period_s!r}"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise TrafficError(
                "diurnal_amplitude must be in [0, 1), got "
                f"{self.diurnal_amplitude!r}"
            )
        if self.calls_alpha <= 0:
            raise TrafficError(
                f"calls_alpha must be positive, got {self.calls_alpha!r}"
            )
        if self.calls_max < 1:
            raise TrafficError(f"calls_max must be >= 1, got {self.calls_max!r}")
        if self.deadline_s is not None and not 0.0 < self.deadline_s < math.inf:
            raise TrafficError(
                f"deadline_s must be finite and positive, got {self.deadline_s!r}"
            )
        for spike in self.spikes:
            if spike.at_s >= self.horizon_s:
                raise TrafficError(
                    f"spike at {spike.at_s!r}s starts past the "
                    f"{self.horizon_s!r}s horizon"
                )

    def rate_at(self, t: float) -> float:
        """The instantaneous arrival rate at ``t`` (arrivals/sec)."""
        rate = self.base_rate_per_s * (
            1.0
            + self.diurnal_amplitude
            * math.sin(2.0 * math.pi * t / self.diurnal_period_s)
        )
        for spike in self.spikes:
            if spike.active(t):
                rate *= spike.factor
        return rate

    @property
    def peak_rate_per_s(self) -> float:
        """An upper bound on ``rate_at`` (the thinning envelope): the
        diurnal crest times the largest product of the spike factors
        active at one instant, or 1 if that is larger.

        The active set changes only where a spike starts or ends, so
        those instants are the candidates. Each product is taken in
        ``rate_at``'s order, so the bound holds to the last bit.
        """
        crest = self.base_rate_per_s * (1.0 + self.diurnal_amplitude)
        peak = crest
        for t in {edge for s in self.spikes for edge in (s.at_s, s.end_s)}:
            rate = crest
            for spike in self.spikes:
                if spike.active(t):
                    rate *= spike.factor
            peak = max(peak, rate)
        return peak


@dataclass(frozen=True)
class TraceEntry:
    """One client arrival: who, when, how much work, by when."""

    app: str
    arrival_s: float
    calls: int
    deadline_s: Optional[float] = None

    def __post_init__(self):
        # Chained comparisons refuse NaN and infinity too.
        if not 0.0 <= self.arrival_s < math.inf:
            raise TrafficError(
                f"arrival_s must be finite and >= 0, got {self.arrival_s!r}"
            )
        if self.calls < 1:
            raise TrafficError(f"calls must be >= 1, got {self.calls!r}")
        if self.deadline_s is not None and not 0.0 < self.deadline_s < math.inf:
            raise TrafficError(
                f"deadline_s must be finite and positive, got {self.deadline_s!r}"
            )


#: Column type codes: an app code indexes ``Trace.apps`` (so at most
#: 65,536 apps), and a session has at most 2**32 - 1 calls.
_CODE_TYPE = "H"
_CALLS_TYPE = "I"


def _columns(rows: Iterable[tuple]) -> tuple:
    """``(apps, arrivals, codes, calls, deadlines)`` from ``(app,
    arrival_s, calls, deadline_s)`` rows; a value its column cannot hold
    is refused, never truncated."""
    apps: dict = {}
    arrivals, codes = array("d"), array(_CODE_TYPE)
    calls, deadlines = array(_CALLS_TYPE), array("d")
    try:
        for app, arrival_s, n_calls, deadline_s in rows:
            codes.append(apps.setdefault(app, len(apps)))
            arrivals.append(arrival_s)
            calls.append(n_calls)
            deadlines.append(math.nan if deadline_s is None else deadline_s)
    except (OverflowError, TypeError) as exc:
        raise TrafficError(f"a trace value does not fit its column: {exc}") from None
    if arrivals != array("d", sorted(arrivals)):
        raise TrafficError("trace entries must be sorted by arrival_s")
    return tuple(apps), arrivals, codes, calls, deadlines


class Trace:
    """A replayable arrival trace: entries sorted by arrival time.

    A trace is stored by column, not as one object per arrival: arrival
    times and deadlines (NaN for none) in ``array('d')``, each arrival's
    app as a code into :attr:`apps` (the distinct apps in first-seen
    order), and its call count in an unsigned array, about 22 bytes per
    arrival in all. Iterating it, or reading :attr:`entries`, yields
    equal :class:`TraceEntry` values. A trace is immutable and
    hashable; two traces are equal when their columns, seed and horizon
    are bit-identical.
    """

    __slots__ = (
        "apps", "_arrivals", "_codes", "_calls", "_deadlines", "seed", "horizon_s"
    )

    def __init__(
        self,
        entries: Iterable[TraceEntry] = (),
        seed: int = 0,
        horizon_s: float = 0.0,
    ):
        rows = ((e.app, e.arrival_s, e.calls, e.deadline_s) for e in entries)
        self.__setstate__((*_columns(rows), seed, horizon_s))

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in Trace.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(Trace.__slots__, state):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        # Columns compare as bytes, so a NaN ("no deadline") equals itself.
        return tuple(
            v.tobytes() if isinstance(v, array) else v for v in self.__getstate__()
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Trace(<{len(self)} arrivals>, apps={self.apps!r}, "
            f"seed={self.seed!r}, horizon_s={self.horizon_s!r})"
        )

    def __len__(self) -> int:
        return len(self._arrivals)

    def __iter__(self) -> Iterator[TraceEntry]:
        # The columns hold only values a TraceEntry accepted or a
        # validated spec drew, so decoding skips TraceEntry's checks.
        apps, new = self.apps, object.__new__
        for code, arrival_s, calls, deadline_s in zip(
            self._codes, self._arrivals, self._calls, self._deadlines
        ):
            entry = new(TraceEntry)
            entry.__dict__.update(
                app=apps[code],
                arrival_s=arrival_s,
                calls=calls,
                deadline_s=None if deadline_s != deadline_s else deadline_s,
            )
            yield entry

    @property
    def entries(self) -> tuple[TraceEntry, ...]:
        return tuple(self)

    @property
    def clients(self) -> int:
        return len(self)

    @property
    def total_calls(self) -> int:
        return sum(self._calls)

    def lines(self) -> list[str]:
        """Deterministic summary lines (checksum/replay input).

        Floats render with ``repr`` so two traces only compare equal
        when they are bit-identical.
        """
        out = [
            f"trace:{self.clients}:{self.total_calls}:seed={self.seed}"
            f":horizon={self.horizon_s!r}"
        ]
        for e in self:
            out.append(
                f"{e.app},{e.arrival_s!r},{e.calls},{e.deadline_s!r}"
            )
        return out

    def to_cohorts(self) -> list[CohortSpec]:
        """The trace as explicit-arrival cohort specs.

        Entries are grouped by ``(app, calls)`` in first-seen order;
        each group becomes one :class:`CohortSpec` with an explicit
        arrival law, so the cohort machinery replays exactly the
        arrivals this trace records. (Deadlines do not survive the
        conversion — the cohort model is deadline-free by design; use
        the chaos harness's trace mode for deadline-aware replay.)
        """
        if not self:
            raise TrafficError("an empty trace has no cohorts")
        groups: dict[tuple[str, int], list[float]] = {}
        for entry in self:
            groups.setdefault((entry.app, entry.calls), []).append(entry.arrival_s)
        return [
            CohortSpec(
                app=app,
                clients=len(times),
                calls=calls,
                arrival=ArrivalLaw(kind="explicit", times=tuple(times)),
            )
            for (app, calls), times in groups.items()
        ]

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "entries": [
                {
                    "app": e.app,
                    "arrival_s": e.arrival_s,
                    "calls": e.calls,
                    "deadline_s": e.deadline_s,
                }
                for e in self
            ],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "Trace":
        if not isinstance(payload, dict):
            raise TrafficError(f"trace payload must be a dict, got {type(payload)}")
        schema = payload.get("schema")
        if schema != TRACE_SCHEMA:
            raise TrafficError(
                f"unsupported trace schema {schema!r}; expected {TRACE_SCHEMA!r}"
            )
        raw = payload.get("entries")
        if not isinstance(raw, list):
            raise TrafficError("trace payload needs an `entries` list")
        return cls(
            entries=_entries_of(raw),
            seed=int(payload.get("seed", 0)),
            horizon_s=float(payload.get("horizon_s", 0.0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TrafficError(f"invalid trace JSON: {exc}") from exc
        return cls.from_dict(payload)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Trace":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except OSError as exc:
            raise TrafficError(f"cannot read trace {path}: {exc}") from exc


def _entries_of(raw: list) -> Iterator[TraceEntry]:
    """The checked entries of a serialised trace, one at a time."""
    for item in raw:
        try:
            yield TraceEntry(
                app=item["app"],
                arrival_s=float(item["arrival_s"]),
                calls=int(item["calls"]),
                deadline_s=(
                    None
                    if item.get("deadline_s") is None
                    else float(item["deadline_s"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TrafficError(f"malformed trace entry {item!r}: {exc}") from exc


def generate_trace(spec: TrafficSpec) -> Trace:
    """Sample a :class:`Trace` from ``spec`` (seeded, replayable).

    Lewis-Shedler thinning against the peak-rate envelope: candidate
    arrivals come from a homogeneous Poisson process at
    ``spec.peak_rate_per_s`` and survive with probability
    ``rate_at(t) / peak``. Every random draw comes from one
    ``numpy.random.default_rng(spec.seed)`` stream in a fixed order,
    so the same spec always yields the same trace. Each accepted
    arrival goes straight into the trace's columns.
    """
    rng = np.random.default_rng(spec.seed)
    peak = spec.peak_rate_per_s

    def arrivals():
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / peak))
            if t >= spec.horizon_s:
                return
            if float(rng.random()) * peak > spec.rate_at(t):
                continue
            app = spec.apps[int(rng.integers(len(spec.apps)))]
            calls = 1 + min(spec.calls_max - 1, int(rng.pareto(spec.calls_alpha)))
            yield app, t, calls, spec.deadline_s

    trace = object.__new__(Trace)
    trace.__setstate__((*_columns(arrivals()), spec.seed, spec.horizon_s))
    return trace
