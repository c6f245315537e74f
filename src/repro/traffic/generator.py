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
- a frozen :class:`Trace` value that serialises to versioned JSON and
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
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

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
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise TrafficError(
                f"deadline_s must be positive, got {self.deadline_s!r}"
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
        """An upper bound on ``rate_at`` (the thinning envelope)."""
        peak = self.base_rate_per_s * (1.0 + self.diurnal_amplitude)
        factor = 1.0
        for spike in self.spikes:
            factor = max(factor, spike.factor)
        return peak * factor


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


@dataclass(frozen=True)
class Trace:
    """A replayable arrival trace: entries sorted by arrival time."""

    entries: tuple[TraceEntry, ...]
    seed: int = 0
    horizon_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        arrivals = [e.arrival_s for e in self.entries]
        if arrivals != sorted(arrivals):
            raise TrafficError("trace entries must be sorted by arrival_s")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def clients(self) -> int:
        return len(self.entries)

    @property
    def total_calls(self) -> int:
        return sum(e.calls for e in self.entries)

    def lines(self) -> list[str]:
        """Deterministic summary lines (checksum/replay input).

        Floats render with ``repr`` so two traces only compare equal
        when they are bit-identical.
        """
        out = [
            f"trace:{self.clients}:{self.total_calls}:seed={self.seed}"
            f":horizon={self.horizon_s!r}"
        ]
        for e in self.entries:
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
        if not self.entries:
            raise TrafficError("an empty trace has no cohorts")
        groups: dict[tuple[str, int], list[float]] = {}
        for entry in self.entries:
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
                for e in self.entries
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
        entries = []
        for item in raw:
            try:
                entries.append(
                    TraceEntry(
                        app=item["app"],
                        arrival_s=float(item["arrival_s"]),
                        calls=int(item["calls"]),
                        deadline_s=(
                            None
                            if item.get("deadline_s") is None
                            else float(item["deadline_s"])
                        ),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise TrafficError(f"malformed trace entry {item!r}: {exc}") from exc
        return cls(
            entries=tuple(entries),
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


def generate_trace(spec: TrafficSpec) -> Trace:
    """Sample a :class:`Trace` from ``spec`` (seeded, replayable).

    Lewis-Shedler thinning against the peak-rate envelope: candidate
    arrivals come from a homogeneous Poisson process at
    ``spec.peak_rate_per_s`` and survive with probability
    ``rate_at(t) / peak``. Every random draw comes from one
    ``numpy.random.default_rng(spec.seed)`` stream in a fixed order,
    so the same spec always yields the same trace.
    """
    rng = np.random.default_rng(spec.seed)
    peak = spec.peak_rate_per_s
    entries = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= spec.horizon_s:
            break
        if float(rng.random()) * peak > spec.rate_at(t):
            continue
        app = spec.apps[int(rng.integers(len(spec.apps)))]
        calls = 1 + min(spec.calls_max - 1, int(rng.pareto(spec.calls_alpha)))
        entries.append(
            TraceEntry(
                app=app,
                arrival_s=t,
                calls=calls,
                deadline_s=spec.deadline_s,
            )
        )
    return Trace(
        entries=tuple(entries), seed=spec.seed, horizon_s=spec.horizon_s
    )
