"""Declarative, deterministic fault plans.

A :class:`FaultPlan` is an ordered set of :class:`FaultSpec` entries —
each one names a *kind* of fault, the simulated instant it strikes, and
its kind-specific parameters. Plans are plain data: they serialize
to/from JSON (for the ``repro chaos`` CLI and for committing regression
plans to the repo), they compare by value, and :meth:`FaultPlan.generate`
derives one deterministically from a seed, so a chaos run is as
replayable as any other seeded experiment in this repository.

The plan says *what goes wrong and when*; arming it against a live
deployment is :class:`~repro.faults.injector.FaultInjector`'s job, and
surviving it is the resilience layer's
(:mod:`repro.faults.resilience`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from math import inf
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = ["FAULT_KINDS", "FaultPlanError", "FaultSpec", "FaultPlan"]


class FaultPlanError(Exception):
    """Raised for malformed fault specs or plan payloads."""


#: Every fault kind the injector knows how to arm.
FAULT_KINDS: tuple[str, ...] = (
    "kernel_fault",      # next `count` runs of kernel `target` fail mid-flight
    "reconfig_fault",    # next `count` FPGA reconfigurations fail after programming
    "device_crash",      # FPGA drops off the bus for `duration_s`, then recovers
    "link_degrade",      # link `target` runs at `factor` of its bandwidth for `duration_s`
    "server_outage",     # scheduler server down for `duration_s`
    "server_slow",       # scheduler replies take `factor` x the socket latency for `duration_s`
)

#: Kinds that describe a [at_s, at_s + duration_s) window.
_WINDOW_KINDS = frozenset({"device_crash", "link_degrade", "server_outage", "server_slow"})

#: Kinds that arm a countdown of discrete failures.
_COUNT_KINDS = frozenset({"kernel_fault", "reconfig_fault"})

#: Valid `target` values for link_degrade.
_LINKS = ("ethernet", "pcie")


@dataclass(frozen=True, order=True)
class FaultSpec:
    """One scheduled fault.

    Field use by kind (unused fields keep their defaults):

    * ``kernel_fault`` — ``target`` is the hardware-kernel name,
      ``count`` the number of runs to fail;
    * ``reconfig_fault`` — ``count`` reconfigurations fail;
    * ``device_crash`` — the card is gone for ``duration_s``;
    * ``link_degrade`` — ``target`` in ``("ethernet", "pcie")``,
      ``factor`` in (0, 1] is the remaining bandwidth fraction;
    * ``server_outage`` — the scheduler daemon is down for ``duration_s``;
    * ``server_slow`` — replies take ``factor`` (> 1) times the socket
      latency for ``duration_s``.
    """

    at_s: float
    kind: str
    target: str = ""
    count: int = 1
    duration_s: float = 0.0
    factor: float = 1.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}"
            )
        if not isinstance(self.count, int) or isinstance(self.count, bool):
            raise FaultPlanError(f"{self.kind}: count must be an int, got {self.count!r}")
        if not 0.0 <= self.at_s < inf:
            raise FaultPlanError(
                f"{self.kind}: at_s must be finite and >= 0, got {self.at_s}"
            )
        if not -inf < self.duration_s < inf:
            raise FaultPlanError(
                f"{self.kind}: duration_s must be finite, got {self.duration_s}"
            )
        if self.kind in _COUNT_KINDS and self.count < 1:
            raise FaultPlanError(f"{self.kind}: count must be >= 1, got {self.count}")
        if self.kind in _WINDOW_KINDS and self.duration_s <= 0:
            raise FaultPlanError(
                f"{self.kind}: duration_s must be positive, got {self.duration_s}"
            )
        if self.kind == "kernel_fault" and not self.target:
            raise FaultPlanError("kernel_fault: target (kernel name) is required")
        if self.kind == "link_degrade":
            if self.target not in _LINKS:
                raise FaultPlanError(
                    f"link_degrade: target must be one of {_LINKS}, got {self.target!r}"
                )
            if not 0.0 < self.factor <= 1.0:
                raise FaultPlanError(
                    f"link_degrade: factor must be in (0, 1], got {self.factor}"
                )
        if self.kind == "server_slow" and not 1.0 <= self.factor < inf:
            raise FaultPlanError(
                f"server_slow: factor must be finite and >= 1, got {self.factor}"
            )

    @property
    def end_s(self) -> float:
        """When the fault's effect ends (equals ``at_s`` for count kinds)."""
        return self.at_s + self.duration_s

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        if not isinstance(payload, dict):
            raise FaultPlanError(f"fault spec must be an object, got {payload!r}")
        known = {"at_s", "kind", "target", "count", "duration_s", "factor"}
        extra = set(payload) - known
        if extra:
            raise FaultPlanError(f"fault spec has unknown fields {sorted(extra)}")
        try:
            return cls(
                at_s=float(payload["at_s"]),
                kind=str(payload["kind"]),
                target=str(payload.get("target", "")),
                count=int(payload.get("count", 1)),
                duration_s=float(payload.get("duration_s", 0.0)),
                factor=float(payload.get("factor", 1.0)),
            )
        except KeyError as missing:
            raise FaultPlanError(f"fault spec missing field {missing}") from None


#: JSON schema tag; `from_json` refuses anything else.
_SCHEMA = "xar-trek-fault-plan/1"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered collection of fault specs.

    Specs are stored sorted by strike time (ties broken by the spec's
    remaining fields), so two plans with the same content compare equal
    regardless of construction order and arm in a deterministic
    sequence.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self):
        ordered = tuple(sorted(self.specs))
        object.__setattr__(self, "specs", ordered)
        # Overlapping server outages on the same target are always a
        # plan-authoring bug: the earlier window's restart would revive
        # the daemon mid-way through the later window, so the plan
        # would not describe what actually happens. Specs are sorted by
        # strike time, so adjacent comparison finds every overlap.
        last_outage: dict[str, FaultSpec] = {}
        for spec in ordered:
            if spec.kind != "server_outage":
                continue
            previous = last_outage.get(spec.target)
            if previous is not None and spec.at_s < previous.end_s:
                raise FaultPlanError(
                    f"server_outage windows overlap: "
                    f"[{previous.at_s}, {previous.end_s}) and "
                    f"[{spec.at_s}, {spec.end_s}); merge them into one "
                    "window or separate them in time"
                )
            last_outage[spec.target] = spec

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def horizon_s(self) -> float:
        """Time after which no armed fault effect remains scheduled."""
        return max((spec.end_s for spec in self.specs), default=0.0)

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for spec in self.specs:
            counts[spec.kind] = counts.get(spec.kind, 0) + 1
        return dict(sorted(counts.items()))

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        payload: dict = {"schema": _SCHEMA, "specs": [s.to_dict() for s in self.specs]}
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultPlanError(f"fault plan must be an object, got {payload!r}")
        schema = payload.get("schema")
        if schema != _SCHEMA:
            raise FaultPlanError(
                f"fault plan has schema {schema!r}, expected {_SCHEMA!r}"
            )
        specs = payload.get("specs", [])
        if not isinstance(specs, list):
            raise FaultPlanError("fault plan 'specs' must be a list")
        seed = payload.get("seed")
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in specs),
            seed=int(seed) if seed is not None else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    def to_file(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())

    # -- generation --------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        horizon_s: float,
        kernels: Sequence[str] = (),
        kernel_faults: int = 4,
        reconfig_faults: int = 2,
        device_crashes: int = 1,
        crash_duration_s: float = 3.0,
        link_degrades: int = 1,
        degrade_duration_s: float = 5.0,
        degrade_factor: float = 0.25,
        server_outages: int = 1,
        outage_duration_s: float = 2.0,
        server_slowdowns: int = 1,
        slow_duration_s: float = 2.0,
        slow_factor: float = 50.0,
    ) -> "FaultPlan":
        """A seeded random plan over ``[0, horizon_s)``.

        Strike times are drawn from an RNG derived only from ``seed``,
        so the same arguments always yield the same plan — the chaos
        harness's replay-determinism rests on this. ``kernels`` feeds
        the kernel_fault targets (round-robin over the shuffled list);
        with no kernels given, no kernel faults are emitted.
        """
        if horizon_s <= 0:
            raise FaultPlanError(f"horizon_s must be positive, got {horizon_s}")
        rng = np.random.default_rng(seed)
        specs: list[FaultSpec] = []

        def strike() -> float:
            return round(float(rng.uniform(0.0, horizon_s)), 6)

        kernel_pool = list(kernels)
        if kernel_pool:
            rng.shuffle(kernel_pool)
            for index in range(kernel_faults):
                specs.append(
                    FaultSpec(
                        at_s=strike(),
                        kind="kernel_fault",
                        target=kernel_pool[index % len(kernel_pool)],
                        count=int(rng.integers(1, 4)),
                    )
                )
        for _ in range(reconfig_faults):
            specs.append(FaultSpec(at_s=strike(), kind="reconfig_fault",
                                   count=int(rng.integers(1, 3))))
        for _ in range(device_crashes):
            specs.append(FaultSpec(at_s=strike(), kind="device_crash",
                                   duration_s=crash_duration_s))
        for _ in range(link_degrades):
            specs.append(
                FaultSpec(
                    at_s=strike(),
                    kind="link_degrade",
                    target=_LINKS[int(rng.integers(len(_LINKS)))],
                    duration_s=degrade_duration_s,
                    factor=degrade_factor,
                )
            )
        for _ in range(server_outages):
            specs.append(FaultSpec(at_s=strike(), kind="server_outage",
                                   duration_s=outage_duration_s))
        for _ in range(server_slowdowns):
            specs.append(FaultSpec(at_s=strike(), kind="server_slow",
                                   duration_s=slow_duration_s, factor=slow_factor))
        return cls(specs=tuple(specs), seed=int(seed))

    @classmethod
    def empty(cls) -> "FaultPlan":
        """The zero-fault plan (arming it must be a behavioural no-op)."""
        return cls()
