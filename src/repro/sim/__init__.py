"""Deterministic discrete-event simulation kernel.

Provides the event loop (:class:`Simulator`) and its one-shot events
(:class:`Event`), which the models drive as callback chains; periodic
timers (:class:`PeriodicCall`); seeded RNG streams
(:class:`RandomStreams`); and the run timeline's entry type
(:class:`TimelineEvent`).
"""

from repro.sim.engine import (
    Event,
    PeriodicCall,
    SimulationError,
    Simulator,
)
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TimelineEvent

__all__ = [
    "Event",
    "PeriodicCall",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "TimelineEvent",
]
