"""The run timeline's event type.

A deployment built with tracing on (``HeterogeneousPlatform(trace=True)``)
keeps ``platform.timeline``, a list of :class:`TimelineEvent`. The
scheduler server is its only writer: it appends each Algorithm 2
decision and each FPGA load it starts.
:func:`repro.experiments.extract_timeline` merges those with the run
records' application spans.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TimelineEvent"]


@dataclass(frozen=True)
class TimelineEvent:
    """One timeline entry."""

    time_s: float
    kind: str  # app-start | app-end | decision | reconfig
    app: str
    detail: str
