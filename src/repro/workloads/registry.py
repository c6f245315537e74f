"""Workload registry: name -> constructed workload.

The five Table 1 benchmarks plus MG-B and parameterized BFS. Experiment
code draws random application sets from :data:`PAPER_BENCHMARKS`, the
same five-benchmark pool the paper samples from (Section 4.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.base import Workload

__all__ = ["PAPER_BENCHMARKS", "create_workload", "available_workloads"]

#: The paper's five-benchmark evaluation pool (Section 4).
PAPER_BENCHMARKS: tuple[str, ...] = (
    "cg.A",
    "facedet.320",
    "facedet.640",
    "digit.500",
    "digit.2000",
)

#: Registry name -> (class in :mod:`repro.workloads.base`, its arguments).
#: The classes are named, not imported: only functional runs construct
#: a workload, and the kernels stay unloaded until one does.
_FACTORIES: dict[str, tuple[str, tuple[int, ...]]] = {
    "cg.A": ("CGWorkload", ()),
    "facedet.320": ("FaceDetectionWorkload", (320, 240)),
    "facedet.640": ("FaceDetectionWorkload", (640, 480)),
    "digit.500": ("DigitRecognitionWorkload", (500,)),
    "digit.2000": ("DigitRecognitionWorkload", (2000,)),
    "mg.B": ("MGWorkload", ()),
    "facedet.multi": ("MultiImageFaceDetection", ()),
    # Extension workload (not in the paper's pool): Rosetta-style spam
    # filter; demonstrates the pipeline generalizes beyond Table 1.
    "spam.1024": ("SpamFilterWorkload", ()),
}


def create_workload(name: str) -> Workload:
    """Instantiate a workload by registry name (``bfs.<n>`` is dynamic)."""
    from repro.workloads import base

    if name in _FACTORIES:
        cls, args = _FACTORIES[name]
        return getattr(base, cls)(*args)
    if name.startswith("bfs."):
        try:
            n_nodes = int(name.split(".", 1)[1])
        except ValueError:
            raise KeyError(f"bad BFS workload name {name!r}") from None
        return base.BFSWorkload(n_nodes)
    raise KeyError(f"unknown workload {name!r} (known: {available_workloads()})")


def available_workloads() -> tuple[str, ...]:
    """All fixed registry names (BFS is additionally available as bfs.<n>)."""
    return tuple(_FACTORIES)
