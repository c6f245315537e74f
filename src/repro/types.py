"""Shared core types.

:class:`Target` mirrors the paper's migration-flag encoding
(Section 3.2): 0 = x86 (do not migrate), 1 = ARM (software migration via
Popcorn), 2 = FPGA (hardware migration via XRT).
"""

from __future__ import annotations

import enum

__all__ = ["Target"]


class Target(enum.IntEnum):
    """Where a selected function executes.

    ``label`` is the lowercase name (``"x86"``, ``"arm"``, ``"fpga"``),
    which is also what ``str()`` prints.
    """

    X86 = 0
    ARM = 1
    FPGA = 2

    @property
    def isa(self) -> str:
        """The ISA string for CPU targets; raises for FPGA."""
        if self is Target.X86:
            return "x86_64"
        if self is Target.ARM:
            return "aarch64"
        raise ValueError("FPGA target has no CPU ISA")

    def __str__(self) -> str:
        return self.label


# ``label`` is the lowercase name, precomputed: ``self.name`` goes
# through the enum's ``name`` descriptor, and metric labels, DSM node
# names and the scorers print targets thousands of times per experiment
# (hot paths read ``target.label`` and skip ``str()``'s dispatch too).
for _target in Target:
    _target.label = _target.name.lower()
del _target
