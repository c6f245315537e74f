"""Seeded, named random-number streams for reproducible experiments.

Each named stream is an independent ``numpy`` generator derived from the
root seed, so adding a new consumer of randomness does not perturb the
draws seen by existing consumers (a classic simulation-reproducibility
pitfall).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A family of independent, deterministically derived RNG streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name``, created on first use."""
        if name not in self._streams:
            # numpy loads with the first stream, not with repro.sim: the
            # CLI's parser imports the package and draws nothing.
            import numpy as np

            digest = hashlib.sha256(f"{self.seed}/{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """A child family, independent of this one and of other children."""
        digest = hashlib.sha256(f"{self.seed}//{name}".encode()).digest()
        return RandomStreams(int.from_bytes(digest[:8], "little"))
