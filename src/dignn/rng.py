"""Reproducible random streams.

All randomness in the package is drawn from numpy's counter-based Philox
generator. A single root seed is expanded into named child streams in a
fixed order (split, init, sample), so any run is replayable from one integer.
"""

from __future__ import annotations

import numpy as np

STREAM_NAMES = ("split", "init", "sample")


def seed_streams(root_seed: int) -> dict[str, np.random.SeedSequence]:
    """Expand a root seed into the named child seed sequences."""
    children = np.random.SeedSequence(root_seed).spawn(len(STREAM_NAMES))
    return dict(zip(STREAM_NAMES, children))


def generator(seed, skip: int = 0) -> np.random.Generator:
    """Philox generator from an int or SeedSequence, past the first ``skip``
    64-bit draws of its stream (one per ``random`` value)."""
    bits = np.random.Philox(seed)
    bits.advance(skip // 4)  # one counter step yields four 64-bit draws
    rng = np.random.Generator(bits)
    rng.random(skip % 4)
    return rng
