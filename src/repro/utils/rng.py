"""Seeded randomness helpers.

All dataset generators take explicit integer seeds and derive independent
:class:`random.Random` streams from them, so every experiment in
EXPERIMENTS.md is reproducible bit-for-bit without global state.
"""

from __future__ import annotations

import random


def rng_from_seed(seed: int, salt: str = "") -> random.Random:
    """An independent RNG stream derived from ``seed`` and a salt string.

    Different salts give decorrelated streams from the same seed, so a
    generator can use separate streams for, e.g., topology and labels
    without the two sweeps aliasing.
    """
    return random.Random(f"{seed}:{salt}")
