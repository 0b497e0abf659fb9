"""Seeding helpers.

Every randomized routine takes an explicit seed. Monte-Carlo work units are
keyed by (master seed, index path) through `substream`, so replications are
independent, reproducible, and safe to execute in any order.
"""

from __future__ import annotations

import numpy as np


def as_generator(seed) -> np.random.Generator:
    """Coerce an int, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the work unit identified by `key`."""
    return np.random.default_rng(np.random.SeedSequence(int(master_seed), spawn_key=tuple(key)))
