"""Seeding helpers.

Every randomized routine takes an explicit seed. Monte-Carlo work units are
keyed by (master seed, index path) through `substream`, or `scalar_seed` where
an API takes a master seed, so replications are independent, reproducible, and
safe to execute in any order. A seed and each key element are integers
(`operator.index` accepts them): a float, a string or None raises TypeError,
never truncated, parsed or drawing OS entropy.
"""

from __future__ import annotations

from operator import index

import numpy as np


def as_generator(seed) -> np.random.Generator:
    """Coerce an integer seed into a Generator; a Generator passes through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(index(seed)))


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the work unit identified by `key`."""
    return np.random.default_rng(_seed_sequence(master_seed, *key))


def scalar_seed(master_seed: int, *key: int) -> int:
    """Stable integer seed derived for `key`, for APIs that take a master seed."""
    return int(_seed_sequence(master_seed, *key).generate_state(1)[0])


def _seed_sequence(master_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(index(master_seed), spawn_key=tuple(map(index, key)))
