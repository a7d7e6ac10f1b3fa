"""Deterministic RNG streams.

Every random decision in the pipeline draws from a generator derived from
(global seed, purpose, epoch, clip id). Strings enter the seed sequence
through a stable hash, so streams are reproducible across runs and machines
and independent across purposes.
"""

from __future__ import annotations

import hashlib

import numpy as np

PURPOSE_INIT = 0
PURPOSE_SHUFFLE = 1
PURPOSE_MIXUP = 2
PURPOSE_SYNTH = 5
PURPOSE_SUBSET = 6
PURPOSE_AUGMENT = 7


def stable_hash(text: str) -> int:
    """64-bit content hash, stable across processes (unlike ``hash()``)."""
    digest = hashlib.blake2s(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_rng(*components) -> np.random.Generator:
    """Generator seeded from a mix of ints and strings."""
    entropy = [stable_hash(c) if isinstance(c, str) else int(c)
               for c in components]
    return np.random.default_rng(entropy)
