"""Deterministic randomness derivation.

Every stochastic component draws from a substream derived from one root
seed through keyed BLAKE2b hashing.  Substreams are labelled by a path
(trial index, player id, purpose string, ...), so independent pieces of a
run never share state and results reproduce regardless of execution
order or worker count.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np


def derive_bytes(root: int, *path: int | float | str) -> bytes:
    """Hash (root, path...) into 16 bytes."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(int(root)).encode())
    for part in path:
        h.update(b"/")
        h.update(repr(part).encode())
    return h.digest()


def derive_int(root: int, *path: int | float | str) -> int:
    """128-bit integer substream label for (root, path...)."""
    return int.from_bytes(derive_bytes(root, *path), "big")


def derive_rng(root: int, *path: int | float | str) -> random.Random:
    """Stdlib Random seeded for the given substream."""
    return random.Random(derive_int(root, *path))


def derive_generator(root: int, *path: int | float | str) -> np.random.Generator:
    """Counter-based numpy generator (Philox) for bulk array draws."""
    key = np.frombuffer(derive_bytes(root, *path), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
