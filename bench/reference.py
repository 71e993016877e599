"""A fixed reference workload that tracks the host's speed, not ratshare's.

The host's CPU speed swings by up to half, over seconds and sometimes
for a whole run, and the swing is not the same for every kind of code.
The reference mixes the kinds of work the workloads do: an integer loop,
numpy array operations, small frozen dataclasses kept in a dict and
sorted, HMAC-SHA256 tags, and Fraction arithmetic.  It imports nothing
from ratshare, so a change to the program leaves it unchanged.
"""

from __future__ import annotations

import hashlib
import hmac
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class _Point:
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x < 0:
            raise ValueError("negative x")


def _integers() -> int:
    total = 0
    for i in range(15_000):
        total += i * i % 7
    return total


def _objects() -> int:
    points = {}
    for i in range(3_000):
        point = _Point(i, i * 7 % 13)
        points[(point.x, point.y)] = point
    return sorted(points.values(), key=lambda p: (p.y, p.x))[0].x


def _tags() -> int:
    key = b"reference-key-16"
    return sum(
        hmac.new(key, f"share|{i}|{3 * i}".encode(), hashlib.sha256).digest()[0]
        for i in range(1_500)
    )


def _fractions() -> int:
    total, below = Fraction(0), 0
    for i in range(1, 600):
        total += Fraction(i, i + 1)
        below += total < Fraction(i, 3)
    return below


class Reference:
    ROUNDS = 3  # kernel rounds per timed sample, about as long as one command

    def __init__(self, sets: int):
        coins = np.random.default_rng(0).random((20_000, 3))

        def arrays() -> int:
            total = 0
            for _ in range(20):
                heads = coins < 0.5
                total += int(np.count_nonzero(heads[:, 0] ^ heads[:, 1] ^ heads[:, 2]))
            return total

        self.kernels = (_integers, arrays, _objects, _tags, _fractions)
        self.times: list[list[float]] = [[] for _ in range(sets)]

    def run(self, index: int) -> None:
        """Time one sample, filed under the input set of the pass just run."""
        start = time.perf_counter()
        for _ in range(self.ROUNDS):
            for kernel in self.kernels:
                kernel()
        self.times[index].append(time.perf_counter() - start)

    def best(self) -> float:
        """Sum over input sets of the fastest sample filed under each, in seconds.

        Commands are scored the same way, so a run that is fast only in
        moments shorter than a command does not flatter the reference.
        """
        return sum(min(times) for times in self.times)

    def samples(self) -> int:
        return sum(len(times) for times in self.times)
