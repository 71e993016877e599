"""Bulk Monte Carlo sampling of mechanism runs.

Iterations are independent and identically distributed, so a run is a
geometric number of restarts that ends in one absorbing send-intent
pattern.  `iteration_kernel` asks the message-level engine what one
iteration does under each of the 8 patterns, for the honest profile or
one catalogued deviation; `sample_runs` weights the patterns by each
player's `coin_bias`, read from its strategy, and draws each trial from
two uniforms at fixed offsets of one Philox stream.  Cost is O(trials)
at any alpha, trial t does not depend on the batch size, and the engine
and the strategies are the only definition of what an iteration does.
The kernel also counts each pattern's messages by kind; `expected_run`
turns it into a run's expected iterations and messages, which size a
transcript dump before it is written.

Anything outside that family goes through the engine:
`sample_runs_reference` loops it, and `TrialStats.from_outcomes`
collects any stream of engine runs, such as the recorded runs of a
transcript dump.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from . import engine
from .protocol import STEPS_PER_ITERATION, MessageKind, RunOutcome, TerminalCause
from .seeding import derive_generator
from .strategies import ForcedCoins, HonestStrategy, Strategy, UtilityTable, deviation_profile, info_key

CAUSE_ORDER = (
    TerminalCause.ALL_LEARNED,
    TerminalCause.CHEAT_STOP,
    TerminalCause.MISSING_BIT_ABORT,
    TerminalCause.ITERATION_CAP_HIT,
)
CAUSE_CODE = {cause: idx for idx, cause in enumerate(CAUSE_ORDER)}

# The 8 send-intent patterns (c1, c2, c3), also the 8 info vectors; row
# 4*c1 + 2*c2 + c3.
_VECTORS = list(product((0, 1), repeat=3))
PATTERNS = np.array(_VECTORS, dtype=bool)
_PATTERN_CODE = np.array([4, 2, 1], dtype=np.int64)
# One profile's iteration table: a column per field, a row per pattern;
# `sent` and `extra_sent` have one column per MessageKind, in its order.
Kernel = namedtuple("Kernel", "restart info extra cause sent extra_sent")


@dataclass
class TrialStats:
    """Per-trial outcomes of a batch of runs."""

    iterations: np.ndarray
    causes: np.ndarray
    info: np.ndarray

    @classmethod
    def from_outcomes(cls, outcomes: Iterable[RunOutcome]) -> TrialStats:
        """Collect engine runs, trial by trial; keeps no transcript."""
        iterations, causes, info = [], [], []
        for outcome in outcomes:
            iterations.append(outcome.iterations)
            causes.append(CAUSE_CODE[outcome.cause])
            info.append(outcome.info)
        return cls(
            np.array(iterations, dtype=np.int64),
            np.array(causes, dtype=np.uint8),
            np.array(info, dtype=np.uint8).reshape(-1, 3),
        )

    @property
    def total_steps(self) -> np.ndarray:
        return STEPS_PER_ITERATION * self.iterations

    def cause_counts(self) -> dict[TerminalCause, int]:
        return {
            cause: int(np.count_nonzero(self.causes == code))
            for cause, code in CAUSE_CODE.items()
        }

    def _info_codes(self) -> np.ndarray:
        """Each trial's info vector as its pattern row, 4*i1 + 2*i2 + i3."""
        codes = self.info[:, 0] << 2
        codes |= self.info[:, 1] << 1
        codes |= self.info[:, 2]
        return codes

    def info_histogram(self) -> dict[str, int]:
        # One count_nonzero per row: np.bincount first casts the uint8 codes
        # to intp and takes about 2.7 times as long (0.36 against 0.13 ms
        # at 10**5 trials).
        codes = self._info_codes()
        return {
            info_key(vec): int(np.count_nonzero(codes == row))
            for row, vec in enumerate(_VECTORS)
        }

    def utilities(self, table: UtilityTable, player: int) -> np.ndarray:
        """Payoffs per trial; cap-hit trials already carry the all-zero vector."""
        lut = np.array([table.payoff(player, vec) for vec in _VECTORS])
        return lut.take(self._info_codes())

    def mean_utility(self, table: UtilityTable, player: int) -> tuple[float, float]:
        """(mean, standard error) of the player's payoff, computed on payoffs divided
        exactly by a power of two near their largest, so squares near 1e308 stay finite."""
        u = self.utilities(table, player)
        scale = math.ldexp(1.0, math.frexp(float(np.abs(u).max(initial=0.0)))[1] - 1)
        u /= scale
        se = float(u.std(ddof=1) / np.sqrt(len(u))) * scale if len(u) > 1 else 0.0
        return float(u.mean()) * scale, se


@cache
def iteration_kernel(deviation: str | None, deviator: int | None) -> Kernel:
    """What one iteration does under each of the 8 send-intent patterns.

    Runs the engine once per pattern with the coins forced (masking bits
    0, cap 2, so a restarting pattern restarts again and hits the cap) and
    records whether every player asked for a restart, who learned, the
    abort iterations that follow a stop (iterations - 1), the cause code,
    and the messages of each kind sent by the pattern's iteration and by
    the iterations after it.  Forced coins make the table independent of
    alpha, alpha' and the seed; a strategy's `coin_bias` only draws coins.
    """
    profile = deviation_profile(deviation, deviator, 1.0)
    rows = []
    for pattern in PATTERNS:
        forced = {p: ForcedCoins([(int(pattern[p - 1]), 0)] * 2, profile.get(p)) for p in (1, 2, 3)}
        out = engine.run_mechanism(5, 0.5, forced, seed=0, cap=2, record=True)
        first, *after = out.transcripts
        rows.append((out.cause == TerminalCause.ITERATION_CAP_HIT, out.info,
                     out.iterations - 1, CAUSE_CODE[out.cause],
                     _kind_counts([first]), _kind_counts(after)))
    kernel = Kernel(*(np.array(column) for column in zip(*rows)))
    for column in kernel:
        column.flags.writeable = False
    return kernel


def _kind_counts(transcripts) -> list[int]:
    """The messages of each MessageKind that the transcripts hold."""
    counts = Counter(msg.kind for transcript in transcripts for msg in transcript.messages)
    return [counts[kind] for kind in MessageKind]


def iteration_outcome(
    coins: np.ndarray, deviation: str | None, deviator: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Look up one iteration for each row of a (T, 3) coin matrix.

    Returns the profile's kernel columns restart, info, extra and cause
    at each row's send-intent pattern.  Columns are players 1..3;
    `deviation` of None means all honest.
    """
    kernel = iteration_kernel(deviation, deviator if deviation is not None else None)
    codes = np.asarray(coins, dtype=np.int64) @ _PATTERN_CODE
    return tuple(column[codes] for column in (kernel.restart, kernel.info, kernel.extra, kernel.cause))


def pattern_weights(alpha, profile: dict[int, Strategy]) -> np.ndarray:
    """Each pattern's probability in one iteration, from each player's
    `coin_bias(alpha)`; a Fraction alpha gives exact Fraction weights."""
    heads = np.array([profile.get(p, HonestStrategy()).coin_bias(alpha) for p in (1, 2, 3)])
    return np.where(PATTERNS, heads, 1 - heads).prod(axis=1)


def absorbing_weights(alpha: float, profile: dict[int, Strategy], restart: np.ndarray):
    """The patterns of positive weight that do not `restart`, and their cumulative weights."""
    weight = pattern_weights(alpha, profile)
    absorbing = np.flatnonzero(~restart & (weight > 0))
    return absorbing, np.cumsum(weight[absorbing])


def expected_run(alpha: float, profile: dict[int, Strategy], kernel: Kernel,
                 cap: int) -> tuple[float, np.ndarray]:
    """A run's expected iterations and messages of each kind (`kernel.sent`'s columns):
    it ends at the first pattern that does not restart, after its abort iterations.
    Past `cap` iterations, or if no pattern ends it, it lasts `cap` average iterations."""
    weight = pattern_weights(alpha, profile)
    ends = np.where(kernel.restart, 0.0, weight)
    ending = ends.sum()
    # What one drawn pattern adds to a run, in iterations and in messages.
    drawn = weight.sum() + ends @ kernel.extra
    sent = weight @ kernel.sent + ends @ kernel.extra_sent
    iterations = min(cap, drawn / ending) if ending else cap
    return iterations, sent * (iterations / drawn)


def sample_runs(
    alpha: float,
    trials: int,
    seed: int,
    deviation: str | None = None,
    deviator: int | None = None,
    alpha_prime: float | None = None,
    cap: int = engine.DEFAULT_CAP,
) -> TrialStats:
    """Sample `trials` independent seeded runs of the mechanism.

    `deviation` of None runs the all-honest profile; otherwise `deviator`
    unilaterally plays the named catalogued deviation.  Iterations are
    i.i.d., so a run restarts a geometric number of times and absorbs in
    one pattern drawn by its weight: trial t reads uniforms 2t and 2t+1
    of one Philox stream for the two draws.  Each player's coin bias is
    its strategy's own `coin_bias(alpha)`.
    """
    engine.check_run_config(alpha, cap)
    profile = deviation_profile(deviation, deviator, alpha_prime)
    restart, info, extra, cause = iteration_outcome(PATTERNS, deviation, deviator)
    absorbing, cdf = absorbing_weights(alpha, profile, restart)
    # One row per absorbing pattern, then a cap row for a trial that
    # restarts `cap` times: it stops at the cap and nobody learns.
    cap_row = absorbing.size
    info_rows = np.zeros((cap_row + 1, 3), dtype=np.uint8)
    info_rows[:cap_row] = info[absorbing]
    cause_rows = np.append(cause[absorbing], CAUSE_CODE[TerminalCause.ITERATION_CAP_HIT]).astype(np.uint8)
    extra_rows = np.append(extra[absorbing], 0)
    if not cap_row:
        # No pattern that ends a run has positive weight: the coin
        # probabilities underflow (alpha**3 does below about 1e-108), so
        # every trial restarts until the cap.
        row = np.zeros(trials, dtype=np.intp)
        return TrialStats(np.full(trials, cap, dtype=np.int64), cause_rows.take(row),
                          info_rows.take(row, axis=0))

    rng = derive_generator(seed, "mc", deviation or "honest", deviator or 0, alpha_prime or 0.0)
    u = rng.random((trials, 2))
    with np.errstate(divide="ignore"):  # all absorb: weights sum to 1 up to rounding, k = 1
        k = np.log1p(-u[:, 0])
        k /= np.log1p(-min(cdf[-1], 1.0))
    np.floor(k, out=k)
    k += 1
    # The absorbing row: how many cdf entries below the last one u * cdf[-1]
    # reaches.  Each per-trial temporary is dropped once read, so a call
    # peaks near 33 bytes per trial.
    v = u[:, 1] * cdf[-1]
    del u
    row = np.zeros(trials, dtype=np.intp)
    for edge in cdf[:-1]:
        row += v >= edge
    del v
    row[k > cap] = cap_row
    k += extra_rows.take(row)
    np.minimum(k, cap, out=k)
    return TrialStats(k.astype(np.int64), cause_rows.take(row), info_rows.take(row, axis=0))


def sample_runs_reference(
    alpha: float,
    trials: int,
    seed: int,
    deviation: str | None = None,
    deviator: int | None = None,
    alpha_prime: float | None = None,
    cap: int = engine.DEFAULT_CAP,
) -> TrialStats:
    """Same interface as sample_runs, but looping the message-level engine."""
    profile = deviation_profile(deviation, deviator, alpha_prime)
    outcomes = (
        engine.run_mechanism(5, alpha, profile, seed, cap=cap, record=False, trial=t)
        for t in range(trials)
    )
    return TrialStats.from_outcomes(outcomes)
