"""Bulk Monte Carlo sampling of mechanism runs.

Iterations are independent and identically distributed, so a run is a
geometric number of restarts that ends in one absorbing send-intent
pattern.  `iteration_kernel` asks the message-level engine what one
iteration does under each of the 8 patterns, for the honest profile or
one catalogued deviation; `sample_runs` weights the patterns by each
player's `coin_bias`, read from its strategy, and draws each trial from
two uniforms at fixed offsets of one Philox stream.  A trial is its
iteration count and its outcome, an index into OUTCOMES, the 32 pairs
of terminal cause and info vector; cause counts, the info histogram and
the exact mean payoff all read one count per outcome.  Cost is
O(trials) at any alpha, trial t does not depend on the batch size, and
the engine and the strategies are the only definition of what an
iteration does.
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
from fractions import Fraction
from functools import cache

import numpy as np

from . import engine
from .protocol import STEPS_PER_ITERATION, MessageKind, RunOutcome, TerminalCause
from .seeding import derive_generator
from .strategies import (
    ForcedCoins, HonestStrategy, Strategy, UtilityTable, all_info_vectors, deviation_profile,
    info_key, sqrt_view,
)

CAUSE_ORDER = tuple(TerminalCause)

# The 8 send-intent patterns (c1, c2, c3), also the 8 info vectors; row
# 4*c1 + 2*c2 + c3.
_VECTORS = all_info_vectors(3)
PATTERNS = np.array(_VECTORS, dtype=bool)
# How a run can end: a terminal cause and an info vector, at index
# 8 * (the cause's place in CAUSE_ORDER) + (the vector's row).
OUTCOMES = tuple((cause, vec) for cause in CAUSE_ORDER for vec in _VECTORS)
# A run that restarts until the cap stops there, and nobody learns.
_CAP_OUTCOME = OUTCOMES.index((TerminalCause.ITERATION_CAP_HIT, (0, 0, 0)))
# One profile's iteration table: a column per field, a row per pattern;
# `sent` and `extra_sent` have one column per MessageKind, in its order.
Kernel = namedtuple("Kernel", "restart outcome extra sent extra_sent")


@dataclass
class TrialStats:
    """Per-trial results of a batch of runs: the iterations, and how the run
    ended as an index into OUTCOMES."""

    iterations: np.ndarray
    outcomes: np.ndarray

    @classmethod
    def from_outcomes(cls, runs: Iterable[RunOutcome]) -> TrialStats:
        """Collect engine runs, trial by trial; keeps no transcript."""
        iterations, outcomes = [], []
        for run in runs:
            iterations.append(run.iterations)
            outcomes.append(OUTCOMES.index((run.cause, run.info)))
        return cls(np.array(iterations, dtype=np.int64), np.array(outcomes, dtype=np.uint8))

    @property
    def total_steps(self) -> np.ndarray:
        return STEPS_PER_ITERATION * self.iterations

    def _counts(self) -> np.ndarray:
        """How many trials ended in each outcome: a row per cause in
        CAUSE_ORDER, a column per info vector's row."""
        return np.bincount(self.outcomes, minlength=len(OUTCOMES)).reshape(len(CAUSE_ORDER), -1)

    def cause_counts(self) -> dict[TerminalCause, int]:
        return dict(zip(CAUSE_ORDER, self._counts().sum(axis=1).tolist()))

    def info_histogram(self) -> dict[str, int]:
        return dict(zip(map(info_key, _VECTORS), self._counts().sum(axis=0).tolist()))

    def mean_utility(self, table: UtilityTable, player: int) -> tuple[Fraction, float]:
        """(mean, standard error) of the player's payoff; cap-hit trials carry the
        all-zero vector.

        A payoff depends only on the info vector, so both are sums over the 8
        info counts, in integers over the common denominator of the player's
        payoffs: the mean is exact, and the standard error is the square root
        of the exact sample variance over the trial count, as a float (inf
        past the float range).
        """
        payoffs = [table.payoff(player, vec) for vec in _VECTORS]
        den = math.lcm(*(u.denominator for u in payoffs))
        nums = [u.numerator * (den // u.denominator) for u in payoffs]
        counts = self._counts().sum(axis=0).tolist()
        n = sum(counts)
        total = sum(c * a for c, a in zip(counts, nums))
        mean = Fraction(total, n * den)
        if n < 2:
            return mean, 0.0
        squares = sum(c * a * a for c, a in zip(counts, nums))
        # The sample variance is (n * squares - total**2) / (n * (n - 1) * den**2).
        variance_of_mean = Fraction(n * squares - total * total, (n - 1) * n * n * den * den)
        return mean, sqrt_view(variance_of_mean)


@cache
def iteration_kernel(deviation: str | None, deviator: int | None) -> Kernel:
    """What one iteration does under each of the 8 send-intent patterns.

    Runs the engine once per pattern with the coins forced (masking bits
    0, cap 2, so a restarting pattern restarts again and hits the cap) and
    records whether every player asked for a restart, the run's outcome
    (its index in OUTCOMES), the abort iterations that follow a stop
    (iterations - 1), and the messages of each kind sent by the pattern's
    iteration and by the iterations after it.  Forced coins make the table independent of
    alpha, alpha' and the seed; a strategy's `coin_bias` only draws coins.
    """
    profile = deviation_profile(deviation, deviator, 1.0)
    rows = []
    for pattern in PATTERNS:
        forced = {p: ForcedCoins([(int(pattern[p - 1]), 0)] * 2, profile.get(p)) for p in (1, 2, 3)}
        out = engine.run_mechanism(5, 0.5, forced, seed=0, cap=2, record=True)
        first, *after = out.transcripts
        rows.append((out.cause == TerminalCause.ITERATION_CAP_HIT,
                     OUTCOMES.index((out.cause, out.info)), out.iterations - 1,
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
    deviation: str | None, deviator: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The profile's kernel columns restart, outcome and extra, a row per
    send-intent pattern; `deviation` of None means all honest."""
    kernel = iteration_kernel(deviation, deviator if deviation is not None else None)
    return kernel.restart, kernel.outcome, kernel.extra


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
    with np.errstate(over="ignore"):  # a subnormal `ending`: past the cap
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
    restart, outcome, extra = iteration_outcome(deviation, deviator)
    absorbing, cdf = absorbing_weights(alpha, profile, restart)
    # One row per absorbing pattern, then the cap row of a trial that
    # restarts `cap` times.
    cap_row = absorbing.size
    outcome_rows = np.append(outcome[absorbing], _CAP_OUTCOME).astype(np.uint8)
    extra_rows = np.append(extra[absorbing], 0)
    if not cap_row:
        # No pattern that ends a run has positive weight: the coin
        # probabilities underflow (alpha**3 does below about 1e-108), so
        # every trial restarts until the cap.
        return TrialStats(np.full(trials, cap, dtype=np.int64),
                          np.full(trials, outcome_rows[cap_row]))

    rng = derive_generator(seed, "mc", deviation or "honest", deviator or 0, alpha_prime or 0.0)
    u = rng.random((trials, 2))
    # All absorb: the weights sum to 1 up to rounding, and k = 1 (divide).  A
    # subnormal absorbing weight: k overflows to inf, past the cap (over).
    with np.errstate(divide="ignore", over="ignore"):
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
    return TrialStats(k.astype(np.int64), outcome_rows.take(row))


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
