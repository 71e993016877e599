"""Bulk Monte Carlo sampling of mechanism runs.

The honest profile and every catalogued single-deviator profile touch
the shares only through who-broadcast-what, so their runs can be sampled
as numpy array operations over coin matrices.  An honest run lasts
1/alpha^3 iterations on average and its cost grows with it: 200k trials
take a fraction of a second at alpha = 0.5 but tens of seconds at
alpha = 0.1.  tests/test_montecarlo.py checks this sampler against the
message-level engine on all 64 coin assignments for every supported
profile, which makes the two implementations provably interchangeable
per iteration.

Anything outside that family (custom strategies, lifts, transcript
dumps) goes through `sample_runs_reference`, which loops the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .protocol import TerminalCause
from .seeding import derive_generator
from .strategies import DEVIATIONS, UtilityTable, deviation_profile, info_key

CAUSE_ORDER = (
    TerminalCause.ALL_LEARNED,
    TerminalCause.CHEAT_STOP,
    TerminalCause.MISSING_BIT_ABORT,
    TerminalCause.ITERATION_CAP_HIT,
)
CAUSE_CODE = {cause: idx for idx, cause in enumerate(CAUSE_ORDER)}

@dataclass
class TrialStats:
    """Per-trial outcomes of a batch of runs."""

    alpha: float
    trials: int
    deviation: str | None
    deviator: int | None
    iterations: np.ndarray
    causes: np.ndarray
    info: np.ndarray

    @property
    def total_steps(self) -> np.ndarray:
        return 5 * self.iterations

    def cause_counts(self) -> dict[TerminalCause, int]:
        return {
            cause: int(np.count_nonzero(self.causes == code))
            for cause, code in CAUSE_CODE.items()
        }

    def info_histogram(self) -> dict[str, int]:
        codes = self.info @ np.array([4, 2, 1], dtype=np.int64)
        counts = np.bincount(codes, minlength=8)
        return {
            info_key(((code >> 2) & 1, (code >> 1) & 1, code & 1)): int(counts[code])
            for code in range(8)
        }

    def utilities(self, table: UtilityTable, player: int) -> np.ndarray:
        """Payoffs per trial; cap-hit trials already carry the all-zero vector."""
        lut = np.array(
            [
                table.payoff(player, ((code >> 2) & 1, (code >> 1) & 1, code & 1))
                for code in range(8)
            ]
        )
        codes = self.info @ np.array([4, 2, 1], dtype=np.int64)
        return lut[codes]

    def mean_utility(self, table: UtilityTable, player: int) -> tuple[float, float]:
        """(mean, standard error) of the player's payoff."""
        u = self.utilities(table, player)
        se = float(u.std(ddof=1) / np.sqrt(len(u))) if len(u) > 1 else 0.0
        return float(u.mean()), se


def iteration_outcome(
    coins: np.ndarray, deviation: str | None, deviator: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify one iteration for each row of a (T, 3) coin matrix.

    Returns (all_restart, info, cascade): whether every player asks for a
    restart, who learned when the run absorbs, and whether an absorbed row
    mixes stops with restarts (costing one extra abort iteration).
    Columns are players 1..3; `deviation` of None means all honest.
    """
    heads = coins.astype(bool)
    t = heads.shape[0]
    parity = heads[:, 0] ^ heads[:, 1] ^ heads[:, 2]
    pview = np.repeat(parity[:, None], 3, axis=1)
    d = deviator - 1 if deviator is not None else None
    if deviation == "garble-step2":
        victim = (d - 1) % 3  # the deviator's predecessor mis-computes parity
        pview[:, victim] = ~pview[:, victim]
    broadcast = heads & pview
    if deviation == "withhold":
        broadcast[:, d] = False
    elif deviation == "always-broadcast":
        broadcast[:, d] = True
    count = broadcast.sum(axis=1)
    restart = (~pview & (count[:, None] == 0)) | (pview & (count[:, None] == 1))
    all_restart = restart.all(axis=1)
    info = np.zeros((t, 3), dtype=np.uint8)
    for j in range(3):
        info[:, j] = broadcast[:, (j + 1) % 3] & broadcast[:, (j + 2) % 3]
    info[all_restart] = 0
    cascade = ~all_restart & restart.any(axis=1)
    return all_restart, info, cascade


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
    unilaterally plays the named catalogued deviation.
    """
    engine.check_run_config(alpha, cap)
    if deviation is not None:
        if deviation not in DEVIATIONS:
            raise ValueError(f"unknown deviation {deviation!r}")
        if deviator not in (1, 2, 3):
            raise ValueError("deviator must be one of players 1..3")
    if deviation == "biased-coin":
        if alpha_prime is None or not 0 < alpha_prime <= 1:
            raise ValueError("biased-coin needs alpha' in (0, 1]")

    iterations = np.zeros(trials, dtype=np.int64)
    causes = np.full(trials, CAUSE_CODE[TerminalCause.ITERATION_CAP_HIT], dtype=np.uint8)
    info = np.zeros((trials, 3), dtype=np.uint8)

    if deviation == "always-silent":
        # Nobody ever receives the deviator's coin bits: both neighbors
        # (everyone, on a 3-ring) abort in the first iteration.
        iterations[:] = 1
        causes[:] = CAUSE_CODE[TerminalCause.MISSING_BIT_ABORT]
        return TrialStats(alpha, trials, deviation, deviator, iterations, causes, info)

    rng = derive_generator(seed, "mc", deviation or "honest", deviator or 0, alpha_prime or 0.0)
    alive = np.arange(trials)
    d = deviator - 1 if deviator is not None else None
    k = 0
    code_all = CAUSE_CODE[TerminalCause.ALL_LEARNED]
    code_cheat = CAUSE_CODE[TerminalCause.CHEAT_STOP]
    while alive.size and k < cap:
        k += 1
        u = rng.random((alive.size, 3))
        heads = u < alpha
        if deviation == "biased-coin":
            heads[:, d] = u[:, d] < alpha_prime
        all_restart, step_info, cascade = iteration_outcome(heads, deviation, deviator)
        done = ~all_restart
        if done.any():
            rows = alive[done]
            info[rows] = step_info[done]
            learned_all = step_info[done].all(axis=1)
            causes[rows] = np.where(learned_all, code_all, code_cheat)
            iterations[rows] = np.minimum(k + cascade[done], cap)
        alive = alive[all_restart]
    iterations[alive] = k
    return TrialStats(alpha, trials, deviation, deviator, iterations, causes, info)


def sample_iteration_kinds(alpha: float, trials: int, seed: int) -> dict[str, int]:
    """Classify `trials` independent honest iterations.

    Kinds: success (all three coins 1), lone_send (exactly one coin 1, so
    one share is broadcast and everyone restarts), silent_restart (parity
    0, nothing broadcast).
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    rng = derive_generator(seed, "mc", "iteration-kinds")
    heads = rng.random((trials, 3)) < alpha
    n_heads = heads.sum(axis=1)
    success = int(np.count_nonzero(n_heads == 3))
    lone = int(np.count_nonzero(n_heads == 1))
    return {
        "success": success,
        "lone_send": lone,
        "silent_restart": trials - success - lone,
    }


def sample_runs_reference(
    alpha: float,
    trials: int,
    seed: int,
    deviation: str | None = None,
    deviator: int | None = None,
    alpha_prime: float | None = None,
    cap: int = engine.DEFAULT_CAP,
    secret: int = 5,
) -> TrialStats:
    """Same interface as sample_runs, but looping the message-level engine."""
    profile = deviation_profile(deviation, deviator, alpha_prime)
    iterations = np.zeros(trials, dtype=np.int64)
    causes = np.zeros(trials, dtype=np.uint8)
    info = np.zeros((trials, 3), dtype=np.uint8)
    for t in range(trials):
        outcome = engine.run_mechanism(
            secret, alpha, profile, seed, cap=cap, record=False, trial=t
        )
        iterations[t] = outcome.iterations
        causes[t] = CAUSE_CODE[outcome.cause]
        if outcome.cause != TerminalCause.ITERATION_CAP_HIT:
            info[t] = outcome.info
    return TrialStats(alpha, trials, deviation, deviator, iterations, causes, info)
