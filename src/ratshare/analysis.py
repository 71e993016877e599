"""Exact incentive analysis of the coin mechanism.

Closed forms for the per-iteration outcome distribution, the expected
payoff of honest play and of withholding, the coin-bias threshold below
which honesty is a Nash equilibrium, and the expected running time; plus
a Monte Carlo audit that compares every catalogued deviation against the
honest baseline.

Honest play absorbs only when everyone learns, so its expected payoff is
exactly the everyone-learns entry of the utility table.  A withholding
player is absorbed either when both other coins were heads (it alone
learns) or both were tails (it is caught and nobody learns); averaging
those two outcomes over the geometric restart process gives the
withholding payoff, and equating it with the honest payoff yields the
threshold alpha* = sqrt(R) / (1 + sqrt(R)) with
R = (u_all - u_none) / (u_only - u_all).

All of this is about the 3-ring (the withholding payoff rests on "both
other coins"), so every function that takes a utility table first runs
`table.require(3)`: a table of any other size, or one that breaks the
axioms, raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import montecarlo
from .engine import DEFAULT_CAP
from .seeding import derive_int
from .strategies import UtilityTable, parse_deviation


@dataclass(frozen=True)
class IterationDistribution:
    """Honest per-iteration outcome probabilities; sums to 1 exactly."""

    alpha: float
    p_success: float
    p_lone_send: float
    p_silent_restart: float


def iteration_distribution(alpha: float) -> IterationDistribution:
    """Probabilities of success, lone-send restart, and silent restart."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    a = Fraction(alpha)
    p_success = a**3
    p_lone = 3 * a * (1 - a) ** 2
    p_silent = (1 - a) ** 3 + 3 * a**2 * (1 - a)
    assert p_success + p_lone + p_silent == 1
    return IterationDistribution(alpha, float(p_success), float(p_lone), float(p_silent))


def expected_utility_honest(alpha: float, table: UtilityTable, player: int) -> float:
    """Expected payoff of honest play: the run ends with everyone learning."""
    if not 0 < alpha < 1:
        raise ValueError(f"honest-play analysis needs alpha in (0, 1), got {alpha}")
    return table.require(3).u_all(player)


def withhold_lhs(alpha: float, table: UtilityTable, player: int) -> float:
    """Expected payoff of withholding, no validation (used by the audit)."""
    a2 = alpha**2
    b2 = (1 - alpha) ** 2
    return (a2 * table.u_only(player) + b2 * table.u_none(player)) / (a2 + b2)


def expected_utility_withhold(alpha: float, table: UtilityTable, player: int) -> float:
    """Expected payoff of unilaterally withholding the share.

    Conditioned on absorption, the player alone learns with probability
    a^2/(a^2+(1-a)^2) and nobody learns otherwise.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return withhold_lhs(alpha, table.require(3), player)


def cheating_profitable(alpha: float, table: UtilityTable, player: int) -> bool:
    """Strict inequality: withholding beats honest play."""
    return withhold_lhs(alpha, table, player) > table.u_all(player)


@dataclass(frozen=True)
class AlphaStar:
    """Per-player honesty thresholds, their minimum, and each player's R."""

    per_player: dict[int, float]
    global_star: float
    ratio: dict[int, float]


def alpha_star(table: UtilityTable) -> AlphaStar:
    """Coin bias below which no player profits from withholding.

    Solves a^2 (u_only - u_all) = (1-a)^2 (u_all - u_none) per player:
    alpha*_i = sqrt(R_i) / (1 + sqrt(R_i)) with
    R_i = (u_all - u_none) / (u_only - u_all).  The global threshold is
    the minimum over players; equality at the threshold still counts as
    no incentive because the cheating condition is strict.  The axioms
    make u_only > u_all for every player of a 3-player table, so R is
    finite.
    """
    table.require(3)
    per_player, ratio = {}, {}
    for player in (1, 2, 3):
        gain = table.u_only(player) - table.u_all(player)
        loss = table.u_all(player) - table.u_none(player)
        ratio[player] = loss / gain
        root = math.sqrt(ratio[player])
        per_player[player] = root / (1 + root)
    return AlphaStar(per_player, min(per_player.values()), ratio)


def expected_steps(alpha: float) -> float:
    """Expected total steps of an honest run: five per iteration."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return 5 / alpha**3


@dataclass(frozen=True)
class RunningTimeReport:
    alpha: float
    trials: int
    closed_form: float
    empirical_mean: float
    std_error: float
    relative_error: float


def verify_running_time(
    alpha: float, trials: int, seed: int, cap: int = DEFAULT_CAP
) -> RunningTimeReport:
    """Compare the closed-form step count with seeded honest runs."""
    stats = montecarlo.sample_runs(alpha, trials, seed, cap=cap)
    steps = stats.total_steps
    mean = float(steps.mean())
    se = float(steps.std(ddof=1) / math.sqrt(trials))
    closed = expected_steps(alpha)
    return RunningTimeReport(
        alpha=alpha,
        trials=trials,
        closed_form=closed,
        empirical_mean=mean,
        std_error=se,
        relative_error=abs(mean - closed) / closed,
    )


NO_INCENTIVE = "NoIncentive"
PROFITABLE = "ProfitableDeviation"


@dataclass(frozen=True)
class AuditEntry:
    deviation: str
    deviator: int
    baseline: float
    mc_estimate: float
    std_error: float
    closed_form: float | None
    verdict: str


@dataclass(frozen=True)
class NashAuditReport:
    alpha: float
    trials: int
    seed: int
    entries: tuple[AuditEntry, ...]

    @property
    def any_profitable(self) -> bool:
        return any(e.verdict == PROFITABLE for e in self.entries)


DEFAULT_AUDIT_DEVIATIONS = (
    "withhold",
    "biased-coin:1",
    "garble-step2",
    "always-silent",
    "always-broadcast",
)


def nash_audit(
    alpha: float,
    table: UtilityTable,
    deviations: tuple[str, ...] = DEFAULT_AUDIT_DEVIATIONS,
    trials: int = 100_000,
    seed: int = 0,
    deviators: tuple[int, ...] = (1, 2, 3),
    cap: int = DEFAULT_CAP,
) -> NashAuditReport:
    """Monte Carlo every catalogued unilateral deviation against honesty.

    A deviation is flagged as profitable when its estimate beats the
    honest baseline by more than three standard errors, or when its
    closed form (withholding only) strictly beats the baseline.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if trials < 10_000:
        raise ValueError(f"audit needs at least 10^4 trials, got {trials}")
    table.require(3)
    entries = []
    for spec in deviations:
        name, alpha_prime = parse_deviation(spec)
        for deviator in deviators:
            stats = montecarlo.sample_runs(
                alpha,
                trials,
                derive_int(seed, "audit", spec, deviator),
                deviation=name,
                deviator=deviator,
                alpha_prime=alpha_prime,
                cap=cap,
            )
            baseline = table.u_all(deviator)
            mc, se = stats.mean_utility(table, deviator)
            closed = withhold_lhs(alpha, table, deviator) if name == "withhold" else None
            profitable = mc - baseline > 3 * se or (closed is not None and closed > baseline)
            entries.append(
                AuditEntry(
                    deviation=spec,
                    deviator=deviator,
                    baseline=baseline,
                    mc_estimate=mc,
                    std_error=se,
                    closed_form=closed,
                    verdict=PROFITABLE if profitable else NO_INCENTIVE,
                )
            )
    return NashAuditReport(alpha=alpha, trials=trials, seed=seed, entries=tuple(entries))
