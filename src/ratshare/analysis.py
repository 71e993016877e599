"""Exact incentive analysis of the coin mechanism.

Closed forms for the expected payoff of withholding, the coin-bias
threshold below which honesty is a Nash equilibrium, and the expected
running time; plus a Monte Carlo
audit that compares every catalogued deviation against the honest
baseline.

Honest play absorbs only when everyone learns, so its expected payoff is
exactly the everyone-learns entry of the utility table.  A withholding
player is absorbed either when both other coins were heads (it alone
learns) or both were tails (it is caught and nobody learns); averaging
those two outcomes over the geometric restart process gives the
withholding payoff, and equating it with the honest payoff yields the
threshold alpha* = sqrt(R) / (1 + sqrt(R)) with
R = (u_all - u_none) / (u_only - u_all).

Table payoffs are exact (`strategies.parse_payoff`), so gain, loss and R
are exact, and the audit decides the closed-form withholding verdict in
Q at the float alpha it is given.  The sampled mean is exact too (a sum
over the trials' info counts), and the audit compares its gain over the
baseline with three standard errors in Q; only the square roots are
floats.

All of this is about the 3-ring (the withholding payoff rests on "both
other coins"), so `alpha_star` and `nash_audit` first run
`table.require(3)`: a table of any other size, or one that breaks the
axioms, raises ValueError.  `withhold_lhs` is the bare closed form and
checks nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import montecarlo
from .engine import DEFAULT_CAP
from .protocol import STEPS_PER_ITERATION
from .seeding import derive_int
from .strategies import (
    DEVIATIONS, UtilityTable, deviation_profile, float_view, parse_deviation, sqrt_view
)


def withhold_lhs(alpha: Fraction, table: UtilityTable, player: int) -> Fraction:
    """Expected payoff of unilaterally withholding the share, exact at an exact alpha.

    Conditioned on absorption, the player alone learns with probability
    a^2/(a^2+(1-a)^2) and nobody learns otherwise.  No validation: the
    audit checks alpha and the table first.
    """
    a2 = alpha**2
    b2 = (1 - alpha) ** 2
    return (a2 * table.u_only(player) + b2 * table.u_none(player)) / (a2 + b2)


@dataclass(frozen=True)
class AlphaStar:
    """Per-player honesty thresholds, their minimum, and each player's R."""

    per_player: dict[int, float]
    global_star: float
    ratio: dict[int, float]  # the float view of each exact R


def alpha_star(table: UtilityTable) -> AlphaStar:
    """Coin bias below which no player profits from withholding.

    Solves a^2 (u_only - u_all) = (1-a)^2 (u_all - u_none) per player:
    alpha*_i = sqrt(R_i) / (1 + sqrt(R_i)) with
    R_i = (u_all - u_none) / (u_only - u_all).  The global threshold is
    the minimum over players.  This is the Nash threshold: at alpha =
    alpha* withholding only ties with honest play against honest
    opponents (the cheating condition is strict), so honesty is still a
    Nash equilibrium there.  It is not a threshold for surviving iterated
    deletion of weakly dominated strategies: at alpha = alpha* withholding
    weakly dominates honest play, being strictly better against some
    non-honest opponents, so that holds only strictly below.  The axioms
    make the gain u_only - u_all and the loss u_all - u_none positive for
    every player of a 3-player table, and both are exact.  Where the
    float view of R overflows to inf or underflows to 0, the same
    threshold is computed as sqrt(loss) / (sqrt(loss) + sqrt(gain)),
    both scaled by the larger so that each root is a float in [0, 1].
    """
    table.require(3)
    per_player, ratio = {}, {}
    for player in (1, 2, 3):
        gain = table.u_only(player) - table.u_all(player)
        loss = table.u_all(player) - table.u_none(player)
        ratio[player] = float_view(loss / gain)
        if 0 < ratio[player] < math.inf:
            root = math.sqrt(ratio[player])
            per_player[player] = root / (1 + root)
        else:
            top = max(gain, loss)
            root_loss, root_gain = sqrt_view(loss / top), sqrt_view(gain / top)
            per_player[player] = root_loss / (root_loss + root_gain)
    return AlphaStar(per_player, min(per_player.values()), ratio)


def expected_steps(alpha: float) -> float:
    """Expected total steps of an honest run: five per iteration.

    Infinite once alpha**3 underflows to 0 (alpha below about 1e-108).
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    cube = alpha**3
    return STEPS_PER_ITERATION / cube if cube else math.inf


NO_INCENTIVE = "NoIncentive"
PROFITABLE = "ProfitableDeviation"


@dataclass(frozen=True)
class AuditEntry:
    deviation: str
    deviator: int
    mc_estimate: float
    std_error: float
    closed_form: Fraction | None
    verdict: str


@dataclass(frozen=True)
class NashAuditReport:
    entries: tuple[AuditEntry, ...]

    @property
    def any_profitable(self) -> bool:
        return any(e.verdict == PROFITABLE for e in self.entries)


# Every registry deviation, in its order; biased-coin with alpha' = 1.
DEFAULT_AUDIT_DEVIATIONS = tuple(
    "biased-coin:1" if name == "biased-coin" else name for name in DEVIATIONS
)


def _reject_repeats(what: str, keys, labels) -> None:
    """Raise ValueError when two labels name the same key."""
    first = {}
    for key, label in zip(keys, labels):
        if key in first:
            alias = f" (first as {first[key]!r:.40})" if first[key] != label else ""
            raise ValueError(f"{what} {label!r:.40} is listed twice{alias}")
        first[key] = label


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

    A deviation is flagged as profitable when its exact sampled mean
    beats the honest baseline by more than three times the reported
    standard error (compared in Q), or when its
    closed form (withholding only), exact at the given alpha, strictly
    beats the baseline.  Two specs that parse to the same deviation, or
    a repeated deviator, raise ValueError before anything is sampled.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if trials < 10_000:
        raise ValueError(f"audit needs at least 10^4 trials, got {trials}")
    table.require(3)
    # Every spec and deviator is checked before anything is sampled.  A
    # repeat would sample the same profile again.
    parsed = [(spec, *parse_deviation(spec)) for spec in deviations]
    _reject_repeats("deviation", [(name, alpha_prime) for _, name, alpha_prime in parsed], deviations)
    _reject_repeats("deviator", deviators, deviators)
    for _, name, alpha_prime in parsed:
        for deviator in deviators:
            deviation_profile(name, deviator, alpha_prime)
    entries = []
    for spec, name, alpha_prime in parsed:
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
            closed = withhold_lhs(Fraction(alpha), table, deviator) if name == "withhold" else None
            profitable = (mc - baseline) / 3 > se or (closed is not None and closed > baseline)
            entries.append(
                AuditEntry(
                    deviation=spec,
                    deviator=deviator,
                    mc_estimate=float_view(mc),
                    std_error=se,
                    closed_form=closed,
                    verdict=PROFITABLE if profitable else NO_INCENTIVE,
                )
            )
    return NashAuditReport(entries=tuple(entries))
