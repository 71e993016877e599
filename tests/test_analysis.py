"""Closed forms, the honesty threshold, and the incentive audit."""

import math
from fractions import Fraction
from itertools import product
from random import Random

import numpy as np
import pytest

from ratshare import analysis, montecarlo
from ratshare.protocol import MessageKind, TerminalCause
from ratshare.strategies import UtilityTable, canonical_table


def enumerate_iteration_kinds(alpha):
    """Independent oracle: walk all 8 coin outcomes with their probabilities."""
    p_success = p_lone = p_silent = 0.0
    for coins in product((0, 1), repeat=3):
        prob = 1.0
        for c in coins:
            prob *= alpha if c else (1 - alpha)
        if sum(coins) == 3:
            p_success += prob
        elif sum(coins) == 1:
            p_lone += prob
        else:
            p_silent += prob
    return p_success, p_lone, p_silent


def kernel_iteration_kinds(alpha):
    """The honest kernel's weights of success, lone-send restart and silent
    restart, exact Fractions for a Fraction alpha.  A lone send is a restarting
    pattern whose one broadcaster sends its share to the other two."""
    kernel = montecarlo.iteration_kernel(None, None)
    weight = montecarlo.pattern_weights(alpha, {})
    shares = kernel.sent[:, list(MessageKind).index(MessageKind.SHARE_BROADCAST)]
    assert set(shares[kernel.restart]) == {0, 2}
    return (weight[~kernel.restart].sum(), weight[kernel.restart & (shares == 2)].sum(),
            weight[kernel.restart & (shares == 0)].sum())


def table_from_player_scalars(scalars):
    """Asymmetric table: one (u_only, u_all, u_none) triple per player."""
    base = [UtilityTable.from_scalars(*s, n_players=len(scalars)) for s in scalars]
    return UtilityTable(
        n_players=len(scalars),
        payoffs=tuple(base[i].payoffs[i] for i in range(len(scalars))),
    )


def random_valid_scalars(rng):
    u_none = rng.uniform(-3, 0)
    u_all = u_none + rng.uniform(0.2, 3)
    u_only = u_all + rng.uniform(0.2, 3)
    return u_only, u_all, u_none


def bisect_threshold(u_only, u_all, u_none, tol=1e-12):
    """Oracle: bisection on the withholding inequality written out directly."""

    def lhs(a):
        a2, b2 = a * a, (1 - a) * (1 - a)
        return (a2 * u_only + b2 * u_none) / (a2 + b2)

    lo, hi = 1e-9, 1 - 1e-9
    assert lhs(lo) < u_all < lhs(hi)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if lhs(mid) > u_all:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


# --- iteration distribution ---------------------------------------------------


def test_distribution_at_half():
    assert kernel_iteration_kinds(0.5) == (0.125, 0.375, 0.5)


def test_distribution_certainty():
    assert kernel_iteration_kinds(1.0) == (1.0, 0.0, 0.0)


def test_distribution_matches_enumeration_oracle():
    rng = Random(5)
    for _ in range(100):
        alpha = rng.uniform(0.01, 0.99)
        success, lone, silent = kernel_iteration_kinds(alpha)
        s, l, r = enumerate_iteration_kinds(alpha)
        assert math.isclose(success, s, abs_tol=1e-12)
        assert math.isclose(lone, l, abs_tol=1e-12)
        assert math.isclose(silent, r, abs_tol=1e-12)
        assert math.isclose(success + lone + silent, 1.0)


# --- expected utilities ---------------------------------------------------------


def test_withhold_value_at_half():
    assert analysis.withhold_lhs(0.5, canonical_table(), 1) == pytest.approx(1.0)


def test_withhold_value_at_eight_tenths():
    value = analysis.withhold_lhs(0.8, canonical_table(), 1)
    assert value == pytest.approx(1.8823529411764706)


def test_withhold_limit_small_alpha():
    value = analysis.withhold_lhs(1e-6, canonical_table(), 1)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_withhold_matches_simulation():
    table = canonical_table()
    for alpha in (0.3, 0.6):
        stats = montecarlo.sample_runs(alpha, 30_000, 7, deviation="withhold", deviator=1)
        mc, se = stats.mean_utility(table, 1)
        closed = analysis.withhold_lhs(alpha, table, 1)
        assert abs(mc - closed) <= 3 * se


def test_honest_simulation_never_partial():
    stats = montecarlo.sample_runs(0.3, 10_000, 11)
    table = canonical_table()
    mc, se = stats.mean_utility(table, 1)
    assert mc == 1.0 and se == 0.0


def test_invalid_table_rejected():
    bad = UtilityTable.from_scalars(1.0, 2.0, 0.0)  # u_all above u_only
    with pytest.raises(ValueError):
        analysis.nash_audit(0.5, bad, trials=10_000, seed=1)
    with pytest.raises(ValueError):
        analysis.alpha_star(bad)


# --- the threshold ---------------------------------------------------------------


def test_alpha_star_canonical():
    assert analysis.alpha_star(canonical_table()).global_star == 0.5


def test_alpha_star_one_third():
    table = UtilityTable.from_scalars(5.0, 1.0, 0.0)
    assert analysis.alpha_star(table).global_star == pytest.approx(1 / 3, abs=1e-12)


def test_alpha_star_matches_bisection_oracle():
    rng = Random(17)
    for _ in range(50):
        scalars = [random_valid_scalars(rng) for _ in range(3)]
        table = table_from_player_scalars(scalars)
        result = analysis.alpha_star(table)
        for player in (1, 2, 3):
            oracle = bisect_threshold(*scalars[player - 1])
            assert abs(result.per_player[player] - oracle) <= 1e-9
        assert result.global_star == min(result.per_player.values())


def test_inequality_flips_exactly_at_the_threshold():
    rng = Random(19)
    for _ in range(50):
        scalars = [random_valid_scalars(rng) for _ in range(3)]
        table = table_from_player_scalars(scalars)
        result = analysis.alpha_star(table)
        for player in (1, 2, 3):
            star = result.per_player[player]
            if star - 0.01 > 0:
                assert not analysis.withhold_lhs(star - 0.01, table, player) > table.u_all(player)
            if star + 0.01 < 1:
                assert analysis.withhold_lhs(star + 0.01, table, player) > table.u_all(player)


def test_withhold_value_strictly_increasing_in_alpha():
    table = canonical_table()
    grid = [0.1 * k for k in range(1, 10)]
    values = [analysis.withhold_lhs(a, table, 1) for a in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_asymmetric_global_star_is_the_minimum():
    table = table_from_player_scalars([(2, 1, 0), (5, 1, 0), (3, 1, 0)])
    result = analysis.alpha_star(table)
    assert result.global_star == result.per_player[2]
    assert result.per_player[2] == pytest.approx(1 / 3, abs=1e-12)


# --- running time -----------------------------------------------------------------


def test_expected_steps_closed_form():
    assert analysis.expected_steps(0.5) == 40.0
    assert analysis.expected_steps(1.0) == 5.0


def test_running_time_verifier():
    steps = montecarlo.sample_runs(0.5, 30_000, 23).total_steps
    closed = analysis.expected_steps(0.5)
    assert closed == 40.0
    assert abs(steps.mean() - closed) / closed < 0.02
    assert steps.std(ddof=1) / math.sqrt(len(steps)) > 0


# --- the audit ---------------------------------------------------------------------


def test_audit_below_threshold_finds_no_incentive():
    report = analysis.nash_audit(0.25, canonical_table(), trials=10_000, seed=29)
    assert len(report.entries) == 15
    assert not report.any_profitable
    assert all(e.verdict == analysis.NO_INCENTIVE for e in report.entries)


def test_audit_at_the_threshold_finds_no_incentive():
    # At alpha* = 0.5 withholding ties honesty exactly: its closed form is
    # u_all = 1, which is not strictly better.
    report = analysis.nash_audit(0.5, canonical_table(), deviations=("withhold",),
                                 trials=10_000, seed=0)
    assert [e.closed_form for e in report.entries] == [1.0, 1.0, 1.0]
    assert [e.verdict for e in report.entries] == [analysis.NO_INCENTIVE] * 3


# alpha* of 0.7/0.2/0.1 is (sqrt(5) - 1) / 4 = 0.30901699437494742410..., and
# the two floats beside it are about 3e-17 away.  alpha* of 2/0.2/0 is 1/4
# exactly, where the closed form ties u_all = 1/5; computed in floats, it
# beats 1/5 there.
@pytest.mark.parametrize(
    "alpha, scalars, verdict",
    [(0.3090169943749474, ("0.7", "0.2", "0.1"), analysis.NO_INCENTIVE),
     (0.30901699437494745, ("0.7", "0.2", "0.1"), analysis.PROFITABLE),
     (0.5, (2, 1, 0), analysis.NO_INCENTIVE),
     (math.nextafter(0.5, 1), (2, 1, 0), analysis.PROFITABLE),
     (0.25, ("2", "0.2", "0"), analysis.NO_INCENTIVE),
     (math.nextafter(0.25, 1), ("2", "0.2", "0"), analysis.PROFITABLE)],
    ids=["below-root", "above-root", "canonical-tie", "canonical-ulp-above", "rational-tie",
         "rational-ulp-above"],
)
def test_withhold_verdict_at_the_threshold_is_exact(alpha, scalars, verdict, monkeypatch):
    # The sampled estimate alone never flags: only the closed form decides.
    class Stats:
        def mean_utility(self, table, deviator):
            return float(table.u_all(deviator)), 1.0

    monkeypatch.setattr(montecarlo, "sample_runs", lambda *args, **kw: Stats())
    # Oracle: the paper's condition, written out in exact rationals.
    a = Fraction(alpha)
    u_only, u_all, u_none = map(Fraction, scalars)
    assert (a**2 * (u_only - u_all) > (1 - a) ** 2 * (u_all - u_none)) == (
        verdict == analysis.PROFITABLE
    )
    table = UtilityTable.from_scalars(*scalars)
    report = analysis.nash_audit(alpha, table, deviations=("withhold",), trials=10_000, seed=0,
                                 deviators=(1,))
    assert [e.verdict for e in report.entries] == [verdict]


def test_audit_flags_a_sampled_gain_past_three_standard_errors(monkeypatch):
    # Neither deviation has a closed form, so the sampled estimate alone
    # decides: 4 standard errors above the baseline is profitable, 2 is not.
    se = 0.01
    above = {"garble-step2": 4, "always-silent": 2}

    class Stats:
        def __init__(self, deviation):
            self.deviation = deviation

        def mean_utility(self, table, deviator):
            return table.u_all(deviator) + above[self.deviation] * se, se

    monkeypatch.setattr(montecarlo, "sample_runs",
                        lambda alpha, trials, seed, deviation, **kw: Stats(deviation))
    report = analysis.nash_audit(0.25, canonical_table(), deviations=tuple(above),
                                 trials=10_000, seed=0, deviators=(1,))
    assert [(e.deviation, e.verdict) for e in report.entries] == [
        ("garble-step2", analysis.PROFITABLE), ("always-silent", analysis.NO_INCENTIVE)
    ]


def test_audit_verdict_is_decided_in_exact_rationals(monkeypatch):
    # Every biased-coin:1 trial ends with everyone learning and pays exactly
    # u_all = 7/10: no gain, and no spread (a float mean of the 10,000 trials
    # rounded above 0.7, with a standard error at rounding level).
    table = UtilityTable.from_scalars(2, "0.7", 0)
    report = analysis.nash_audit(0.25, table, deviations=("biased-coin:1",), trials=10_000,
                                 seed=1)
    assert [(e.mc_estimate, e.std_error, e.verdict) for e in report.entries] == [
        (0.7, 0.0, analysis.NO_INCENTIVE)
    ] * 3
    # A deviator that learns alone in every trial gains u_only - u_all =
    # 1e-20, which the float views of both payoffs (1.0) cannot tell apart.
    alone = montecarlo.TrialStats(
        iterations=np.ones(10_000, dtype=np.int64),
        outcomes=np.full(10_000, montecarlo.OUTCOMES.index((TerminalCause.CHEAT_STOP, (1, 0, 0))),
                         dtype=np.uint8),
    )
    monkeypatch.setattr(montecarlo, "sample_runs", lambda *args, **kw: alone)
    table = UtilityTable.from_scalars("1.00000000000000000001", 1, 0)
    report = analysis.nash_audit(0.25, table, deviations=("always-silent",), trials=10_000,
                                 seed=1, deviators=(1,))
    assert [(e.mc_estimate, e.std_error, e.verdict) for e in report.entries] == [
        (1.0, 0.0, analysis.PROFITABLE)
    ]


def test_audit_above_threshold_flags_withholding_only():
    report = analysis.nash_audit(0.8, canonical_table(), trials=10_000, seed=31)
    flagged = {(e.deviation, e.deviator) for e in report.entries if e.verdict == analysis.PROFITABLE}
    assert flagged == {("withhold", d) for d in (1, 2, 3)}
    withhold = [e for e in report.entries if e.deviation == "withhold"]
    for entry in withhold:
        assert entry.closed_form == pytest.approx(1.8823529411764706)
        assert abs(entry.mc_estimate - entry.closed_form) <= 3 * entry.std_error


def test_biased_coin_matches_honest_baseline():
    report = analysis.nash_audit(
        0.4, canonical_table(), deviations=("biased-coin:0.9", "biased-coin:0.2"),
        trials=10_000, seed=37,
    )
    for entry in report.entries:
        assert entry.verdict == analysis.NO_INCENTIVE
        baseline = canonical_table().u_all(entry.deviator)
        assert abs(entry.mc_estimate - baseline) <= max(3 * entry.std_error, 1e-12)


def test_audit_validation():
    with pytest.raises(ValueError):
        analysis.nash_audit(0.5, canonical_table(), trials=100, seed=1)
    with pytest.raises(ValueError):
        analysis.nash_audit(0.5, canonical_table(), deviations=("nonsense",), trials=10_000, seed=1)
    with pytest.raises(ValueError):
        analysis.nash_audit(1.0, canonical_table(), trials=10_000, seed=1)


def test_audit_reproducible():
    a = analysis.nash_audit(0.3, canonical_table(), trials=10_000, seed=41)
    b = analysis.nash_audit(0.3, canonical_table(), trials=10_000, seed=41)
    assert a.entries == b.entries


def test_grid_coherence_between_closed_forms_and_simulation():
    table = canonical_table()
    for alpha in [0.1 * k for k in range(1, 10)]:
        honest = montecarlo.sample_runs(alpha, 20_000, 43)
        mean_u, se_u = honest.mean_utility(table, 1)
        assert abs(mean_u - table.u_all(1)) <= max(3 * se_u, 1e-12)
        steps = honest.total_steps
        se_steps = steps.std(ddof=1) / math.sqrt(len(steps))
        assert abs(steps.mean() - analysis.expected_steps(alpha)) <= 3 * se_steps
        withhold = montecarlo.sample_runs(alpha, 20_000, 47, deviation="withhold", deviator=1)
        mc, se = withhold.mean_utility(table, 1)
        assert abs(mc - analysis.withhold_lhs(alpha, table, 1)) <= 3 * se
