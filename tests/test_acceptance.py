"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print.  Tolerances are fixed here, not tuned: +-2% on expected steps,
+-1% on the cheating split, 3 standard errors on Monte Carlo vs closed
forms, 1e-9 on the threshold against bisection, and exact equality
everywhere else (the per-iteration distribution included).
"""

import time
from fractions import Fraction
from itertools import product
from random import Random

import numpy as np
import pytest

from ratshare import analysis, montecarlo
from ratshare.cli import main as cli_main
from ratshare.dominance import (
    NormalFormGame,
    bounded_strategy_sends,
    build_bounded_game,
    iterate_deletion,
)
from ratshare.engine import run_mechanism
from ratshare.lifts import lift_2_of_n, lift_m_of_n
from ratshare.protocol import MessageKind, TerminalCause
from ratshare.shamir import (
    FieldElement,
    exhaustive_hiding_check,
    exhaustive_round_trip_check,
)
from ratshare.strategies import ForcedCoins, UtilityTable, canonical_table
from test_analysis import kernel_iteration_kinds
from test_engine import decode_iteration

SEED = 20240314


def _announce(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num:>2} PASS: {desc}")


# --- 1: running time -----------------------------------------------------------


def test_acceptance_01_running_time():
    def check():
        for alpha, expect in ((0.3, 185.19), (0.5, 40.0), (0.8, 9.77)):
            start = time.perf_counter()
            mean = float(montecarlo.sample_runs(alpha, 200_000, SEED).total_steps.mean())
            elapsed = time.perf_counter() - start
            closed = analysis.expected_steps(alpha)
            assert elapsed < 60, f"alpha={alpha} took {elapsed:.1f}s"
            assert abs(mean - closed) / closed <= 0.02, (alpha, mean)
            assert abs(closed - expect) < 0.01

    _announce(1, "mean total steps within 2% of 5/alpha^3 at alpha in {0.3, 0.5, 0.8}", check)


# --- 2: per-iteration distribution ------------------------------------------------


def test_acceptance_02_iteration_distribution():
    def check():
        # Run one engine iteration under every forced (c, c+) assignment and
        # sort it by how many shares were broadcast: 3 is success, 1 a lone
        # send, 0 a silent restart.  The kernel's row for the same coins
        # sends two share lines per broadcaster.
        kernel = montecarlo.iteration_kernel(None, None)
        shares = kernel.sent[:, list(MessageKind).index(MessageKind.SHARE_BROADCAST)]
        broadcasts = {}
        for assignment in product(product((0, 1), repeat=2), repeat=3):
            profile = {p: ForcedCoins([assignment[p - 1]]) for p in (1, 2, 3)}
            out = run_mechanism(5, 0.5, profile, seed=SEED, cap=1, record=True)
            broadcasts[assignment] = len(decode_iteration(out.transcripts[0]).broadcasters)
            row = 4 * assignment[0][0] + 2 * assignment[1][0] + assignment[2][0]
            assert shares[row] == 2 * broadcasts[assignment]
        assert set(broadcasts.values()) == {0, 1, 3}
        for alpha in (0.1, 0.25, 0.5, 0.8, 1):
            a = Fraction(alpha)
            weight = {0: Fraction(0), 1: Fraction(0), 3: Fraction(0)}
            for assignment, count in broadcasts.items():
                heads = sum(c for c, _ in assignment)
                weight[count] += a**heads * (1 - a) ** (3 - heads) / 8
            assert weight[3] == a**3 and weight[1] == 3 * a * (1 - a) ** 2
            assert kernel_iteration_kinds(a) == (weight[3], weight[1], weight[0])

    _announce(2, "engine iteration outcomes weigh exactly (a^3, 3a(1-a)^2, rest) at 5 alphas", check)


# --- 3: atomic outcomes ------------------------------------------------------------


def test_acceptance_03_atomic_outcomes():
    def check():
        partial_keys = [k for k in ("001", "010", "011", "100", "101", "110")]
        for alpha in (0.3, 0.5, 0.8):
            stats = montecarlo.sample_runs(alpha, 100_000, SEED)
            hist = stats.info_histogram()
            assert all(hist[k] == 0 for k in partial_keys)
            assert hist["111"] == 100_000
        engine_stats = montecarlo.sample_runs_reference(0.5, 2_000, SEED)
        hist = engine_stats.info_histogram()
        assert all(hist[k] == 0 for k in partial_keys)
        # Exhaustive: every coin assignment either absorbs with everyone
        # learning or restarts with nobody holding anything useful.
        for assignment in (tuple(zip(cs, cps))
                           for cs in product((0, 1), repeat=3)
                           for cps in product((0, 1), repeat=3)):
            profile = {p: ForcedCoins([assignment[p - 1]] * 2) for p in (1, 2, 3)}
            out = run_mechanism(5, 0.5, profile, seed=SEED, cap=2, record=False)
            assert out.info in ((0, 0, 0), (1, 1, 1))

    _announce(3, "no honest run ends with a partial info vector (statistical + exhaustive)", check)


# --- 4: cheating split ----------------------------------------------------------------


def test_acceptance_04_withhold_split():
    def check():
        stats = montecarlo.sample_runs(0.8, 100_000, SEED, deviation="withhold", deviator=1)
        absorbed = int(np.count_nonzero(
            stats.causes != montecarlo.CAUSE_CODE[TerminalCause.ITERATION_CAP_HIT]
        ))
        only = stats.info_histogram()["100"]
        target = 0.8**2 / (0.8**2 + 0.2**2)
        assert abs(target - 0.9412) < 1e-4
        assert absorbed == 100_000
        assert abs(only / absorbed - target) <= 0.01

    _announce(4, "only-the-withholder-learns fraction within 1% of 0.9412 at alpha=0.8", check)


# --- 5: Nash threshold ------------------------------------------------------------------


def test_acceptance_05_nash_audit():
    def check():
        table = canonical_table()
        below = analysis.nash_audit(0.25, table, trials=100_000, seed=SEED)
        assert all(e.verdict == analysis.NO_INCENTIVE for e in below.entries)
        above = analysis.nash_audit(0.8, table, trials=100_000, seed=SEED)
        withhold = [e for e in above.entries if e.deviation == "withhold"]
        assert withhold and all(e.verdict == analysis.PROFITABLE for e in withhold)
        for entry in withhold:
            assert abs(entry.closed_form - 1.8824) <= 1e-4
            assert abs(entry.mc_estimate - entry.closed_form) <= 3 * entry.std_error

    _announce(5, "no incentive at alpha=0.25; withholding profitable (1.8824) at alpha=0.8", check)


# --- 6: the threshold ---------------------------------------------------------------------


def _bisect_threshold(u_only, u_all, u_none, tol=1e-12):
    def lhs(a):
        a2, b2 = a * a, (1 - a) * (1 - a)
        return (a2 * u_only + b2 * u_none) / (a2 + b2)

    lo, hi = 1e-9, 1 - 1e-9
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if lhs(mid) > u_all:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_acceptance_06_alpha_star():
    def check():
        assert analysis.alpha_star(canonical_table()).global_star == 0.5
        rng = Random(SEED)
        for _ in range(50):
            scalars = []
            for _ in range(3):
                u_none = rng.uniform(-3, 0)
                u_all = u_none + rng.uniform(0.2, 3)
                u_only = u_all + rng.uniform(0.2, 3)
                scalars.append((u_only, u_all, u_none))
            base = [UtilityTable.from_scalars(*s, n_players=3) for s in scalars]
            table = UtilityTable(3, tuple(base[i].payoffs[i] for i in range(3)))
            stars = analysis.alpha_star(table)
            for player in (1, 2, 3):
                assert abs(stars.per_player[player] - _bisect_threshold(*scalars[player - 1])) <= 1e-9

    _announce(6, "closed-form threshold matches bisection to 1e-9; canonical table gives 0.5", check)


# --- 7: sharing properties --------------------------------------------------------------------


def test_acceptance_07_shamir():
    def check():
        assert exhaustive_round_trip_check(p=7, n=3) == {1: 0, 2: 0, 3: 0}
        assert exhaustive_hiding_check(p=7, m=2, n=3) == {1: True}
        assert exhaustive_hiding_check(p=7, m=3, n=3) == {1: True, 2: True}

    _announce(7, "GF(7) reconstruction round-trip exact; sub-threshold posterior exactly uniform", check)


# --- 8: bounded impossibility ------------------------------------------------------------------


def _brute_iterated_deletion_2x2(u1, u2):
    """Straight-line reference for 2x2 games, independent of the engine."""
    strategies = [{0, 1}, {0, 1}]

    def payoff(profile, player):
        return (u1 if player == 1 else u2)[profile]

    while True:
        doms = []
        for player in (1, 2):
            mine = sorted(strategies[player - 1])
            others = sorted(strategies[2 - player])
            dominated = set()
            for sigma in mine:
                for tau in mine:
                    if tau == sigma:
                        continue
                    le = all(
                        payoff(_mk(player, tau, o), player) >= payoff(_mk(player, sigma, o), player)
                        for o in others
                    )
                    lt = any(
                        payoff(_mk(player, tau, o), player) > payoff(_mk(player, sigma, o), player)
                        for o in others
                    )
                    if le and lt:
                        dominated.add(sigma)
                        break
            doms.append(dominated)
        if not doms[0] and not doms[1]:
            return frozenset(strategies[0]), frozenset(strategies[1])
        strategies[0] -= doms[0]
        strategies[1] -= doms[1]


def _mk(player, own, other):
    return (own, other) if player == 1 else (other, own)


def test_acceptance_08_desk_scale_impossibility():
    def check():
        # Every axiom-consistent two-player table, one and two rounds: the
        # surviving strategies never send, so nobody ever learns.
        grid = [
            (u_only, 1.0, u_none)
            for u_only in (1.5, 2.0, 3.0, 4.0, 5.0)
            for u_none in (0.0, -0.5, -1.0, -2.0)
        ]
        assert len(grid) == 20
        for u_only, u_all, u_none in grid:
            table = UtilityTable.from_scalars(u_only, u_all, u_none, n_players=2)
            for rounds in (1, 2):
                game = build_bounded_game(rounds, table)
                trace = iterate_deletion(game)
                assert trace.fixpoint
                for player in (1, 2):
                    for idx in trace.surviving[player - 1]:
                        label = game.label(player, idx)
                        if rounds == 1:
                            assert label == "withhold"
                        else:
                            assert not bounded_strategy_sends(label)
                for profile in product(trace.surviving[0], trace.surviving[1]):
                    assert game.info_map[profile] == (0, 0)
        # Engine vs brute force on every 2x2 game with payoffs in {0,1,2}.
        cells = list(product(range(3), repeat=4))
        profiles = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for t1 in cells:
            u1 = dict(zip(profiles, (Fraction(v) for v in t1)))
            for t2 in cells:
                u2 = dict(zip(profiles, (Fraction(v) for v in t2)))
                game = NormalFormGame(
                    strategies=(("a", "b"), ("a", "b")),
                    payoffs={p: (u1[p], u2[p]) for p in profiles},
                )
                trace = iterate_deletion(game)
                assert (trace.surviving[0], trace.surviving[1]) == _brute_iterated_deletion_2x2(u1, u2)

    _announce(8, "no sender survives deletion (20 tables, 1-2 rounds); engine == oracle on 6561 games", check)


# --- 9: lifts ----------------------------------------------------------------------------------


def test_acceptance_09_lifts():
    def check():
        out = lift_m_of_n(FieldElement(55, 101), 3, 6, alpha=0.6, seed=SEED)
        assert out.cause == TerminalCause.ALL_LEARNED and out.info == (1,) * 6
        out = lift_2_of_n(FieldElement(42, 101), 3, alpha=0.6, seed=SEED)
        assert out.cause == TerminalCause.ALL_LEARNED and out.info == (1, 1, 1)
        with pytest.raises(ValueError, match="n >= 3"):
            lift_2_of_n(42, 2, alpha=0.5, seed=SEED)

    _announce(9, "3-of-6 and 2-of-3 lifts end with everyone learning; 2-of-2 is rejected", check)


# --- 10: determinism -----------------------------------------------------------------------------


def test_acceptance_10_determinism(tmp_path, capsys):
    def check():
        commands = [
            ["simulate", "--alpha", "0.5", "--trials", "20000", "--seed", "42"],
            ["simulate", "--alpha", "0.8", "--trials", "20000", "--seed", "42",
             "--deviant", "1:withhold"],
            ["alpha-star", "--u-only", "2", "--u-all", "1", "--u-none", "0"],
            ["audit", "--alpha", "0.25", "--trials", "10000", "--seed", "7"],
            ["dominance", "--builtin", "bounded-r2"],
            ["hiding"],
        ]
        for i, argv in enumerate(commands):
            paths = [tmp_path / f"{i}-{r}.txt" for r in (0, 1)]
            for path in paths:
                assert cli_main(["--out", str(path), *argv]) == 0
            texts = [p.read_text().partition("[timing]")[0] for p in paths]
            assert texts[0] == texts[1], argv

    _announce(10, "repeated invocations produce byte-identical result sections", check)
