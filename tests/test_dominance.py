"""Weak dominance, delete-all iteration, and the tiny exchange games."""

import hashlib
import json
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ratshare import dominance
from ratshare.dominance import (
    SEND,
    WITHHOLD,
    NormalFormGame,
    bounded_strategy_label,
    bounded_strategy_sends,
    build_bounded_game,
    build_oneshot_sharing_game,
    check_practical,
    iterate_deletion,
    prisoners_dilemma,
    weakly_dominated,
)
from ratshare.strategies import UtilityTable, canonical_table


def matching_pennies():
    """Reference game with no weakly dominated strategies."""
    payoffs = {}
    for a, b in product(range(2), repeat=2):
        win = 1 if a == b else -1
        payoffs[(a, b)] = (Fraction(win), Fraction(-win))
    return NormalFormGame(
        strategies=(("heads", "tails"), ("heads", "tails")),
        payoffs=payoffs,
        name="matching-pennies",
    )


def pair_table():
    return UtilityTable.from_scalars(2, 1, 0, n_players=2)


def full_restriction(game):
    return [set(range(len(s))) for s in game.strategies]


def random_game(rng, shape=(3, 3, 3), lo=0, hi=5, pool=None):
    """Payoffs are integers in [lo, hi], or drawn from `pool` when given."""
    strategies = tuple(tuple(f"s{i}{k}" for k in range(n)) for i, n in enumerate(shape))
    draw = (lambda: rng.choice(pool)) if pool else (lambda: Fraction(rng.randint(lo, hi)))
    payoffs = {
        profile: tuple(draw() for _ in shape)
        for profile in product(*(range(n) for n in shape))
    }
    return NormalFormGame(strategies=strategies, payoffs=payoffs)


def brute_force_dominated(game, player, restriction):
    """Direct quantifier translation, kept separate from the engine.

    Maps each dominated strategy to its lowest-index dominator.
    """
    out = {}
    others = [sorted(restriction[j]) for j in range(game.n_players) if j != player - 1]
    for sigma in sorted(restriction[player - 1]):
        for tau in sorted(restriction[player - 1]):
            if tau == sigma:
                continue
            always_le = True
            somewhere_lt = False
            for opp in product(*others):
                profile = list(opp)
                profile.insert(player - 1, sigma)
                u_sigma = game.payoff(tuple(profile), player)
                profile[player - 1] = tau
                u_tau = game.payoff(tuple(profile), player)
                if u_sigma > u_tau:
                    always_le = False
                    break
                if u_sigma < u_tau:
                    somewhere_lt = True
            if always_le and somewhere_lt:
                out[sigma] = tau
                break
    return out


# --- dominance check ------------------------------------------------------------


def test_send_is_dominated_in_the_one_shot_game():
    game = build_oneshot_sharing_game(pair_table())
    send = game.index(1, SEND)
    withhold = game.index(1, WITHHOLD)
    for player in (1, 2):
        assert weakly_dominated(game, player, full_restriction(game)) == {send: withhold}


def test_matching_pennies_has_no_dominated_strategies():
    game = matching_pennies()
    assert weakly_dominated(game, 1, full_restriction(game)) == {}
    assert weakly_dominated(game, 2, full_restriction(game)) == {}


@pytest.mark.parametrize(
    "restriction",
    [[set(), {0, 1}], [{-1}, {0, 1}], [{0, 2}, {0, 1}], [{0, 1}, {-1}], [{0, 1}]],
    ids=["empty", "negative", "past-the-end", "opponent-negative", "one-set-short"],
)
def test_empty_restriction_rejected(restriction):
    game = matching_pennies()
    with pytest.raises(ValueError):
        weakly_dominated(game, 1, restriction)


def test_engine_matches_brute_force_on_random_games():
    rng = Random(99)
    for _ in range(100):
        game = random_game(rng)
        restriction = full_restriction(game)
        for player in (1, 2, 3):
            assert weakly_dominated(game, player, restriction) == brute_force_dominated(
                game, player, restriction
            )


def test_engine_matches_brute_force_under_restriction():
    rng = Random(101)
    for _ in range(40):
        game = random_game(rng)
        restriction = [
            set(rng.sample(range(len(s)), rng.randint(1, len(s))))
            for s in game.strategies
        ]
        for player in (1, 2, 3):
            assert weakly_dominated(game, player, restriction) == brute_force_dominated(
                game, player, restriction
            )


# --- iterated deletion -------------------------------------------------------------


def test_one_shot_collapses_in_one_round():
    game = build_oneshot_sharing_game(pair_table())
    trace = iterate_deletion(game)
    assert trace.fixpoint
    assert trace.deletion_rounds == 1
    w = game.index(1, WITHHOLD)
    assert trace.surviving == (frozenset({w}), frozenset({w}))


def test_no_dominance_fixpoint_immediately():
    trace = iterate_deletion(matching_pennies())
    assert trace.fixpoint
    assert len(trace.rounds) == 1
    assert trace.deletion_rounds == 0
    assert trace.surviving == (frozenset({0, 1}), frozenset({0, 1}))


def test_traces_are_monotone_and_witnessed():
    rng = Random(103)
    for _ in range(30):
        game = random_game(rng, shape=(3, 3))
        trace = iterate_deletion(game)
        previous = [set(range(len(s))) for s in game.strategies]
        for rnd in trace.rounds:
            for player in (1, 2):
                surviving = set(rnd.surviving[player - 1])
                assert surviving <= previous[player - 1]
                # Every recorded deletion replays against the pre-round sets.
                for sigma, tau in rnd.deleted.get(player, {}).items():
                    assert sigma in previous[player - 1]
                    assert tau in previous[player - 1]
                    confirmed = weakly_dominated(game, player, previous)
                    assert sigma in confirmed
            previous = [set(s) for s in rnd.surviving]
        assert trace.fixpoint


# Exact values with ties and float-derived neighbours: Fraction(0.1) is just
# above 1/10, Fraction(1e-300) just above 0, Fraction(1/3) just below 1/3.
PAYOFF_POOL = (
    Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 10), Fraction(0.1),
    Fraction(1e-300), Fraction(-1e-300), Fraction(1, 3), Fraction(1 / 3),
)


@pytest.mark.parametrize("block", [None, 30], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("n_players", [2, 3])
def test_witness_is_the_lowest_index_dominator(n_players, block, monkeypatch):
    if block:
        # Blocks of one to a few rows, so the blocked comparison is covered.
        monkeypatch.setattr(dominance, "_BLOCK_ELEMENTS", block)
    rng = Random(107 + n_players)
    for _ in range(150):
        shape = tuple(rng.randint(1, 5) for _ in range(n_players))
        pool = rng.sample(PAYOFF_POOL, rng.randint(2, 4))
        game = random_game(rng, shape, pool=pool)
        restriction = [set(rng.sample(range(n), rng.randint(1, n))) for n in shape]
        for player in range(1, n_players + 1):
            expected = brute_force_dominated(game, player, restriction)
            # Witnesses and increasing-strategy order both.
            assert list(weakly_dominated(game, player, restriction).items()) == list(
                expected.items()
            )


@st.composite
def small_games(draw):
    shape = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    # A few values per game, so ties and dominance are common.
    pool = draw(st.lists(st.sampled_from(PAYOFF_POOL), min_size=1, max_size=4, unique=True))
    value = st.sampled_from(pool)
    payoffs = {
        profile: tuple(draw(value) for _ in shape)
        for profile in product(*(range(n) for n in shape))
    }
    strategies = tuple(tuple(f"s{i}{k}" for k in range(n)) for i, n in enumerate(shape))
    return NormalFormGame(strategies=strategies, payoffs=payoffs)


def oracle_deletion(game):
    """Delete-all deletion on the exact payoffs, as (deleted, surviving) per round.

    Each deleted strategy maps to its lowest-index dominator.  Stops after
    the first round that deletes nothing.
    """
    restriction = [set(range(len(s))) for s in game.strategies]
    rounds = []
    while True:
        deleted = {}
        for player in range(1, game.n_players + 1):
            others = [sorted(restriction[j]) for j in range(game.n_players) if j != player - 1]
            opps = list(product(*others))

            def u(own, opp):
                profile = list(opp)
                profile.insert(player - 1, own)
                return game.payoffs[tuple(profile)][player - 1]

            deleted[player] = {}
            for sigma in sorted(restriction[player - 1]):
                for tau in sorted(restriction[player - 1]):
                    if all(u(tau, o) >= u(sigma, o) for o in opps) and any(
                        u(tau, o) > u(sigma, o) for o in opps
                    ):
                        deleted[player][sigma] = tau
                        break
            assert len(deleted[player]) < len(restriction[player - 1])
        for player, gone in deleted.items():
            restriction[player - 1] -= set(gone)
        rounds.append((deleted, tuple(frozenset(r) for r in restriction)))
        if not any(deleted.values()):
            return rounds


@settings(max_examples=300, deadline=None)
@given(game=small_games())
def test_deletion_trace_matches_exact_oracle(game):
    expected = oracle_deletion(game)
    trace = iterate_deletion(game)
    assert [(rnd.deleted, rnd.surviving) for rnd in trace.rounds] == expected
    assert trace.surviving == expected[-1][1]
    assert trace.fixpoint and trace.would_empty is None
    assert trace.deletion_rounds == sum(1 for deleted, _ in expected if any(deleted.values()))


# --- share-exchange game builders ------------------------------------------------------


def test_one_shot_payoff_matrix():
    game = build_oneshot_sharing_game(pair_table())
    s, w = game.index(1, SEND), game.index(1, WITHHOLD)
    assert game.payoffs[(s, s)] == (1, 1)
    assert game.payoffs[(s, w)] == (-1, 2)
    assert game.payoffs[(w, s)] == (2, -1)
    assert game.payoffs[(w, w)] == (0, 0)
    with pytest.raises(ValueError, match="^player 2 has no strategy 'sned'$"):
        game.index(2, "sned")


def test_one_shot_requires_two_player_table():
    with pytest.raises(ValueError):
        build_oneshot_sharing_game(canonical_table())


def test_bounded_one_round_reduces_to_one_shot():
    game = build_bounded_game(1, pair_table())
    assert game.strategies == ((SEND, WITHHOLD), (SEND, WITHHOLD))


def test_bounded_two_rounds_strategy_count():
    game = build_bounded_game(2, pair_table())
    assert len(game.strategies[0]) == 16
    assert len(game.strategies[1]) == 16
    assert len(game.payoffs) == 256
    # Labels, exact payoffs and info map, recorded while each cell
    # converted its own payoffs.
    golden = {
        (2, 1, 0): "8276eb0bd250f222edcc46059fed10042117e6b8dbcbf5634859bc80be473328",
        (0.7, 0.3, 0.1): "37a8c320d42342649d22780989aae0b1052abb633265817664f179e265ae352e",
    }
    for scalars, digest in golden.items():
        game = build_bounded_game(2, UtilityTable.from_scalars(*scalars, n_players=2))
        blob = json.dumps([game.to_doc(), sorted(game.info_map.items())])
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_bounded_builder_caps_at_two_rounds():
    with pytest.raises(ValueError):
        build_bounded_game(3, pair_table())


def test_bounded_two_rounds_only_never_senders_survive():
    game = build_bounded_game(2, pair_table())
    trace = iterate_deletion(game)
    assert trace.fixpoint
    for player in (1, 2):
        for idx in trace.surviving[player - 1]:
            assert not bounded_strategy_sends(game.label(player, idx))
    for p1 in trace.surviving[0]:
        for p2 in trace.surviving[1]:
            assert game.info_map[(p1, p2)] == (0, 0)


def test_bounded_outcomes_track_cumulative_sends():
    game = build_bounded_game(2, pair_table())
    always_send = game.index(1, bounded_strategy_label(SEND, (SEND, SEND, SEND)))
    never = game.index(1, bounded_strategy_label(WITHHOLD, (WITHHOLD, WITHHOLD, WITHHOLD)))
    sneaky = game.index(1, bounded_strategy_label(WITHHOLD, (WITHHOLD, SEND, WITHHOLD)))
    assert game.info_map[(always_send, always_send)] == (1, 1)
    assert game.info_map[(never, always_send)] == (1, 0)
    # Round 2 reaction: withholder sends after seeing the other send.
    assert game.info_map[(sneaky, always_send)] == (1, 1)
    assert game.info_map[(sneaky, never)] == (0, 0)


def test_label_sends_predicate():
    assert bounded_strategy_sends("S|WWW")
    assert bounded_strategy_sends("W|WSW")  # sends after seeing the other send
    assert bounded_strategy_sends("W|WWS")
    assert not bounded_strategy_sends("W|SWW")  # that history needs a1 = send


# --- practicality --------------------------------------------------------------------


def test_mutual_withholding_is_practical_but_fruitless():
    game = build_oneshot_sharing_game(pair_table())
    w = game.index(1, WITHHOLD)
    verdict = check_practical(game, (w, w), iterate_deletion(game))
    assert verdict.is_nash and verdict.survives and verdict.practical
    assert game.info_map[(w, w)] == (0, 0)


def test_mutual_sending_is_not_practical():
    game = build_oneshot_sharing_game(pair_table())
    s = game.index(1, SEND)
    trace = iterate_deletion(game)
    verdict = check_practical(game, (s, s), trace)
    assert not verdict.is_nash
    assert verdict.nash_witness == (1, game.index(1, WITHHOLD))
    assert not verdict.survives
    assert trace.rounds[0].deleted[1][s] == game.index(1, WITHHOLD)


def test_prisoners_dilemma_defection_is_practical():
    game = prisoners_dilemma()
    d = game.index(1, "defect")
    verdict = check_practical(game, (d, d), iterate_deletion(game))
    assert verdict.practical


def test_survival_needs_every_players_strategy_to_survive():
    # Player 1's defect survives deletion, player 2's cooperate does not.
    game = prisoners_dilemma()
    d, c = game.index(1, "defect"), game.index(2, "cooperate")
    trace = iterate_deletion(game)
    assert trace.survives(1, d) and not trace.survives(2, c)
    assert not check_practical(game, (d, c), trace).survives


def test_check_practical_validates_profile():
    game = matching_pennies()
    with pytest.raises(ValueError):
        check_practical(game, (0, 7), iterate_deletion(game))


# --- documents -------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    game = build_oneshot_sharing_game(pair_table())
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game.to_doc()))
    again = NormalFormGame.load(path)
    assert again.strategies == game.strategies
    assert again.payoffs == game.payoffs


def test_from_doc_parses_every_payoff_exactly():
    raw = [[1, 1.0], ["1", 0.1], ["1/10", "0.1"], [0.1, 1e-300]]
    doc = {
        "strategies": [["a", "b"], ["x", "y"]],
        "payoffs": {key: us for key, us in zip(["a,x", "a,y", "b,x", "b,y"], raw)},
    }
    game = NormalFormGame.from_doc(doc)
    for profile, us in zip([(0, 0), (0, 1), (1, 0), (1, 1)], raw):
        assert game.payoffs[profile] == tuple(Fraction(u) for u in us)
    assert game.payoffs[(0, 1)][1] != game.payoffs[(1, 0)][0]  # float 0.1 is not 1/10
    doc["payoffs"]["b,q"] = doc["payoffs"].pop("b,y")
    with pytest.raises(ValueError, match="unknown strategy 'q'"):
        NormalFormGame.from_doc(doc)


# Values whose floats tie but which differ exactly, and values past the float range.
RANK_POOL = [
    Fraction(0), Fraction(1e-300), -Fraction(1e-300), Fraction(1, 10**400),
    Fraction(1, 3 * 10**400), Fraction(0.1), Fraction(1, 10), Fraction(1, 3), Fraction(1),
    1 + Fraction(1, 10**30), Fraction(2**53), Fraction(2**53 + 1), Fraction(10**400),
    Fraction(10**400 + 1), -Fraction(10**400),
]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from(RANK_POOL), min_size=1, max_size=12))
def test_ranks_are_places_among_the_sorted_exact_values(values):
    distinct = sorted(set(values))
    ranks = dominance._rank_rows(values, (len(values),), 0)
    assert ranks.ravel().tolist() == [distinct.index(u) for u in values]


def test_payoff_tensor_must_be_total():
    with pytest.raises(ValueError):
        NormalFormGame(
            strategies=(("a", "b"), ("c",)),
            payoffs={(0, 0): (Fraction(0), Fraction(0))},
        )
