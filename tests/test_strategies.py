"""Utility axioms, deviation catalogue, and strategy behavior."""

import inspect
import json
import re
import time
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from ratshare import analysis
from ratshare.dominance import build_bounded_game, build_oneshot_sharing_game
from ratshare.engine import MOfNExchange, run_mechanism
from ratshare.protocol import (
    CoinTriple,
    DecisionKind,
    RunOutcome,
    TerminalCause,
)
from ratshare.strategies import (
    DEVIATIONS,
    AlwaysSilent,
    BiasedCoin,
    ForcedCoins,
    HonestStrategy,
    LocalState,
    Strategy,
    TableSizeError,
    UtilityTable,
    WithholdShare,
    _json_int,
    all_info_vectors,
    canonical_table,
    deviation_profile,
    info_key,
    parse_deviation,
    parse_info_key,
    parse_payoff,
)


# A 3-ring exchange, whose `_learned` is the rule for who learned.
RING = MOfNExchange(5, [[1], [2], [3]], 3, alpha=0.5, profile=None, seed=0, trial=0,
                    cap=1, record=False)


def make_state(player=1, coins=None, parity=None, observed=(), holdings_count=1):
    state = LocalState(player=player)
    state.begin_iteration(1)
    if coins is not None:
        state.coins = CoinTriple.make(*coins)
    state.parity = parity
    state.observed_broadcasts = set(observed)
    for k in range(holdings_count):
        state.holdings.add(("share", k + 1))
    return state


def brute_force_axioms_hold(table: UtilityTable) -> bool:
    """Literal translation of the axioms over all ordered vector pairs."""
    vectors = all_info_vectors(table.n_players)
    for player in range(1, table.n_players + 1):
        i = player - 1
        for r in vectors:
            for r2 in vectors:
                u_r, u_r2 = table.payoff(player, r), table.payoff(player, r2)
                if r[i] == 1 and r2[i] == 0 and not u_r > u_r2:
                    return False
                if (
                    r[i] == r2[i]
                    and all(r[j] <= r2[j] for j in range(table.n_players) if j != i)
                    and any(r[j] < r2[j] for j in range(table.n_players) if j != i)
                    and not u_r > u_r2
                ):
                    return False
    return True


def random_table(rng: Random, n_players=3) -> UtilityTable:
    """Random table, roughly half of them axiom-violating."""
    payoffs = []
    for _ in range(n_players):
        entries = {}
        for vec in all_info_vectors(n_players):
            entries[vec] = round(rng.uniform(-3, 3), 3)
        payoffs.append(entries)
    if rng.random() < 0.5:
        scalars = sorted(rng.uniform(-3, 3) for _ in range(3))
        return UtilityTable.from_scalars(scalars[2], scalars[1], scalars[0], n_players)
    return UtilityTable(n_players=n_players, payoffs=tuple(payoffs))


# --- info vectors ------------------------------------------------------------


def test_info_key_round_trip():
    assert info_key((1, 1, 0)) == "110"
    assert parse_info_key("110") == (1, 1, 0)
    with pytest.raises(ValueError):
        parse_info_key("10x")


# --- utility tables -----------------------------------------------------------


def test_canonical_table_is_valid():
    assert canonical_table().validate() == []


def test_canonical_expansion_values():
    table = canonical_table()
    assert table.u_only(1) == 2.0
    assert table.u_all(1) == 1.0
    assert table.u_none(1) == 0.0
    assert table.payoff(1, (1, 1, 0)) == 1.5
    assert table.payoff(1, (0, 1, 0)) == -0.5
    assert table.payoff(1, (0, 1, 1)) == -1.0


def test_two_player_expansion_matches_one_shot_game_cells():
    table = UtilityTable.from_scalars(2, 1, 0, n_players=2)
    assert table.payoff(1, (1, 1)) == 1
    assert table.payoff(1, (0, 1)) == -1
    assert table.payoff(1, (1, 0)) == 2
    assert table.payoff(1, (0, 0)) == 0


def test_lower_none_than_all_inclusive_is_reported():
    # Preferring "nobody learns" to "everyone learns, including me" breaks
    # the learning-is-better axiom.
    table = canonical_table()
    broken = {vec: v for vec, v in table.payoffs[0].items()}
    broken[(0, 0, 0)] = 5.0
    bad = UtilityTable(3, (broken, table.payoffs[1], table.payoffs[2]))
    violations = bad.validate()
    assert violations
    assert any(v[0] == "U2" and v[1] == 1 for v in violations)


def test_u3_violation_reported():
    table = canonical_table()
    broken = dict(table.payoffs[0])
    broken[(1, 1, 1)] = 3.0  # prefers more others learning
    bad = UtilityTable(3, (broken, table.payoffs[1], table.payoffs[2]))
    assert any(v[0] == "U3" for v in bad.validate())


def test_validator_agrees_with_brute_force_on_random_tables():
    rng = Random(123)
    agree = 0
    for _ in range(200):
        table = random_table(rng)
        assert (not table.validate()) == brute_force_axioms_hold(table)
        agree += 1
    assert agree == 200


def test_missing_vector_entry_raises():
    table = canonical_table()
    partial = dict(table.payoffs[0])
    del partial[(1, 0, 1)]
    bad = UtilityTable(3, (partial, table.payoffs[1], table.payoffs[2]))
    with pytest.raises(ValueError, match="missing vector entry"):
        bad.validate()


def test_doc_round_trip(tmp_path):
    table = canonical_table()
    doc = table.to_doc()
    again = UtilityTable.from_doc(doc, 3)
    assert again.payoffs == table.payoffs
    # Through JSON, a 1/3 entry comes back exactly.
    thirds = UtilityTable.from_scalars(2, "1/3", 0)
    path = tmp_path / "thirds.json"
    path.write_text(json.dumps(thirds.to_doc()))
    again = UtilityTable.from_doc(json.loads(path.read_text()), 3)
    assert again.payoffs == thirds.payoffs and again.u_all(1) == Fraction(1, 3)
    scalars = UtilityTable.from_doc({"players": 3, "u_only": 2, "u_all": 1, "u_none": 0}, 3)
    assert scalars.payoffs == table.payoffs
    with pytest.raises(ValueError):
        UtilityTable.from_doc({"players": 3}, 3)
    assert UtilityTable.from_doc({"u_only": 2, "u_all": 1, "u_none": 0}, 3).payoffs == table.payoffs
    for players in (3.9, True, "3"):
        with pytest.raises(ValueError, match=rf"^players must be an int, got {re.escape(repr(players))}$"):
            UtilityTable.from_doc({"players": players, "u_only": 2, "u_all": 1, "u_none": 0}, 3)
    with pytest.raises(TableSizeError, match="^needs a 2-player utility table, got 3$"):
        UtilityTable.from_doc(doc, 2)


def test_every_entry_is_exact_whichever_constructor_built_it():
    doc = {"players": 3, "u_only": 2, "u_all": "0.1", "u_none": 0}
    assert UtilityTable.from_doc(doc, 3).u_all(1) == Fraction(1, 10)
    explicit = canonical_table().to_doc()
    explicit["payoffs"]["1"]["100"] = "5/2"
    tables = [canonical_table(), UtilityTable.from_scalars(0.7, 0.2, 0.1),
              UtilityTable.from_doc(doc, 3), UtilityTable.from_doc(explicit, 3),
              UtilityTable(3, ({vec: 0.5 for vec in all_info_vectors(3)},) * 3)]
    for table in tables:
        assert {type(u) for entries in table.payoffs for u in entries.values()} == {Fraction}
    assert tables[3].u_only(1) == Fraction(5, 2)
    # A float is its exact binary value, a string its exact decimal one.
    assert tables[1].u_all(1) == Fraction(0.2) != Fraction(1, 5)


@pytest.mark.parametrize(
    "build, message",
    [(lambda: UtilityTable.from_scalars(float("inf"), 1, 0),
      "u_only must be a finite number or a rational string, got inf"),
     (lambda: UtilityTable.from_doc({"u_only": True, "u_all": 1, "u_none": 0}, 3),
      "u_only must be a finite number or a rational string, got True"),
     (lambda: UtilityTable.from_doc({"u_only": 2, "u_all": "1/0", "u_none": 0}, 3),
      "u_all must be a finite number or a rational string, got '1/0'"),
     (lambda: UtilityTable(2, ({(1, 1): 1.0}, {(1, 1): float("nan")})),
      "payoff of player 2 at '11' must be a finite number or a rational string, got nan")],
    ids=["scalar-inf", "doc-bool", "doc-zero-denominator", "entry-nan"],
)
def test_a_bad_payoff_is_named(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_a_payoff_exponent_is_bounded_before_any_power_is_built():
    # Past 4,300 in magnitude is refused, whatever the spelling ...
    for text in ("1e4301", "-1e-4301", "1E+4_301", "0.5e00004301", " 1e999999999 ", "1e10000000",
                 "1e" + "9" * 5000):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^u has a decimal exponent past 4,300, got "):
            parse_payoff(text, "u")
        assert time.perf_counter() - start < 0.1
    # ... and up to it every string still parses exactly.
    for exponent in (4300, 1000, 700, 400, -4300):
        assert parse_payoff(f"1e{exponent}") == Fraction(10) ** exponent
    assert parse_payoff("25e-0_1") == Fraction(5, 2)
    assert UtilityTable.from_doc({"u_only": "1e1000", "u_all": 1, "u_none": 0}, 3).u_only(1) == 10**1000


def test_a_payoff_has_at_most_4300_digits_and_a_bad_one_is_quoted_short():
    # Past Python's limit on an int string, whatever the spelling, a payoff
    # is named, and 40 characters of it are quoted ...
    for text in ("1" + "0" * 4300, "0." + "3" * 4301, "1/" + "7" * 4301, "1_" * 4301 + "1",
                 "1e" + "0" * 5000):
        with pytest.raises(ValueError, match=r"^u has more than 4,300 digits, got '.{39}$"):
            parse_payoff(text, "u")
    with pytest.raises(ValueError, match=r"^u must be a finite number or a rational string, "
                                         r"got 'x{39}$"):
        parse_payoff("x" * 5000, "u")
    # ... as is a JSON integer past the limit, which the loaders read as text.
    long = json.loads('{"u_only": 1' + "0" * 5000 + ', "u_all": 1, "u_none": 0}', parse_int=_json_int)
    with pytest.raises(ValueError, match="^u_only has more than 4,300 digits, got '1"):
        UtilityTable.from_doc(long, 3)
    # Up to it every spelling still parses exactly.
    assert parse_payoff("9" * 4300) == parse_payoff("-" + "9" * 4300) * -1 == 10**4300 - 1
    assert parse_payoff("1e4300") == 10**4300
    doc = json.loads(f'{{"u_only": {"9" * 4300}, "u_all": -{"9" * 4300}, "u_none": 0}}',
                     parse_int=_json_int)
    assert doc["u_only"] == -doc["u_all"] == 10**4300 - 1


def test_require_names_the_size_or_the_first_violation():
    table = canonical_table()
    assert table.require(3) is table
    with pytest.raises(ValueError, match="^needs a 3-player utility table, got 4$"):
        canonical_table(4).require(3)
    bad = UtilityTable.from_scalars(1.0, 2.0, 0.0)
    count = len(bad.validate())
    with pytest.raises(ValueError, match=rf"^utility table violates U3 for player 1 \({count} violations total\)$"):
        bad.require(3)
    for players in (0, 1):
        with pytest.raises(ValueError, match="at least 2 players"):
            canonical_table(players)


# Each consumer of a utility table, and the player count it needs.
TABLE_CONSUMERS = {
    "alpha-star": (3, analysis.alpha_star),
    "audit": (3, lambda table: analysis.nash_audit(0.5, table, trials=10_000, seed=1)),
    "oneshot": (2, build_oneshot_sharing_game),
    "bounded-r1": (2, lambda table: build_bounded_game(1, table)),
    "bounded-r2": (2, lambda table: build_bounded_game(2, table)),
}


@pytest.mark.parametrize("consumer", TABLE_CONSUMERS)
def test_table_consumers_reject_a_wrong_player_count(consumer):
    players, consume = TABLE_CONSUMERS[consumer]
    consume(canonical_table(players))
    for wrong in sorted({2, 3, 4} - {players}):
        with pytest.raises(ValueError, match=f"needs a {players}-player utility table, got {wrong}"):
            consume(canonical_table(wrong))


# --- honest strategy ----------------------------------------------------------


def test_honest_broadcast_rule():
    strat = HonestStrategy()
    assert strat.wants_broadcast(make_state(coins=(1, 0), parity=1))
    assert not strat.wants_broadcast(make_state(coins=(1, 0), parity=0))
    assert not strat.wants_broadcast(make_state(coins=(0, 0), parity=1))


def test_honest_decide_rule():
    # The strategy only chooses; the 3-ring exchange judges who learned.
    strat = HonestStrategy()
    stop = make_state(coins=(1, 0), parity=1, observed=(1, 2, 3), holdings_count=3)
    assert strat.decide(stop) == DecisionKind.STOP and RING._learned(stop)
    restart = strat.decide(make_state(coins=(1, 0), parity=1, observed=(1,)))
    assert restart == DecisionKind.RESTART
    caught = make_state(coins=(0, 0), parity=1, observed=())
    assert strat.decide(caught) == DecisionKind.STOP and not RING._learned(caught)


# --- deviations -----------------------------------------------------------------


def spec_strategy(spec):
    """The strategy a "name[:param]" spec gives player 1, by the one spec path."""
    name, alpha_prime = parse_deviation(spec)
    return deviation_profile(name, 1, alpha_prime)[1]


def test_catalog_contents():
    assert set(DEVIATIONS) == {
        "withhold", "biased-coin", "garble-step2", "always-silent", "always-broadcast"
    }
    for name in DEVIATIONS:
        assert type(spec_strategy(name)) is DEVIATIONS[name]


def test_withhold_never_broadcasts():
    strat = WithholdShare()
    assert not strat.wants_broadcast(make_state(coins=(1, 0), parity=1))


def test_biased_coin_degenerate_bias():
    strat = BiasedCoin(1.0)
    state = make_state()
    rng = Random(0)
    assert all(strat.coins(state, rng, 0.2).c == 1 for _ in range(20))


def test_biased_coin_validates_range():
    with pytest.raises(ValueError):
        BiasedCoin(0.0)
    with pytest.raises(ValueError):
        BiasedCoin(1.5)
    with pytest.raises(ValueError):
        spec_strategy("biased-coin:0")


def test_build_deviation_parsing():
    assert type(spec_strategy("withhold")) is WithholdShare
    assert spec_strategy("biased-coin:0.25").alpha_prime == 0.25
    assert spec_strategy("biased-coin").alpha_prime == 1.0
    with pytest.raises(ValueError):
        spec_strategy("nonsense")
    with pytest.raises(ValueError):
        spec_strategy("withhold:0.5")


def test_always_silent_zeroes_the_info_vector():
    outcome = run_mechanism(5, 0.5, {1: AlwaysSilent()}, seed=3)
    assert outcome.info == (0, 0, 0)
    assert outcome.cause == TerminalCause.MISSING_BIT_ABORT


# --- utility of runs --------------------------------------------------------------


def test_utility_lookup_on_outcomes():
    table = canonical_table()
    all_learned = RunOutcome(1, (1, 1, 1), TerminalCause.ALL_LEARNED)
    assert table.payoff(1, all_learned.info) == 1.0
    cheat = RunOutcome(2, (0, 1, 0), TerminalCause.CHEAT_STOP)
    assert table.payoff(2, cheat.info) == 2.0
    assert table.payoff(1, cheat.info) == -0.5
    capped = RunOutcome(4, (0, 0, 0), TerminalCause.ITERATION_CAP_HIT)
    assert table.payoff(1, capped.info) == 0.0


def test_equal_info_gives_equal_payoff_regardless_of_transcript():
    table = canonical_table()
    a = RunOutcome(1, (1, 1, 1), TerminalCause.ALL_LEARNED)
    b = RunOutcome(9, (1, 1, 1), TerminalCause.ALL_LEARNED)
    for player in (1, 2, 3):
        assert table.payoff(player, a.info) == table.payoff(player, b.info)


# --- randomization discipline -------------------------------------------------------


class CountingProxy:
    """Wraps a Random and counts entropy consumption."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.rng.random()

    def getrandbits(self, k):
        self.calls += 1
        return self.rng.getrandbits(k)


class RandomizationProbe(HonestStrategy):
    """Asserts the honest strategy randomizes only while it could still be
    missing shares and is not sending any."""

    def __init__(self):
        self.violations = []

    def _check(self, state, proxy):
        if proxy.calls and (RING._learned(state) or state.player in state.observed_broadcasts):
            self.violations.append((state.player, state.iteration))

    def coins(self, state, rng, alpha):
        proxy = CountingProxy(rng)
        out = super().coins(state, proxy, alpha)
        self._check(state, proxy)
        return out


def test_forced_coins_delegates_every_hook_but_coins():
    # The kernel and the tests wrap strategies in ForcedCoins, so every public
    # method of Strategy but `coins` must reach the inner strategy with the
    # same arguments and hand back its answer, a hook added later included.
    hooks = [name for name, _ in inspect.getmembers(Strategy, inspect.isfunction)
             if not name.startswith("_") and name != "coins"]
    assert "broadcast_payload" in hooks and "forwards_to_leader" in hooks
    calls = []

    def recorder(name):
        def hook(self, *args):
            calls.append((name, args))
            return (name, "inner")
        return hook

    inner = type("Recording", (Strategy,), {name: recorder(name) for name in hooks})()
    wrapper = ForcedCoins([(1, 0)], inner)
    for name in hooks:
        arity = len(inspect.signature(getattr(Strategy, name)).parameters) - 1
        args = tuple(object() for _ in range(arity))
        assert getattr(wrapper, name)(*args) == (name, "inner"), name
        assert calls == [(name, args)], name
        calls.clear()


def test_honest_randomizes_only_before_holding_everything():
    # Only `coins` is handed a stream; every later hook is a function of the state.
    drawing = [name for name, hook in inspect.getmembers(Strategy, inspect.isfunction)
               if "rng" in inspect.signature(hook).parameters]
    assert drawing == ["coins"]
    # Exhaustive over two iterations: every first-iteration coin assignment,
    # and for the restarting ones every second-iteration assignment.
    probes = {pid: RandomizationProbe() for pid in (1, 2, 3)}
    coin_values = list(product((0, 1), repeat=2))
    for first in product(coin_values, repeat=3):
        cs = [first[i][0] for i in range(3)]
        if all(cs):
            run_mechanism(5, 0.5, {p: ForcedCoins([first[p - 1]], probes[p]) for p in (1, 2, 3)},
                          seed=41, cap=1, record=False)
            continue
        for second in product(coin_values, repeat=3):
            profile = {
                p: ForcedCoins([first[p - 1], second[p - 1]], probes[p]) for p in (1, 2, 3)
            }
            run_mechanism(5, 0.5, profile, seed=41, cap=2, record=False)
    assert all(not probe.violations for probe in probes.values())
