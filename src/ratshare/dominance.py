"""Finite normal-form games and iterated deletion of weakly dominated strategies.

Payoffs are exact rationals because weak dominance is equality-sensitive:
a float tie would silently turn "never worse, somewhere better" into
"sometimes worse".  A document's payoffs follow the one payoff rule of
utility tables, `strategies.parse_payoff`, applied once per distinct raw
value.  Weak dominance only compares one player's payoffs with each
other, so a game also keeps, per player, the rank of each payoff among
that player's distinct exact values; comparisons run on these small
integers, and ties stay ties.  The ranks come from a sort on each
value's float, which rounding never reverses, with exact comparisons
only between values whose floats tie.  (A common denominator would not
do: adversarial denominators make it arbitrarily large, and
`Fraction(1e-300)` alone has one near 2**1049.)  Deletion removes,
simultaneously for every player, every strategy that some other pure
strategy weakly dominates against the current restriction sets, and
repeats to a fixpoint; each check compares all pairs of a player's
strategies in one array operation.  Dominators are pure strategies
only; mixed dominators would need an LP and none of the desk-scale
demonstrations here require them.

The builders materialize, from a valid 2-player utility table (checked
by `UtilityTable.require(2)`), tiny two-player share-exchange games whose
cells are the table's exact entries, converting nothing: the one-shot
game, where withholding weakly dominates sending outright, and the
two-round bounded game, where the same conclusion needs the full
backward-induction cascade of deletion rounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .report import one_line
from .strategies import UtilityTable, _json_int, float_view, parse_payoff

Profile = tuple[int, ...]

SEND = "send"
WITHHOLD = "withhold"

_BAD_PAYOFFS = "payoffs of {!r} must be a list of finite numbers or strings"
# About the most elements one boolean temporary of `weakly_dominated` holds.
_BLOCK_ELEMENTS = 1 << 22


@dataclass
class NormalFormGame:
    """Strategy labels per player plus an exact payoff tensor.

    `ranks[i]` is derived at construction: player i+1's payoff ranks, one
    int64 row per own strategy and one column per opponent profile (the
    other players' indices in C order).  Mutating `payoffs` afterwards
    leaves it stale.
    """

    strategies: tuple[tuple[str, ...], ...]
    payoffs: dict[Profile, tuple[Fraction, ...]]
    name: str = "game"
    # Optional: terminal info vector per profile, for games built from
    # share-exchange outcomes.
    info_map: dict[Profile, tuple[int, ...]] | None = None
    ranks: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    @property
    def n_players(self) -> int:
        return len(self.strategies)

    def __post_init__(self) -> None:
        if not self.strategies or any(len(s) == 0 for s in self.strategies):
            raise ValueError("every player needs a nonempty strategy set")
        shape = tuple(len(s) for s in self.strategies)
        profiles = list(product(*map(range, shape)))
        if set(self.payoffs) != set(profiles):
            raise ValueError("payoff tensor must be total over the profile space")
        for profile, us in self.payoffs.items():
            if len(us) != self.n_players:
                raise ValueError(f"profile {profile} needs one payoff per player")
        columns = zip(*(self.payoffs[p] for p in profiles))
        self.ranks = tuple(
            _rank_rows(values, shape, axis) for axis, values in enumerate(columns)
        )

    def payoff(self, profile: Profile, player: int) -> Fraction:
        return self.payoffs[profile][player - 1]

    def label(self, player: int, strategy: int) -> str:
        return self.strategies[player - 1][strategy]

    def index(self, player: int, label: str) -> int:
        try:
            return self.strategies[player - 1].index(label)
        except ValueError:
            raise ValueError(f"player {player} has no strategy {label!r:.40}") from None

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "players": self.n_players,
            "strategies": [list(s) for s in self.strategies],
            "payoffs": {
                ",".join(self.label(i + 1, s) for i, s in enumerate(profile)): [
                    str(u) for u in us
                ]
                for profile, us in sorted(self.payoffs.items())
            },
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "NormalFormGame":
        # The name and the labels are echoed into a report, one line per
        # value, so a line break in one would forge report lines.
        name = doc.get("name", "game")
        if not (isinstance(name, str) and one_line(name)):
            raise ValueError(f"game name must be a one-line string, got {name!r:.40}")
        for player, labels in enumerate(doc["strategies"], start=1):
            if not (
                isinstance(labels, list)
                and all(isinstance(lbl, str) and one_line(lbl) for lbl in labels)
                and len(set(labels)) == len(labels)
            ):
                raise ValueError(
                    f"player {player} strategies must be a list of distinct one-line strings"
                )
        strategies = tuple(tuple(s) for s in doc["strategies"])
        indexes = [{lbl: k for k, lbl in enumerate(labels)} for labels in strategies]
        # A game repeats few distinct payoffs: check and parse each raw value once.
        parse = lru_cache(maxsize=None, typed=True)(parse_payoff)
        payoffs = {}
        for key, us in doc["payoffs"].items():
            if not isinstance(us, list):
                raise ValueError(_BAD_PAYOFFS.format(key))
            try:
                values = tuple(map(parse, us))
            except TypeError:  # an unhashable value
                raise ValueError(_BAD_PAYOFFS.format(key)) from None
            except ValueError as exc:
                raise ValueError(f"payoffs of {key!r}: {exc}") from None
            labels = key.split(",")
            if len(labels) != len(strategies):
                raise ValueError(
                    f"payoffs key {key!r} has {len(labels)} labels for {len(strategies)} players"
                )
            try:
                profile = tuple(indexes[i][lbl] for i, lbl in enumerate(labels))
            except KeyError as exc:
                raise ValueError(f"payoffs of {key!r} name an unknown strategy {exc}") from None
            payoffs[profile] = values
        return cls(strategies=strategies, payoffs=payoffs, name=name)

    @classmethod
    def load(cls, path) -> "NormalFormGame":
        with open(path) as fh:
            return cls.from_doc(json.load(fh, parse_int=_json_int))


def _rank_rows(values, shape: tuple[int, ...], axis: int) -> np.ndarray:
    """Rank each payoff among the distinct values; own strategies on axis 0."""
    # Equal rationals have equal reduced (numerator, denominator) pairs,
    # which hash far faster than Fractions.
    keys = [(u.numerator, u.denominator) for u in values]
    distinct = dict(zip(keys, values))
    # Correctly rounded floats never reverse an order, so they sort the
    # values and exact comparisons only break float ties.
    order = sorted(zip(map(float_view, distinct.values()), distinct.values(), distinct))
    rank = {key: r for r, (_, _, key) in enumerate(order)}
    flat = np.fromiter((rank[key] for key in keys), dtype=np.int64, count=len(keys))
    return np.moveaxis(flat.reshape(shape), axis, 0).reshape(shape[axis], -1)


def weakly_dominated(
    game: NormalFormGame, player: int, restriction: list[set[int]]
) -> dict[int, int]:
    """Map each weakly dominated strategy to its lowest-index pure dominator.

    A strategy is dominated when some other strategy in the player's
    restricted set does at least as well against every restricted opponent
    profile and strictly better against at least one.
    """
    ordered = [sorted(r) for r in restriction]
    for ks, n in zip(ordered, map(len, game.strategies), strict=True):
        if not ks:
            raise ValueError("restriction sets must be nonempty")
        if ks[0] < 0 or ks[-1] >= n:
            raise ValueError("restriction indexes an unknown strategy")
    # Opponent profiles as C-order flat column indexes into `ranks`.
    cols = np.zeros(1, dtype=np.int64)
    for j, ks in enumerate(ordered):
        if j != player - 1:
            cols = (cols[:, None] * len(game.strategies[j]) + ks).ravel()
    mine = ordered[player - 1]
    sub = game.ranks[player - 1][mine][:, cols]
    # ge[d, s]: d does at least as well as s against every column, in
    # blocks of rows d.
    step = max(1, _BLOCK_ELEMENTS // sub.size)
    ge = np.concatenate([(sub[i:i + step, None] >= sub).all(2) for i in range(0, len(sub), step)])
    # d is strictly better somewhere exactly when s is not at least as good everywhere.
    dominates = ge & ~ge.T
    witness = dominates.argmax(0)
    return {mine[s]: mine[witness[s]] for s in np.flatnonzero(dominates.any(0))}


@dataclass
class DeletionRound:
    """One delete-all round: removals (with dominator witnesses) and survivors."""

    deleted: dict[int, dict[int, int]]
    surviving: tuple[frozenset[int], ...]

    @property
    def is_empty(self) -> bool:
        return all(not d for d in self.deleted.values())


@dataclass
class DeletionTrace:
    rounds: list[DeletionRound]
    surviving: tuple[frozenset[int], ...]
    fixpoint: bool
    would_empty: int | None = None

    @property
    def deletion_rounds(self) -> int:
        return sum(1 for r in self.rounds if not r.is_empty)

    def survives(self, player: int, strategy: int) -> bool:
        return strategy in self.surviving[player - 1]


def iterate_deletion(game: NormalFormGame) -> DeletionTrace:
    """Delete all weakly dominated strategies of all players, to a fixpoint.

    If a round would wipe out some player's whole strategy set (provably
    impossible with pure dominators, since weak dominance is a strict
    partial order), the trace stops before applying it and reports the
    player instead of guessing.
    """
    restriction = [set(range(len(s))) for s in game.strategies]
    players = range(1, game.n_players + 1)
    rounds: list[DeletionRound] = []
    while True:
        doms = {player: weakly_dominated(game, player, restriction) for player in players}
        would_empty = next((p for p in players if len(doms[p]) == len(restriction[p - 1])), None)
        done = would_empty is not None or all(not d for d in doms.values())
        if not done:
            for player in players:
                restriction[player - 1] -= set(doms[player])
        surviving = tuple(frozenset(r) for r in restriction)
        rounds.append(DeletionRound(deleted=doms, surviving=surviving))
        if done:
            fixpoint = would_empty is None
            return DeletionTrace(rounds, surviving, fixpoint=fixpoint, would_empty=would_empty)


@dataclass
class PracticalVerdict:
    """A mechanism is practical iff its recommended profile is a Nash
    equilibrium and survives iterated deletion."""

    is_nash: bool
    survives: bool
    nash_witness: tuple[int, int] | None = None

    @property
    def practical(self) -> bool:
        return self.is_nash and self.survives


def check_practical(
    game: NormalFormGame, profile: Profile, trace: DeletionTrace
) -> PracticalVerdict:
    """Sweep unilateral pure deviations and look the profile up in `trace`,
    the game's deletion."""
    for player in range(1, game.n_players + 1):
        if not 0 <= profile[player - 1] < len(game.strategies[player - 1]):
            raise ValueError(f"profile indexes an unknown strategy for player {player}")
    is_nash = True
    nash_witness = None
    for player in range(1, game.n_players + 1):
        here = game.payoff(profile, player)
        for alt in range(len(game.strategies[player - 1])):
            trial = list(profile)
            trial[player - 1] = alt
            if game.payoff(tuple(trial), player) > here:
                is_nash = False
                nash_witness = (player, alt)
                break
        if not is_nash:
            break
    survives = all(trace.survives(player, s) for player, s in enumerate(profile, start=1))
    return PracticalVerdict(is_nash=is_nash, survives=survives, nash_witness=nash_witness)


# --- builders: tiny explicit share-exchange games ----------------------------


def build_oneshot_sharing_game(table: UtilityTable) -> NormalFormGame:
    """Both players hold one share each; simultaneously send or withhold.

    A player learns exactly when the other sends.
    """
    table.require(2)
    labels = (SEND, WITHHOLD)
    payoffs = {}
    info_map = {}
    for a, b in product(range(2), repeat=2):
        info = (1 if b == 0 else 0, 1 if a == 0 else 0)
        payoffs[(a, b)] = (table.payoff(1, info), table.payoff(2, info))
        info_map[(a, b)] = info
    return NormalFormGame(
        strategies=(labels, labels), payoffs=payoffs, name="oneshot-2of2", info_map=info_map
    )


# Observation histories after round 1 at which a round-2 action is still
# meaningful: (own round-1 action, other's round-1 action).  Both sending
# ends the game, so that history is omitted; a pure strategy is the round-1
# action plus one action per remaining history.
BOUNDED_HISTORIES = ((SEND, WITHHOLD), (WITHHOLD, SEND), (WITHHOLD, WITHHOLD))


def bounded_strategy_label(a1: str, plan: tuple[str, str, str]) -> str:
    return f"{a1[0].upper()}|{''.join(p[0].upper() for p in plan)}"


def bounded_strategy_sends(label: str) -> bool:
    """Whether the strategy ever sends at a history its own play can reach."""
    a1, plan = label.split("|")
    if a1 == "S":
        return True
    # Round 1 withheld: reachable histories are (W, S) and (W, W).
    return plan[1] == "S" or plan[2] == "S"


def _bounded_outcome(
    s1: tuple[str, tuple[str, str, str]], s2: tuple[str, tuple[str, str, str]]
) -> tuple[int, int]:
    a1, plan1 = s1
    b1, plan2 = s2
    if a1 == SEND and b1 == SEND:
        return (1, 1)
    a2 = plan1[BOUNDED_HISTORIES.index((a1, b1))]
    b2 = plan2[BOUNDED_HISTORIES.index((b1, a1))]
    sent1 = a1 == SEND or a2 == SEND
    sent2 = b1 == SEND or b2 == SEND
    return (1 if sent2 else 0, 1 if sent1 else 0)


def build_bounded_game(rounds: int, table: UtilityTable) -> NormalFormGame:
    """Finite-horizon exchange game with `rounds` in {1, 2}.

    One round is the one-shot game.  With two rounds a pure strategy maps
    each live observation history to an action (2 * 2^3 = 16 strategies
    per player); a player learns iff the other ever sent.
    """
    if rounds == 1:
        return build_oneshot_sharing_game(table)
    if rounds != 2:
        raise ValueError("bounded builder supports 1 or 2 rounds only")
    table.require(2)
    pures = [
        (a1, plan)
        for a1 in (SEND, WITHHOLD)
        for plan in product((SEND, WITHHOLD), repeat=len(BOUNDED_HISTORIES))
    ]
    labels = tuple(bounded_strategy_label(a1, plan) for a1, plan in pures)
    # Each player's map of the table, read directly in each of the 256 cells.
    first, second = table.payoffs
    payoffs = {}
    info_map = {}
    for i, s1 in enumerate(pures):
        for j, s2 in enumerate(pures):
            info = _bounded_outcome(s1, s2)
            payoffs[(i, j)] = (first[info], second[info])
            info_map[(i, j)] = info
    return NormalFormGame(
        strategies=(labels, labels), payoffs=payoffs, name="bounded-r2", info_map=info_map
    )


def prisoners_dilemma() -> NormalFormGame:
    """Reference game: (defect, defect) is practical via strict dominance."""
    c, d = 0, 1
    payoffs = {
        (c, c): (Fraction(2), Fraction(2)),
        (c, d): (Fraction(0), Fraction(3)),
        (d, c): (Fraction(3), Fraction(0)),
        (d, d): (Fraction(1), Fraction(1)),
    }
    return NormalFormGame(
        strategies=(("cooperate", "defect"), ("cooperate", "defect")),
        payoffs=payoffs,
        name="prisoners-dilemma",
    )
