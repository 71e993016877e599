"""Player strategies and the who-learned utility model.

A strategy is a decision rule from a player's local view (its own coins,
the bits and shares it has received, the shares it holds) to the action
of the current step.  Strategies can only read the LocalState they are
handed, so locality is structural: nothing about other players' private
coins is reachable from here.  Only `coins` draws, from the player's own
stream.  Steps are simultaneous by construction (see `protocol`): at any
seat, a strategy sees only what earlier steps delivered.  A decision is
a DecisionKind; who learned is `engine.GroupedExchange._learned`'s call.

Utilities depend only on the terminal info vector (which players learned
the secret).  A UtilityTable stores one exact payoff per info vector per
player and is validated against three axioms: payoffs are a function of
the info vector alone, every learning outcome strictly beats every
non-learning outcome, and lowering any other player's bit strictly
raises one's payoff.  `UtilityTable.require(n)` is the one check every
consumer runs: the player count it needs, then the axioms, decided once
per table.  The size rule is `UtilityTable.check_size`, which `from_doc`
also runs before it expands a document.

`parse_payoff` is the one rule for what a payoff is, for utility tables
and for `dominance` games alike: a finite int or float, or a rational
string such as "1/3" or "0.1" (exactly 1/10), never a bool.  Every
payoff is a `Fraction`, so the axioms and the thresholds built on them
compare exactly; `float_view` is the float that numpy and the reports
read, and `sqrt_view` the float square root of an exact value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from random import Random

from .protocol import (
    CoinTriple,
    DecisionKind,
    broadcast_rule,
    masked_bit_rule,
    restart_rule,
)

# Honest `decide` runs once per seated player per iteration; a bound member
# skips Python 3.11's `EnumType.__getattr__` (see `engine`).
_STOP = DecisionKind.STOP
_RESTART = DecisionKind.RESTART

# --- local state -------------------------------------------------------------


@dataclass(frozen=True)
class CheatEvidence:
    kind: str
    iteration: int
    step: int
    about: int | None = None


@dataclass
class LocalState:
    """What one player has observed this iteration: its bits and broadcasts, the
    holding keys of the items of its epoch it holds (`holdings`, the items
    themselves travel in the exchange's bundles, and a leader sees its own
    payload only in `Strategy.broadcast_payload`, once it broadcasts),
    whether an earlier epoch taught it the secret, and its evidence."""

    player: int
    iteration: int = 0
    coins: CoinTriple | None = None
    bit_from_pred: int | None = None
    bit_from_succ: int | None = None
    masked_from_succ: int | None = None
    parity: int | None = None
    observed_broadcasts: set[int] = field(default_factory=set)
    holdings: set[tuple] = field(default_factory=set)
    learned_earlier: bool = False
    cheat_evidence: list[CheatEvidence] = field(default_factory=list)

    @property
    def observed_count(self) -> int:
        """Distinct valid broadcasts seen this iteration, own iff sent."""
        return len(self.observed_broadcasts)

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.coins = None
        self.bit_from_pred = None
        self.bit_from_succ = None
        self.masked_from_succ = None
        self.parity = None
        self.observed_broadcasts = set()
        self.holdings = set()


# --- strategies --------------------------------------------------------------


class Strategy:
    """Decision rule: LocalState -> action for the current step (`coins` also draws).

    `broadcast_payload` is called only after `wants_broadcast` said yes, with
    the payload the exchange built for the leader: what it returns is sent,
    and None sends nothing.
    """

    # True when the strategy follows the recommended message rules (possibly
    # with different coin distributions), so parity-agreement and
    # all-or-nothing invariants are expected to hold.
    honest_rules = True

    def coins(self, state: LocalState, rng: Random, alpha: float) -> CoinTriple | None:
        raise NotImplementedError

    def masked_bit(self, state: LocalState) -> int | None:
        raise NotImplementedError

    def wants_broadcast(self, state: LocalState) -> bool:
        raise NotImplementedError

    def broadcast_payload(self, state: LocalState, payload: object) -> object:
        """The payload to broadcast in place of the leader's own; honest play keeps it."""
        return payload

    def decide(self, state: LocalState) -> DecisionKind:
        raise NotImplementedError

    def forwards_to_leader(self, state: LocalState) -> bool:
        """Group lifts only: forward the own share/bundle to the group leader."""
        return True


class HonestStrategy(Strategy):
    """The recommended strategy: randomize only in the coin choice."""

    def coin_bias(self, alpha: float) -> float:
        """Probability that this player's send-intent coin is 1."""
        return alpha

    def coins(self, state: LocalState, rng: Random, alpha: float) -> CoinTriple:
        c = 1 if rng.random() < self.coin_bias(alpha) else 0
        return CoinTriple.make(c, rng.getrandbits(1))

    def masked_bit(self, state: LocalState) -> int | None:
        return masked_bit_rule(state.bit_from_succ, state.coins.c)

    def wants_broadcast(self, state: LocalState) -> bool:
        return broadcast_rule(state.parity, state.coins.c if state.coins else None)

    def decide(self, state: LocalState) -> DecisionKind:
        return _RESTART if restart_rule(state.parity, state.observed_count) else _STOP


class WithholdShare(HonestStrategy):
    """Never broadcast, even when parity and the own coin are both 1."""

    honest_rules = False

    def wants_broadcast(self, state: LocalState) -> bool:
        return False


class BiasedCoin(HonestStrategy):
    """Honest play with the send-intent coin drawn at a different bias."""

    def __init__(self, alpha_prime: float):
        if alpha_prime is None or not 0 < alpha_prime <= 1:
            raise ValueError(f"biased coin needs alpha' in (0, 1], got {alpha_prime}")
        self.alpha_prime = alpha_prime

    def coin_bias(self, alpha: float) -> float:
        return self.alpha_prime


class GarbleStep2(HonestStrategy):
    """Flip the forwarded masked bit, corrupting the predecessor's parity."""

    honest_rules = False

    def masked_bit(self, state: LocalState) -> int:
        return super().masked_bit(state) ^ 1


class AlwaysSilent(HonestStrategy):
    """Send nothing at any step.

    Without coins its parity stays None, so the inherited rules never
    broadcast and always stop.
    """

    honest_rules = False

    def coins(self, state: LocalState, rng: Random, alpha: float) -> None:
        return None

    def masked_bit(self, state: LocalState) -> None:
        return None


class AlwaysBroadcast(HonestStrategy):
    """Broadcast the share every iteration regardless of parity."""

    honest_rules = False

    def wants_broadcast(self, state: LocalState) -> bool:
        return True


class WithholdFromLeader(HonestStrategy):
    """Group lifts: never forward the own share to the group leader."""

    honest_rules = False

    def forwards_to_leader(self, state: LocalState) -> bool:
        return False


class ForcedCoins(Strategy):
    """Replay scripted coins, delegate everything else.

    The script holds one (c, c_plus) entry per iteration; iterations past
    the end keep the inner strategy's own coin draw.  A script entry only
    replaces a triple the inner strategy sends, so a silent player stays
    silent.
    """

    def __init__(self, script: list[tuple[int, int]], inner: Strategy | None = None):
        self.script = script
        self.inner = inner if inner is not None else HonestStrategy()
        self.honest_rules = self.inner.honest_rules

    def coins(self, state: LocalState, rng: Random, alpha: float) -> CoinTriple | None:
        triple = self.inner.coins(state, rng, alpha)
        if triple is None or state.iteration > len(self.script):
            return triple
        return CoinTriple.make(*self.script[state.iteration - 1])

    def masked_bit(self, state: LocalState) -> int | None:
        return self.inner.masked_bit(state)

    def wants_broadcast(self, state: LocalState) -> bool:
        return self.inner.wants_broadcast(state)

    def broadcast_payload(self, state: LocalState, payload: object) -> object:
        return self.inner.broadcast_payload(state, payload)

    def decide(self, state: LocalState) -> DecisionKind:
        return self.inner.decide(state)

    def forwards_to_leader(self, state: LocalState) -> bool:
        return self.inner.forwards_to_leader(state)


# --- deviation registry -------------------------------------------------------

# Every name the audit, the samplers and the CLI accept.  Only biased-coin
# takes a parameter, its coin bias alpha'.
DEVIATIONS: dict[str, type[HonestStrategy]] = {
    "withhold": WithholdShare,
    "biased-coin": BiasedCoin,
    "garble-step2": GarbleStep2,
    "always-silent": AlwaysSilent,
    "always-broadcast": AlwaysBroadcast,
}


def parse_deviation(spec: str) -> tuple[str, float | None]:
    """Split "name" / "name:param" into (name, alpha').

    alpha' is None for every deviation but biased-coin, where it
    defaults to 1; its range is checked when the strategy is built.
    """
    name, _, param = spec.partition(":")
    if name not in DEVIATIONS:
        raise ValueError(f"unknown deviation {name!r:.40}")
    if name != "biased-coin":
        if param:
            raise ValueError(f"deviation {name!r} takes no parameter")
        return name, None
    try:
        return name, float(param) if param else 1.0
    except ValueError:
        raise ValueError(f"biased-coin needs a number alpha', got {param!r:.40}") from None


def deviation_profile(
    name: str | None, deviator: int | None, alpha_prime: float | None = None
) -> dict[int, Strategy]:
    """The profile in which `deviator` alone plays deviation `name`.

    `name` of None is the all-honest profile, {}.  Raises ValueError for
    an unknown name, a deviator outside players 1..3 or a bad alpha'.
    """
    if name is None:
        return {}
    if name not in DEVIATIONS:
        raise ValueError(f"unknown deviation {name!r:.40}")
    if deviator not in (1, 2, 3):
        raise ValueError("deviator must be one of players 1..3")
    return {deviator: BiasedCoin(alpha_prime) if name == "biased-coin" else DEVIATIONS[name]()}


# --- payoffs, info vectors and utilities -------------------------------------

# Python's own limit on the digits of an int string, which bounds both a
# payoff string's digit runs and its decimal exponent: Fraction("1e10000000")
# alone builds a ten-million-digit power, in about 12 s.
_MAX_DIGITS = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)
_DIGIT_RUN = re.compile(r"[\d_]+")


def parse_payoff(u, what: str = "payoff") -> Fraction:
    """`u` as an exact rational: a Fraction, a finite int or float, or a
    rational string such as "1/3" or "0.1" (exactly 1/10), whose decimal
    exponent is at most 4,300 in magnitude and whose runs of digits are
    at most 4,300 long.

    Raises ValueError naming `what` and quoting at most 40 characters of
    `u` for anything else, a bool, inf, nan and "1/0" among them.
    """
    if type(u) is Fraction:
        return u
    ok = math.isfinite(u) if isinstance(u, float) else isinstance(u, (int, str))
    if isinstance(u, str):
        if exponent := _EXPONENT.search(u):
            digits = exponent[1].replace("_", "").lstrip("0")
            if len(digits) > len(str(_MAX_DIGITS)) or int(digits or 0) > _MAX_DIGITS:
                raise ValueError(f"{what} has a decimal exponent past {_MAX_DIGITS:,}, "
                                 f"got {u!r:.40}")
        if len(u) > _MAX_DIGITS and any(
            len(run) - run.count("_") > _MAX_DIGITS for run in _DIGIT_RUN.findall(u)
        ):
            raise ValueError(f"{what} has more than {_MAX_DIGITS:,} digits, got {u!r:.40}")
    if ok and not isinstance(u, bool):
        try:
            return Fraction(u)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{what} must be a finite number or a rational string, got {u!r:.40}")


def _json_int(text: str) -> int | str:
    """A JSON integer as an int; past 4,300 digits, which `int` refuses, its
    text, so that `parse_payoff` names the payoff."""
    return int(text) if len(text.lstrip("-")) <= _MAX_DIGITS else text


def float_view(u: Fraction) -> float:
    """The float nearest `u`, and +-inf past the float range, as float arithmetic gives."""
    try:
        return float(u)
    except OverflowError:
        return math.inf if u > 0 else -math.inf


def sqrt_view(x: Fraction) -> float:
    """sqrt(x) as a float, also for an x outside the float range; inf past it."""
    half = (x.numerator.bit_length() - x.denominator.bit_length()) // 2
    try:
        return math.ldexp(math.sqrt(x / Fraction(4) ** half), half)
    except OverflowError:
        return math.inf


def info_key(info: tuple[int, ...]) -> str:
    return "".join(str(b) for b in info)


def parse_info_key(key: str) -> tuple[int, ...]:
    if not key or any(ch not in "01" for ch in key):
        raise ValueError(f"info vector key must be a bit string, got {key!r}")
    return tuple(int(ch) for ch in key)


def all_info_vectors(n_players: int) -> list[tuple[int, ...]]:
    return [tuple(bits) for bits in product((0, 1), repeat=n_players)]


class TableSizeError(ValueError):
    """A utility table, or a document of one, has the wrong number of players."""


@dataclass(frozen=True)
class UtilityTable:
    """Per-player exact payoffs keyed by info vector.

    Keying by the info vector alone bakes in the first axiom; validation
    checks the two strict-preference axioms.  The constructor copies each
    map and parses every entry that is not a Fraction with `parse_payoff`,
    so every entry is exact whichever constructor built the table, and
    `require` decides the axioms once per table.
    """

    n_players: int
    payoffs: tuple[dict[tuple[int, ...], Fraction], ...]

    def __post_init__(self) -> None:
        tables = []
        for player, raw in enumerate(self.payoffs, start=1):
            entries = dict(raw)
            for vec, u in raw.items():
                if type(u) is not Fraction:  # the common case skips building the name
                    what = f"payoff of player {player} at {info_key(vec)!r}"
                    entries[vec] = parse_payoff(u, what)
            tables.append(entries)
        object.__setattr__(self, "payoffs", tuple(tables))

    def payoff(self, player: int, info: tuple[int, ...]) -> Fraction:
        try:
            return self.payoffs[player - 1][tuple(info)]
        except KeyError:
            raise ValueError(f"missing vector entry {info_key(info)} for player {player}") from None

    def u_only(self, player: int) -> Fraction:
        vec = tuple(1 if i == player else 0 for i in range(1, self.n_players + 1))
        return self.payoff(player, vec)

    def u_all(self, player: int) -> Fraction:
        return self.payoff(player, (1,) * self.n_players)

    def u_none(self, player: int) -> Fraction:
        return self.payoff(player, (0,) * self.n_players)

    @classmethod
    def from_scalars(cls, u_only, u_all, u_none, n_players: int = 3) -> "UtilityTable":
        """Expand the three canonical scalars, each parsed by `parse_payoff`,
        into a full symmetric table.

        Payoffs fall linearly in the number of other learners, from u_only
        down to u_all while learning and from u_none downward while not;
        both slopes are strictly positive exactly when u_only > u_all >
        u_none, so the expansion satisfies the axioms iff the scalars are
        ordered.  The 2 * n_players distinct values are computed once.
        """
        if n_players < 2:
            raise ValueError(f"scalar utilities need at least 2 players, got {n_players}")
        u_only, u_all, u_none = (
            parse_payoff(u, name)
            for u, name in ((u_only, "u_only"), (u_all, "u_all"), (u_none, "u_none"))
        )
        step_learn = (u_only - u_all) / (n_players - 1)
        step_miss = (u_all - u_none) / (n_players - 1)
        # Indexed by the number of other learners.
        learning = [u_only - k * step_learn for k in range(n_players)]
        missing = [u_none - k * step_miss for k in range(n_players)]
        vectors = all_info_vectors(n_players)
        tables = tuple(
            {vec: (learning if vec[i] else missing)[sum(vec) - vec[i]] for vec in vectors}
            for i in range(n_players)
        )
        return cls(n_players=n_players, payoffs=tables)

    @staticmethod
    def check_size(n_players: int, needed: int) -> None:
        """Raise TableSizeError unless a table of `n_players` has the `needed` size."""
        if n_players != needed:
            raise TableSizeError(f"needs a {needed}-player utility table, got {n_players}")

    @classmethod
    def from_doc(cls, doc: dict, n_players: int) -> "UtilityTable":
        """Load from the document format (scalar aliases or explicit maps).

        A document of other than `n_players` players raises TableSizeError
        before anything is expanded: the scalar form grows as 2**players.
        Payoffs are parsed by `parse_payoff`; a bad one raises ValueError
        naming it, with its player and key in a map.
        """
        n = doc.get("players", 3)
        if type(n) is not int:
            raise ValueError(f"players must be an int, got {n!r}")
        cls.check_size(n, n_players)
        if "payoffs" in doc:
            tables = []
            for player in range(1, n + 1):
                raw = doc["payoffs"].get(str(player))
                if raw is None:
                    raise ValueError(f"missing payoff map for player {player}")
                entries = {}
                for key, value in raw.items():
                    vec = parse_info_key(key)
                    if len(vec) != n:
                        raise ValueError(f"key {key!r} has wrong length for {n} players")
                    entries[vec] = value
                tables.append(entries)
            return cls(n_players=n, payoffs=tuple(tables))
        try:
            scalars = doc["u_only"], doc["u_all"], doc["u_none"]
        except KeyError as missing:
            raise ValueError(f"utility document needs payoffs or scalar aliases ({missing})")
        return cls.from_scalars(*scalars, n)

    def to_doc(self) -> dict:
        """The explicit-map document, each payoff as its exact string ("1/3")."""
        return {
            "players": self.n_players,
            "payoffs": {
                str(player): {info_key(vec): str(value) for vec, value in table.items()}
                for player, table in enumerate(self.payoffs, start=1)
            },
        }

    def validate(self) -> list[tuple[str, int, tuple[int, ...], tuple[int, ...]]]:
        """Violated (axiom, player, vector, vector) tuples, empty iff the axioms hold."""
        violations = []
        vectors = all_info_vectors(self.n_players)
        # Strict monotonicity is checked on adjacent pairs (one other bit
        # lowered); the general comparisons follow by chaining.
        adjacent = [(vec, j, vec[:j] + (0,) + vec[j + 1:])
                    for vec in vectors for j in range(self.n_players) if vec[j]]
        for player in range(1, self.n_players + 1):
            values = {vec: self.payoff(player, vec) for vec in vectors}
            i = player - 1
            learning = [v for v in vectors if v[i] == 1]
            missing = [v for v in vectors if v[i] == 0]
            for r in learning:
                for r2 in missing:
                    if not values[r] > values[r2]:
                        violations.append(("U2", player, r, r2))
            for vec, j, lowered in adjacent:
                if j != i and not values[lowered] > values[vec]:
                    violations.append(("U3", player, lowered, vec))
        return violations

    @cached_property
    def _violations(self) -> list[tuple[str, int, tuple[int, ...], tuple[int, ...]]]:
        # The entries never change, so `validate` runs once per table.
        return self.validate()

    def require(self, n_players: int) -> UtilityTable:
        """This table, if it has `n_players` players and satisfies the axioms.

        Otherwise raises ValueError naming the wrong size or the first
        violated axiom.
        """
        self.check_size(self.n_players, n_players)
        violations = self._violations
        if violations:
            kind, player = violations[0][:2]
            raise ValueError(
                f"utility table violates {kind} for player {player} "
                f"({len(violations)} violations total)"
            )
        return self


def canonical_table(n_players: int = 3) -> UtilityTable:
    """The running example: u_only=2, u_all=1, u_none=0."""
    return UtilityTable.from_scalars(2.0, 1.0, 0.0, n_players)
