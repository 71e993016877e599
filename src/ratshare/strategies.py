"""Player strategies and the who-learned utility model.

A strategy is a decision rule from a player's local view (its own coins,
the bits and shares it has received, the shares it holds) to the action
of the current step.  Strategies can only read the LocalState they are
handed, so locality is structural: nothing about other players' private
coins is reachable from here.  A decision is a DecisionKind: who
learned is the exchange's call (`engine.GroupedExchange._learned`).

Utilities depend only on the terminal info vector (which players learned
the secret).  A UtilityTable stores one payoff per info vector per
player and is validated against three axioms: payoffs are a function of
the info vector alone, every learning outcome strictly beats every
non-learning outcome, and lowering any other player's bit strictly
raises one's payoff.  `UtilityTable.require(n)` is the one check every
consumer runs: the player count it needs, then the axioms.  The size rule
is `UtilityTable.check_size`, which `from_doc` also runs before it
expands a document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from random import Random

from .protocol import (
    CoinTriple,
    DecisionKind,
    broadcast_rule,
    masked_bit_rule,
    restart_rule,
)

# --- local state -------------------------------------------------------------


@dataclass(frozen=True)
class CheatEvidence:
    kind: str
    iteration: int
    step: int
    about: int | None = None
    detail: str = ""


@dataclass
class LocalState:
    """Everything one player has observed; append-only across iterations."""

    player: int
    iteration: int = 0
    epoch: int = -1
    coins: CoinTriple | None = None
    bit_from_pred: int | None = None
    bit_from_succ: int | None = None
    masked_from_succ: int | None = None
    parity: int | None = None
    own_payload: object = None
    broadcast_own: bool = False
    observed_broadcasts: set[int] = field(default_factory=set)
    holdings: dict[int, dict[object, object]] = field(default_factory=dict)
    cheat_evidence: list[CheatEvidence] = field(default_factory=list)

    @property
    def observed_count(self) -> int:
        """Distinct valid broadcasts seen this iteration, own iff sent."""
        return len(self.observed_broadcasts)

    def begin_iteration(self, iteration: int, epoch: int) -> None:
        self.iteration = iteration
        self.epoch = epoch
        self.coins = None
        self.bit_from_pred = None
        self.bit_from_succ = None
        self.masked_from_succ = None
        self.parity = None
        self.own_payload = None
        self.broadcast_own = False
        self.observed_broadcasts = set()
        self.holdings.setdefault(epoch, {})

    def add_holding(self, epoch: int, key: object, item: object) -> None:
        self.holdings.setdefault(epoch, {})[key] = item


# --- strategies --------------------------------------------------------------


class Strategy:
    """Decision rule: (LocalState, randomness) -> action for the current step."""

    name = "strategy"
    # True when the strategy follows the recommended message rules (possibly
    # with different coin distributions), so parity-agreement and
    # all-or-nothing invariants are expected to hold.
    honest_rules = True

    def coins(self, state: LocalState, rng: Random, alpha: float) -> CoinTriple | None:
        raise NotImplementedError

    def masked_bit(self, state: LocalState, rng: Random) -> int | None:
        raise NotImplementedError

    def wants_broadcast(self, state: LocalState, rng: Random) -> bool:
        raise NotImplementedError

    def decide(self, state: LocalState, rng: Random) -> DecisionKind:
        raise NotImplementedError

    def forwards_to_leader(self, state: LocalState, rng: Random) -> bool:
        """Group lifts only: forward the own share/bundle to the group leader."""
        return True


class HonestStrategy(Strategy):
    """The recommended strategy: randomize only in the coin choice."""

    name = "honest"
    honest_rules = True

    def coin_bias(self, alpha: float) -> float:
        """Probability that this player's send-intent coin is 1."""
        return alpha

    def coins(self, state: LocalState, rng: Random, alpha: float) -> CoinTriple:
        c = 1 if rng.random() < self.coin_bias(alpha) else 0
        return CoinTriple.make(c, rng.getrandbits(1))

    def masked_bit(self, state: LocalState, rng: Random) -> int | None:
        return masked_bit_rule(state.bit_from_succ, state.coins.c)

    def wants_broadcast(self, state: LocalState, rng: Random) -> bool:
        return broadcast_rule(state.parity, state.coins.c if state.coins else None)

    def decide(self, state: LocalState, rng: Random) -> DecisionKind:
        return DecisionKind.RESTART if restart_rule(state.parity, state.observed_count) else DecisionKind.STOP


class WithholdShare(HonestStrategy):
    """Never broadcast, even when parity and the own coin are both 1."""

    name = "withhold"
    honest_rules = False

    def wants_broadcast(self, state: LocalState, rng: Random) -> bool:
        return False


class BiasedCoin(HonestStrategy):
    """Honest play with the send-intent coin drawn at a different bias."""

    name = "biased-coin"
    honest_rules = True

    def __init__(self, alpha_prime: float):
        if alpha_prime is None or not 0 < alpha_prime <= 1:
            raise ValueError(f"biased coin needs alpha' in (0, 1], got {alpha_prime}")
        self.alpha_prime = alpha_prime

    def coin_bias(self, alpha: float) -> float:
        return self.alpha_prime


class GarbleStep2(HonestStrategy):
    """Flip the forwarded masked bit, corrupting the predecessor's parity."""

    name = "garble-step2"
    honest_rules = False

    def masked_bit(self, state: LocalState, rng: Random) -> int:
        return super().masked_bit(state, rng) ^ 1


class AlwaysSilent(HonestStrategy):
    """Send nothing at any step."""

    name = "always-silent"
    honest_rules = False

    def coins(self, state: LocalState, rng: Random, alpha: float) -> None:
        return None

    def masked_bit(self, state: LocalState, rng: Random) -> None:
        return None

    def wants_broadcast(self, state: LocalState, rng: Random) -> bool:
        return False

    def decide(self, state: LocalState, rng: Random) -> DecisionKind:
        return DecisionKind.STOP


class AlwaysBroadcast(HonestStrategy):
    """Broadcast the share every iteration regardless of parity."""

    name = "always-broadcast"
    honest_rules = False

    def wants_broadcast(self, state: LocalState, rng: Random) -> bool:
        return True


class WithholdFromLeader(HonestStrategy):
    """Group lifts: never forward the own share to the group leader."""

    name = "withhold-from-leader"
    honest_rules = False

    def forwards_to_leader(self, state: LocalState, rng: Random) -> bool:
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
        self.name = f"forced+{self.inner.name}"

    def coins(self, state: LocalState, rng: Random, alpha: float) -> CoinTriple | None:
        triple = self.inner.coins(state, rng, alpha)
        if triple is None or state.iteration > len(self.script):
            return triple
        return CoinTriple.make(*self.script[state.iteration - 1])

    def masked_bit(self, state: LocalState, rng: Random) -> int | None:
        return self.inner.masked_bit(state, rng)

    def wants_broadcast(self, state: LocalState, rng: Random) -> bool:
        return self.inner.wants_broadcast(state, rng)

    def decide(self, state: LocalState, rng: Random) -> DecisionKind:
        return self.inner.decide(state, rng)

    def forwards_to_leader(self, state: LocalState, rng: Random) -> bool:
        return self.inner.forwards_to_leader(state, rng)


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
        raise ValueError(f"unknown deviation {name!r}")
    if name != "biased-coin":
        if param:
            raise ValueError(f"deviation {name!r} takes no parameter")
        return name, None
    return name, float(param) if param else 1.0


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
        raise ValueError(f"unknown deviation {name!r}")
    if deviator not in (1, 2, 3):
        raise ValueError("deviator must be one of players 1..3")
    return {deviator: BiasedCoin(alpha_prime) if name == "biased-coin" else DEVIATIONS[name]()}


# --- info vectors and utilities ----------------------------------------------


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


@dataclass
class UtilityTable:
    """Per-player payoffs keyed by info vector.

    Keying by the info vector alone bakes in the first axiom; validation
    checks the two strict-preference axioms.
    """

    n_players: int
    payoffs: tuple[dict[tuple[int, ...], float], ...]

    def payoff(self, player: int, info: tuple[int, ...]) -> float:
        try:
            return self.payoffs[player - 1][tuple(info)]
        except KeyError:
            raise ValueError(f"missing vector entry {info_key(info)} for player {player}") from None

    def u_only(self, player: int) -> float:
        vec = tuple(1 if i == player else 0 for i in range(1, self.n_players + 1))
        return self.payoff(player, vec)

    def u_all(self, player: int) -> float:
        return self.payoff(player, (1,) * self.n_players)

    def u_none(self, player: int) -> float:
        return self.payoff(player, (0,) * self.n_players)

    @classmethod
    def from_scalars(
        cls, u_only: float, u_all: float, u_none: float, n_players: int = 3
    ) -> "UtilityTable":
        """Expand the three canonical scalars into a full symmetric table.

        Payoffs fall linearly in the number of other learners, from u_only
        down to u_all while learning and from u_none downward while not;
        both slopes are strictly positive exactly when u_only > u_all >
        u_none, so the expansion satisfies the axioms iff the scalars are
        ordered.
        """
        if n_players < 2:
            raise ValueError(f"scalar utilities need at least 2 players, got {n_players}")
        step_learn = (u_only - u_all) / (n_players - 1)
        step_miss = (u_all - u_none) / (n_players - 1)
        tables = []
        for player in range(1, n_players + 1):
            entries = {}
            for vec in all_info_vectors(n_players):
                others = sum(vec) - vec[player - 1]
                if vec[player - 1]:
                    entries[vec] = u_only - others * step_learn
                else:
                    entries[vec] = u_none - others * step_miss
            tables.append(entries)
        return cls(n_players=n_players, payoffs=tuple(tables))

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
                    entries[vec] = float(value)
                tables.append(entries)
            return cls(n_players=n, payoffs=tuple(tables))
        try:
            return cls.from_scalars(
                float(doc["u_only"]), float(doc["u_all"]), float(doc["u_none"]), n
            )
        except KeyError as missing:
            raise ValueError(f"utility document needs payoffs or scalar aliases ({missing})")

    def to_doc(self) -> dict:
        return {
            "players": self.n_players,
            "payoffs": {
                str(player): {info_key(vec): value for vec, value in table.items()}
                for player, table in enumerate(self.payoffs, start=1)
            },
        }

    def validate(self) -> list[tuple[str, int, tuple[int, ...], tuple[int, ...]]]:
        """Violated (axiom, player, vector, vector) tuples, empty iff the axioms hold."""
        violations = []
        vectors = all_info_vectors(self.n_players)
        for player in range(1, self.n_players + 1):
            values = {vec: self.payoff(player, vec) for vec in vectors}
            i = player - 1
            learning = [v for v in vectors if v[i] == 1]
            missing = [v for v in vectors if v[i] == 0]
            for r in learning:
                for r2 in missing:
                    if not values[r] > values[r2]:
                        violations.append(("U2", player, r, r2))
            # Strict monotonicity on adjacent pairs (one other bit lowered);
            # the general comparisons follow by chaining.
            for vec in vectors:
                for j in range(self.n_players):
                    if j == i or vec[j] == 0:
                        continue
                    lowered = tuple(0 if k == j else b for k, b in enumerate(vec))
                    if not values[lowered] > values[vec]:
                        violations.append(("U3", player, lowered, vec))
        return violations

    def require(self, n_players: int) -> UtilityTable:
        """This table, if it has `n_players` players and satisfies the axioms.

        Otherwise raises ValueError naming the wrong size or the first
        violated axiom.
        """
        self.check_size(self.n_players, n_players)
        violations = self.validate()
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
