"""Group lifts: larger thresholds and player counts on top of the 3-ring.

For m-of-n (m >= 3, n > 3) the players are partitioned into three groups,
players 1..m are designated, and the lowest-indexed designated player of
each group leads it.  Designated players forward their shares to their
leader; the three leaders then run the coin mechanism, broadcasting their
whole group bundle to every player when they would broadcast a share.  A
leader whose bundle is incomplete asks the issuer to restart before any
coins are tossed, so a designated player that withholds from its leader
stalls the run forever (cap hit) without learning anything itself.

For 2-of-n (n >= 3) the two shareholders split their shares into n-1
additive subshares, spread them so the originals hold one foreign
subshare each and everyone else holds two, and the n players run the
grouped n-of-n exchange with subshare bundles as payloads.  2-of-2 is
rejected: with nobody else to hold the exchange hostage, no coin bias
makes honesty an equilibrium.
"""

from __future__ import annotations

from .engine import (
    DEFAULT_CAP,
    GroupedExchange,
    MOfNExchange,
    issue_round,
)
from .protocol import RunOutcome

# derive_bytes and derive_rng are unused here but stay importable:
# bench/tracer.py patches lifts.issue_round, lifts.derive_bytes and
# lifts.derive_rng by name.
from .seeding import derive_bytes, derive_rng  # noqa: F401
from .shamir import FieldElement, Subshare
from .strategies import LocalState, Strategy


def partition_players(n: int, m: int) -> tuple[list[list[int]], list[int]]:
    """Split players 1..n into three contiguous groups, leaders designated.

    Groups are as equal as possible subject to each containing at least one
    designated player (1..m): minimize the largest group, then the size
    spread, then take the lexicographically first boundary pair.  Returns
    (groups, leaders) with leaders[k] the lowest-indexed designated player
    of group k.
    """
    if m < 3:
        raise ValueError("need at least 3 designated players to fill 3 groups")
    if n < 3:
        raise ValueError("need at least 3 players")
    best_key = None
    best = None
    for s2 in range(2, n):
        for s3 in range(s2 + 1, min(m, n) + 1):
            sizes = (s2 - 1, s3 - s2, n - s3 + 1)
            key = (max(sizes), sum(x * x for x in sizes), s2, s3)
            if best_key is None or key < best_key:
                best_key, best = key, (s2, s3)
    if best is None:
        raise ValueError(f"no admissible 3-group partition for n={n}, m={m}")
    s2, s3 = best
    groups = [list(range(1, s2)), list(range(s2, s3)), list(range(s3, n + 1))]
    leaders = [min(p for p in group if p <= m) for group in groups]
    return groups, leaders


def lift_m_of_n(
    secret: FieldElement | int,
    m: int,
    n: int,
    alpha: float,
    profile: dict[int, Strategy] | None = None,
    seed: int = 0,
    *,
    cap: int = DEFAULT_CAP,
    record: bool = True,
    trial: int = 0,
) -> RunOutcome:
    """Run m-of-n sharing (m >= 3, n > 3) through the three-group lift, in the secret's field."""
    if m < 3:
        raise ValueError(f"group lift needs m >= 3, got m={m}")
    if n <= 3:
        raise ValueError(f"group lift needs n > 3, got n={n}")
    if m > n:
        raise ValueError(f"threshold m={m} cannot exceed n={n}")
    groups, leaders = partition_players(n, m)
    game = MOfNExchange(
        secret,
        groups,
        leaders,
        m,
        alpha=alpha,
        profile=profile,
        seed=seed,
        trial=trial,
        cap=cap,
        record=record,
    )
    return game.run()


class TwoOfNExchange(GroupedExchange):
    """n-of-n subshare exchange realizing 2-of-n sharing."""

    holders = (1, 2)

    def __init__(self, secret, n, **kw):
        groups, leaders = partition_players(n, n)
        super().__init__(secret, groups, leaders, 2, **kw)

    def _learned(self, state: LocalState) -> bool:
        """All n-1 subshares of each holder's share in one epoch; a holder's own share will do."""
        return any(
            all(
                (parent == state.player and ("share", parent) in items)
                or sum(key[:2] == ("sub", parent) for key in items) >= self.n - 1
                for parent in self.holders
            )
            for items in state.holdings.values()
        )

    def _issue_epoch(self, epoch: int) -> None:
        shares = issue_round(self.issuer, self.secret, 2, 2, epoch, self.issuer_rng, self.issued)
        for holder in self.holders:
            self.states[holder].add_holding(epoch, ("share", holder), shares[holder])
        # Each holder splits its share into n-1 subshares, one per other
        # player; receivers check the tag and treat bad pieces as missing.
        for holder in self.holders:
            subs = self.issuer.split_subshares(shares[holder], self.n - 1, self.issuer_rng)
            recipients = [p for p in self.players if p != holder]
            for sub, recipient in zip(subs, recipients):
                self._accept_item(self.states[recipient], holder, sub)

    def _forwarders(self):
        return self.players

    def _bundle(self, player: int, epoch: int) -> list[Subshare]:
        items = self.states[player].holdings.get(epoch, {})
        return [items[key] for key in sorted(k for k in items if k[0] == "sub")]

    item_type = Subshare
    stale_evidence = "stale-subshare"

    def _holding_key(self, item: Subshare) -> tuple:
        return ("sub", item.parent_holder, item.index)


def lift_2_of_n(
    secret: FieldElement | int,
    n: int,
    alpha: float,
    profile: dict[int, Strategy] | None = None,
    seed: int = 0,
    *,
    cap: int = DEFAULT_CAP,
    record: bool = True,
    trial: int = 0,
) -> RunOutcome:
    """Run 2-of-n sharing (n >= 3) through the subshare lift, in the secret's field."""
    if n < 3:
        raise ValueError(
            "2-of-2 exchange is not liftable: no coin bias makes honesty an "
            "equilibrium with only the two shareholders, so n >= 3 is required"
        )
    game = TwoOfNExchange(
        secret,
        n,
        alpha=alpha,
        profile=profile,
        seed=seed,
        trial=trial,
        cap=cap,
        record=record,
    )
    return game.run()
