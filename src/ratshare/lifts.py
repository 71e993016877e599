"""Group lifts: larger thresholds and player counts on top of the 3-ring.

For m-of-n (m >= 3, n > 3) the players are partitioned into three
contiguous groups, players 1..m are designated, and each group's first
player, a designated one, leads it.  An epoch draws its polynomial when
it is issued, and builds a designated player's share only as that player
sends it: a forwarder as it forwards, a leader as it broadcasts, so a
leader that is forwarded to but never broadcasts builds none.  Each of
players m+1..n holds just its own share's key, which counts toward the
threshold once m-1 broadcast shares arrive.
Designated players forward their shares to their leader; the three
leaders then run the coin mechanism, broadcasting their whole group
bundle to every player when they would broadcast a share.  A leader whose
bundle is incomplete asks the issuer to restart before any coins are
tossed, so a designated player that withholds from its leader stalls the
run forever (cap hit) without learning anything itself.

For 2-of-n (n >= 3) the two shareholders split their shares into n-1
additive subshares, spread them so the originals hold one foreign
subshare each and everyone else holds two, and the n players run the
grouped n-of-n exchange with subshare bundles as payloads; the holders keep
their own share's key, and the pieces travel in bundles.  A holder's share
is only ever split, never sent, so an epoch builds no share: it evaluates
its polynomial at the two holders and splits those values, tagging only
the pieces, and every piece is checked as it is handed out.  The pieces
stay eager: a recorded run writes every forwarded bundle, so pieces built
only when read would make a forged piece's evidence depend on `record`.
2-of-2 is rejected: with nobody else to hold the exchange hostage, no coin
bias makes honesty an equilibrium.
"""

from __future__ import annotations

from .engine import (
    DEFAULT_CAP,
    GroupedExchange,
    MOfNExchange,
    item_key,
)
from .protocol import RunOutcome

# issue_round, derive_bytes and derive_rng are unused here but stay
# importable: bench/tracer.py patches lifts.issue_round, lifts.derive_bytes
# and lifts.derive_rng by name.
from .engine import issue_round  # noqa: F401
from .seeding import derive_bytes, derive_rng  # noqa: F401
from .shamir import FieldElement, Subshare, require_points
from .strategies import LocalState, Strategy


def partition_players(n: int, m: int) -> list[list[int]]:
    """Split players 1..n into three contiguous groups, each led by its first player.

    Groups are as equal as possible subject to each containing at least one
    designated player (1..m): minimize the largest group, then the size
    spread, then take the lexicographically first boundary pair.  The
    groups are contiguous, so a group's first player is its lowest-indexed
    designated one, its leader.
    """
    if m < 3:
        raise ValueError("need at least 3 designated players to fill 3 groups")
    if n < 3:
        raise ValueError("need at least 3 players")
    # Boundaries (2, 3) are admissible whenever m, n >= 3, so `best` is set.
    best_key = None
    for s2 in range(2, n):
        for s3 in range(s2 + 1, min(m, n) + 1):
            sizes = (s2 - 1, s3 - s2, n - s3 + 1)
            key = (max(sizes), sum(x * x for x in sizes), s2, s3)
            if best_key is None or key < best_key:
                best_key, best = key, (s2, s3)
    s2, s3 = best
    return [list(range(1, s2)), list(range(s2, s3)), list(range(s3, n + 1))]


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
    game = MOfNExchange(
        secret,
        partition_players(n, m),
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
    """n-of-n subshare exchange realizing 2-of-n sharing.

    An epoch draws its coefficient and the tag keys of its 2(n-1) pieces,
    evaluates it at the two holders, and splits each value into n-1 tagged
    pieces, one per other player, with no `Share` built; `_deliver` judges
    each holder's pieces in one call.
    """

    holders = (1, 2)

    def __init__(self, secret, n, **kw):
        super().__init__(secret, partition_players(n, n), 2, **kw)
        require_points(len(self.holders), self.secret.modulus)
        # The holding keys of each holder's share and of its n-1 subshares.
        self.holder_keys = [
            (parent, item_key(parent), {item_key(parent, k) for k in range(1, n)})
            for parent in self.holders
        ]
        self.piece_slots = tuple((parent, k) for parent in self.holders for k in range(1, n))
        # Each holder's pieces go to the other players, in player order.
        self.recipients = [[p for p in self.players if p != holder] for holder in self.holders]

    def _learned(self, state: LocalState) -> bool:
        """All n-1 subshares of each holder's share in one epoch; a holder's own share will do."""
        if state.learned_earlier:
            return True
        keys = state.holdings
        for parent, share_key, sub_keys in self.holder_keys:
            if not (keys >= sub_keys or (parent == state.player and share_key in keys)):
                return False
        return True

    def _issue_epoch(self, epoch: int) -> None:
        issuer, rng = self.issuer, self.issuer_rng
        ys = issuer.evaluate(self.secret, issuer.draw_coefficients(2, rng), self.holders)
        issuer.open_epoch(epoch, self.piece_slots)
        # Each holder splits its share's value into n-1 subshares, one per
        # other player; receivers check the tag and treat bad pieces as
        # missing.  A player's bundle is the pieces it kept, in holder order.
        self.bundles = {p: [] for p in self.players}
        for (holder, share_key, _), y, recipients in zip(self.holder_keys, ys, self.recipients):
            self.states[holder].holdings.add(share_key)
            subs = issuer.split_subshares((holder, y, epoch), self.n - 1, rng)
            self._deliver(holder, subs, epoch, recipients, each=True)

    def _forwarders(self):
        return self.players

    item_type = Subshare
    stale_evidence = "stale-subshare"


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
