"""Every tag the engine judges in a recorded run, judged again by the linear rule.

The runs are a subset of `tools/identity.py`'s set, fixed before any of
them was read: the 3-ring, the 3-of-4 lift and the 2-of-4 lift, each at
alpha 0.5 and 0.9, trials 0-2 (an int secret at trial 1,
`FieldElement(5, 101)` otherwise), seed 1, cap 30, recorded.  The
profiles are a leader that forges the first item it broadcasts and one
that sends nothing, one run per leader, and for 2-of-4 an honest run
whose split forges holder 1's piece to player 3.

Every item a player is handed is judged here: a split piece (its holder's
pieces go to the other players, in player order), an item forwarded to
its leader, or an item of a broadcast.  The oracle is the one-time MAC
the `shamir` module defines, computed without `ShareIssuer`: each epoch's
keys (a, b_slot) are re-derived by `test_shamir.KeyOracle` from
`Random(derive_bytes(seed, trial, "issuer-key"))` in the documented draw
order, one epoch per iteration from epoch 0, for the slots an epoch opens
(the designated holders 1..m of an m-of-n exchange, and the pieces
(holder, index) of holders 1 and 2 of a 2-of-n one), and an item is
accepted iff its tag is (a*v + b_slot) mod p for its epoch.  Each
receiver's `invalid-tag` evidence must be the items the oracle
rejects, one entry each, dated and attributed to the sender; its holdings
at the end of the iteration must hold every item the oracle accepts, and
the key of a rejected item only if an accepted item or its own share
gives it that key.
"""

import copy
import dataclasses
from collections import Counter

import pytest
from test_shamir import KeyOracle

from ratshare.engine import MOfNExchange, holding_key, item_key
from ratshare.lifts import TwoOfNExchange, partition_players
from ratshare.protocol import MessageKind, Step
from ratshare.seeding import derive_bytes
from ratshare.shamir import FieldElement, Share
from ratshare.strategies import HonestStrategy, LocalState

SEED, CAP = 1, 30
ALPHAS = (0.5, 0.9)
TRIALS = range(3)
GROUPS = {
    "3-ring": [[1], [2], [3]],
    "3-of-4": partition_players(4, 3),
    "2-of-4": partition_players(4, 4),
}


# The slots each epoch of an exchange opens.
SLOTS = {
    "3-ring": [1, 2, 3],
    "3-of-4": [1, 2, 3],
    "2-of-4": [(holder, k) for holder in (1, 2) for k in range(1, 4)],
}


def epoch_oracles(name: str, trial: int, p: int, epochs: int) -> dict:
    """A `KeyOracle` per epoch 0..epochs-1 of a run, holding that epoch's keys."""
    oracle, by_epoch = KeyOracle(derive_bytes(SEED, trial, "issuer-key"), p), {}
    for epoch in range(epochs):
        oracle.open(epoch, SLOTS[name])
        by_epoch[epoch] = copy.copy(oracle)
    return by_epoch


def _bumped(item):
    """`item` with its value moved by one: its tag no longer fits."""
    field = "y" if isinstance(item, Share) else "value"
    v = getattr(item, field)
    return dataclasses.replace(item, **{field: FieldElement((v.value + 1) % v.modulus, v.modulus)})


class ForgeFirstItem(HonestStrategy):
    honest_rules = False

    def broadcast_payload(self, state, payload):
        if isinstance(payload, tuple):
            return (_bumped(payload[0]), *payload[1:])
        return _bumped(payload)


class SendNothing(HonestStrategy):
    honest_rules = False

    def broadcast_payload(self, state, payload):
        return None


CASES = [
    (exchange, profile, group[0])
    for exchange, groups in GROUPS.items()
    for profile in ("forge-first", "send-nothing")
    for group in groups
] + [("2-of-4", "forged-split", None)]


def _exchange(name, profile, leader, alpha, trial):
    strategy = {"forge-first": ForgeFirstItem, "send-nothing": SendNothing}.get(profile)
    kw = dict(alpha=alpha, profile={leader: strategy()} if strategy else None,
              seed=SEED, trial=trial, cap=CAP, record=True)
    secret = 5 if trial == 1 else FieldElement(5, 101)
    if name == "2-of-4":
        return TwoOfNExchange(secret, 4, **kw)
    return MOfNExchange(secret, GROUPS[name], len(GROUPS[name]), **kw)


def _record_splits(game, forge: bool) -> list:
    """Wrap `game`'s split so it keeps (epoch, holder, pieces) of each call,
    with holder 1's piece of index 2 (player 3's) forged if `forge`."""
    splits, split = [], game.issuer.split_subshares

    def recording_split(point, count, rng):
        pieces = split(point, count, rng)
        if forge and point[0] == 1:
            pieces[1] = _bumped(pieces[1])
        splits.append((point[2], point[0], pieces))
        return pieces

    game.issuer.split_subshares = recording_split
    return splits


def _deliveries(game, outcome, splits):
    """(iteration, sender, receiver, item) of every item a player was handed."""
    iteration_of = {t.epoch: t.iteration for t in outcome.transcripts}
    for epoch, holder, pieces in splits:
        others = [p for p in game.players if p != holder]
        for receiver, piece in zip(others, pieces):
            yield iteration_of[epoch], holder, receiver, piece
    for t in outcome.transcripts:
        # A player that aborted this iteration takes no broadcast.
        aborted = {p for p, state in game.states.items()
                   if any(e.kind == "missing-bit" and e.iteration == t.iteration
                          for e in state.cheat_evidence)}
        for m in t.messages:
            if m.kind != MessageKind.SHARE_BROADCAST:
                continue
            if m.step == Step.BROADCAST and m.receiver in aborted:
                continue
            items = m.payload if isinstance(m.payload, tuple) else (m.payload,)
            for item in items:
                if isinstance(item, game.item_type) and item.epoch == t.epoch:
                    yield t.iteration, m.sender, m.receiver, item


@pytest.mark.parametrize("exchange, profile, leader", CASES)
def test_invalid_tag_evidence_and_holdings_follow_an_hmac_oracle(
    exchange, profile, leader, monkeypatch
):
    # Each player's holdings as each iteration ends, keyed (player, iteration).
    held = {}
    begin_iteration = LocalState.begin_iteration

    def keep_holdings(self, iteration):
        held[self.player, self.iteration] = set(self.holdings)
        begin_iteration(self, iteration)

    monkeypatch.setattr(LocalState, "begin_iteration", keep_holdings)
    rejected_in_all = 0
    for alpha in ALPHAS:
        for trial in TRIALS:
            held.clear()
            game = _exchange(exchange, profile, leader, alpha, trial)
            if profile == "forged-split":
                game.honest = False  # a forged piece voids all-or-nothing
            splits = _record_splits(game, profile == "forged-split") if exchange == "2-of-4" else []
            outcome = game.run()
            for p, state in game.states.items():
                held[p, state.iteration] = state.holdings

            oracles = epoch_oracles(exchange, trial, game.secret.modulus, outcome.iterations)
            expected, accepted, rejected = Counter(), set(), []
            for iteration, sender, receiver, item in _deliveries(game, outcome, splits):
                if oracles[item.epoch].accepts(item):
                    accepted.add((receiver, iteration, holding_key(item)))
                else:
                    expected[receiver, iteration, sender] += 1
                    rejected.append((receiver, iteration, holding_key(item)))
            found = Counter(
                (p, e.iteration, e.about)
                for p, state in game.states.items()
                for e in state.cheat_evidence if e.kind == "invalid-tag"
            )
            assert found == expected, (alpha, trial)
            for receiver, iteration, item_held in accepted:
                assert item_held in held[receiver, iteration], (alpha, trial)
            for receiver, iteration, item_held in rejected:
                assert (item_held not in held[receiver, iteration]
                        or (receiver, iteration, item_held) in accepted
                        or item_held == item_key(receiver)), (alpha, trial)
            rejected_in_all += len(rejected)
    # The forging profiles hand players items the oracle rejects; the others do not.
    assert (rejected_in_all > 0) == (profile != "send-nothing")
