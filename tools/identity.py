"""Check that two source trees run the message-level exchanges byte-identically.

    python tools/identity.py PARENT_DIR CHANGE_DIR

Each directory is a checkout whose `src/ratshare` is imported under its
own package name (through `tools/ab.py`'s `load_tree`), so both trees
live in this process side by side.  Each tree runs the same exchanges
through its public `run_mechanism`, `lift_m_of_n` and `lift_2_of_n`: the
3-ring, m-of-n for every 3 <= m <= n in 4..7, and 2-of-n for n in 3..6.
Each exchange runs honest; with every registry deviation at each leader;
with a leader that forges the first item it broadcasts, and with one whose
payload becomes None; with all coins heads and each leader in turn
withholding; and with `WithholdFromLeader` at each forwarder that leads no
group.  Each 2-of-n exchange also runs honest with a forged split
(`forge_subshare_for_player_3`): holder 1's piece to player 3 has its value
moved by one, so its tag fails, and the run is not held to the honest-play
invariants.  Every profile runs at alpha 0.5 and 0.9, trials 0-2 (an int secret
at trial 1, `FieldElement(5, 101)` otherwise), cap 30, with `record` on and
off.  An exchange's leaders and forwarders are read from its honest run.

Per run the script hashes the outcome with its transcripts (payloads as
`transcript._payload_record` writes them) or the error the run raised,
each player's `vars(state)` in key order, the leaders, and the number of
`verify_tag` calls.  It prints one SHA-256 per tree over all runs and exits
1 if they differ; a directory without `src/ratshare` exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ab import load_tree  # noqa: E402

SIDES = ("parent", "change")
ALPHAS = (0.5, 0.9)
TRIALS = 3
CAP = 30
SEED = 1
FORGED_SPLIT = "forge_subshare_for_player_3"


def _exchanges(mods):
    """(name, run) per exchange; `run(secret, alpha, profile, **kw)` calls the public entry."""
    engine, lifts = mods.engine, mods.lifts
    yield "3-ring", engine.run_mechanism
    for n in range(4, 8):
        for m in range(3, n + 1):
            yield f"{m}-of-{n}", (lambda secret, alpha, profile, m=m, n=n, **kw:
                                  lifts.lift_m_of_n(secret, m, n, alpha, profile, **kw))
    for n in range(3, 7):
        yield f"2-of-{n}", (lambda secret, alpha, profile, n=n, **kw:
                            lifts.lift_2_of_n(secret, n, alpha, profile, **kw))


def _payload_strategies(mods):
    """A leader that forges the first item it broadcasts, and one that sends nothing."""
    strategies, shamir = mods.strategies, mods.shamir

    class ForgeFirstItem(strategies.HonestStrategy):
        honest_rules = False

        def broadcast_payload(self, state, payload):
            items = payload if isinstance(payload, tuple) else (payload,)
            item = items[0]
            field = "y" if isinstance(item, shamir.Share) else "value"
            v = getattr(item, field)
            forged = dataclasses.replace(
                item, **{field: shamir.FieldElement((v.value + 1) % v.modulus, v.modulus)}
            )
            return (forged, *items[1:]) if isinstance(payload, tuple) else forged

    class SendNothing(strategies.HonestStrategy):
        honest_rules = False

        def broadcast_payload(self, state, payload):
            return None

    return ForgeFirstItem, SendNothing


def _profiles(mods, leaders, forwarders):
    """Every deviating profile an exchange runs, each a function making it afresh."""
    s = mods.strategies
    forge, send_nothing = _payload_strategies(mods)
    for name, deviation in s.DEVIATIONS.items():
        for leader in leaders:
            make = (lambda: s.BiasedCoin(1.0)) if name == "biased-coin" else deviation
            yield lambda leader=leader, make=make: {leader: make()}
    for make in (forge, send_nothing):
        for leader in leaders:
            yield lambda leader=leader, make=make: {leader: make()}
    for withholder in leaders:
        yield lambda withholder=withholder: {
            leader: s.ForcedCoins([(1, 0)] * CAP,
                                  s.WithholdShare() if leader == withholder else None)
            for leader in leaders
        }
    for forwarder, _ in forwarders:
        yield lambda forwarder=forwarder: {forwarder: s.WithholdFromLeader()}


def _forging_split(split, shamir):
    """`split_subshares` with holder 1's piece to player 3 (its index 2)
    forged; it reads only the pieces, so it fits either tree's signature."""

    def split_and_forge(self, *args, **kwargs):
        pieces = split(self, *args, **kwargs)
        return [
            dataclasses.replace(piece, value=shamir.FieldElement(
                (piece.value.value + 1) % piece.value.modulus, piece.value.modulus))
            if (piece.parent_holder, piece.index) == (1, 2) else piece
            for piece in pieces
        ]

    return split_and_forge


def _json_default(value):
    """What JSON lacks in a player's state: a set, sorted, and cheat evidence, by field."""
    if isinstance(value, set):
        return sorted(value)
    return [type(value).__name__, vars(value)]


def _outcome_record(outcome, payload_record):
    transcripts = [
        [t.iteration, t.epoch, [[m.sender, m.receiver, int(m.step), int(m.kind),
                                 payload_record(m.payload)] for m in t.messages]]
        for t in outcome.transcripts
    ]
    return [outcome.iterations, list(outcome.info), outcome.cause.name, transcripts]


def tree_digest(mods) -> tuple[str, int]:
    """The SHA-256 over every run of the set on one tree, and the number of runs."""
    engine, shamir = mods.engine, mods.shamir
    payload_record = importlib.import_module(f"{engine.__package__}.transcript")._payload_record
    exchange_cls, issuer_cls = engine.GroupedExchange, shamir.ShareIssuer
    run, verify_tag = exchange_cls.run, issuer_cls.verify_tag
    split = issuer_cls.split_subshares
    captured, verified, forging = [], [0], [False]

    def capturing_run(self):
        captured.append(self)
        if forging[0]:
            self.honest = False  # a forged piece voids all-or-nothing
        return run(self)

    def counting_verify_tag(self, item):
        verified[0] += 1
        return verify_tag(self, item)

    digest, runs = hashlib.sha256(), 0

    def run_profile(name, run_exchange, make):
        """Run one profile in every setting, hashing each run; returns the first exchange."""
        nonlocal runs
        first = None
        for alpha in ALPHAS:
            for trial in range(TRIALS):
                secret = 5 if trial == 1 else shamir.FieldElement(5, 101)
                for record in (True, False):
                    captured.clear()
                    verified[0] = 0
                    try:
                        outcome = _outcome_record(
                            run_exchange(secret, alpha, make(), seed=SEED, cap=CAP,
                                         record=record, trial=trial), payload_record)
                    except Exception as error:  # a run that raises is hashed as its error
                        outcome = ["raised", type(error).__name__, str(error)]
                    (game,) = captured
                    states = [vars(state) for state in game.states.values()]
                    line = [name, alpha, trial, record, outcome, states, game.leaders,
                            verified[0]]
                    digest.update(json.dumps(line, default=_json_default, sort_keys=True).encode()
                                  + b"\n")
                    runs += 1
                    first = first or game
        return first

    exchange_cls.run, issuer_cls.verify_tag = capturing_run, counting_verify_tag
    try:
        for name, run_exchange in _exchanges(mods):
            honest = run_profile(name, run_exchange, dict)
            for make in _profiles(mods, honest.leaders, honest.forwarders):
                run_profile(name, run_exchange, make)
            if name.startswith("2-of-"):
                issuer_cls.split_subshares, forging[0] = _forging_split(split, shamir), True
                try:
                    run_profile(f"{name} {FORGED_SPLIT}", run_exchange, dict)
                finally:
                    issuer_cls.split_subshares, forging[0] = split, False
    finally:
        exchange_cls.run, issuer_cls.verify_tag = run, verify_tag
    return digest.hexdigest(), runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent tree")
    parser.add_argument("change", type=Path, help="checkout of the changed tree")
    args = parser.parse_args(argv)

    for path in (args.parent, args.change):
        if not (path / "src" / "ratshare" / "__init__.py").is_file():
            print(f"identity: no ratshare sources at {path / 'src' / 'ratshare'}",
                  file=sys.stderr)
            return 2
    digests = []
    for path, side in zip((args.parent, args.change), SIDES):
        digest, runs = tree_digest(load_tree(path.resolve(), f"ratshare_identity_{side}"))
        print(f"{side}: {digest} over {runs} runs")
        digests.append(digest)
    if digests[0] != digests[1]:
        print("the trees differ")
        return 1
    print("the trees agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
