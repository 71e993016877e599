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
`verify_tag` calls.  Each tree's own `cli` then runs `hiding` at
`--prime 13`, `--prime 31` and `--prime 7 --n 4`, and the report's result
text, everything but [timing], counts as one more run each.  It prints
one SHA-256 per tree over all runs and exits 1 if they differ; a
directory without `src/ratshare` exits 2.  Beside each digest, outside
it, it prints the number of shares `ShareIssuer.issue_shares` built and
of random streams `engine.derive_rng` derived in the exchange runs, so
two trees that agree can still differ in the work they do.  On a second
line per tree it prints the SHA-256 of the same runs with every item's
tag blanked (set to null in its payload record), so two trees whose
tags differ but whose exchanges do not are told apart from trees that
differ in anything else: the tool then says they differ only in their
tags, and still exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import re
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
HIDING = ((13, 3), (31, 3), (7, 4))  # (prime, n) per `hiding` run
# A payload record's tag as a run's JSON line holds it: a string or a scalar.
TAG = re.compile(r'"tag": (?:"[^"]*"|[^,}\]]*)')


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
        [t.iteration, t.epoch, [[m.sender, m.receiver, int(m.step), m.kind.value,
                                 payload_record(m.payload)] for m in t.messages]]
        for t in outcome.transcripts
    ]
    return [outcome.iterations, list(outcome.info), outcome.cause.name, transcripts]


def tree_digest(mods) -> tuple[str, str, int, int, int]:
    """The SHA-256 over every run of the set on one tree and the same with
    every tag blanked, the number of runs, and the numbers of shares built
    and of streams derived by the exchange runs."""
    engine, shamir = mods.engine, mods.shamir
    payload_record = importlib.import_module(f"{engine.__package__}.transcript")._payload_record
    exchange_cls, issuer_cls = engine.GroupedExchange, shamir.ShareIssuer
    run, verify_tag = exchange_cls.run, issuer_cls.verify_tag
    split, issue_shares = issuer_cls.split_subshares, issuer_cls.issue_shares
    derive_rng = engine.derive_rng
    captured, verified, built, derived, forging = [], [0], [0], [0], [False]

    def capturing_run(self):
        captured.append(self)
        if forging[0]:
            self.honest = False  # a forged piece voids all-or-nothing
        return run(self)

    def counting_verify_tag(self, item):
        verified[0] += 1
        return verify_tag(self, item)

    def counting_issue_shares(self, *args, **kwargs):
        shares = issue_shares(self, *args, **kwargs)
        built[0] += len(shares)
        return shares

    def counting_derive_rng(*path):
        derived[0] += 1
        return derive_rng(*path)

    digest, blanked, runs = hashlib.sha256(), hashlib.sha256(), 0

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
                    text = json.dumps(line, default=_json_default, sort_keys=True) + "\n"
                    digest.update(text.encode())
                    blanked.update(TAG.sub('"tag": null', text).encode())
                    runs += 1
                    first = first or game
        return first

    exchange_cls.run, issuer_cls.verify_tag = capturing_run, counting_verify_tag
    issuer_cls.issue_shares, engine.derive_rng = counting_issue_shares, counting_derive_rng
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
        issuer_cls.issue_shares, engine.derive_rng = issue_shares, derive_rng
    cli = mods.cli
    for prime, n in HIDING:
        args = cli.build_parser().parse_args(["hiding", "--prime", str(prime), "--n", str(n)])
        text = cli.run_command(args).result_text().encode()
        digest.update(text)
        blanked.update(text)
        runs += 1
    return digest.hexdigest(), blanked.hexdigest(), runs, built[0], derived[0]


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
        digest, blanked, runs, built, derived = tree_digest(
            load_tree(path.resolve(), f"ratshare_identity_{side}"))
        print(f"{side}: {digest} over {runs} runs, {built} shares built, {derived} streams derived")
        print(f"{side} with tags blanked: {blanked}")
        digests.append((digest, blanked))
    (parent, parent_blanked), (change, change_blanked) = digests
    if parent == change:
        print("the trees agree")
        return 0
    print("the trees differ only in their tags" if parent_blanked == change_blanked
          else "the trees differ")
    return 1


if __name__ == "__main__":
    sys.exit(main())
