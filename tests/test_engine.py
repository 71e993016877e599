"""The synchronous executor: issuance, message flow, decisions, termination."""

import copy
import dataclasses
from itertools import product
from random import Random

import pytest

import ratshare.engine as engine
from ratshare.engine import (
    DuplicateEpochError,
    MOfNExchange,
    holding_key,
    issue_round,
    item_key,
    run_mechanism,
)
from ratshare.lifts import TwoOfNExchange, lift_2_of_n, lift_m_of_n, partition_players
from ratshare.protocol import (
    ISSUER_ID,
    CoinTriple,
    DecisionKind,
    MessageKind,
    RoundMessage,
    RunOutcome,
    Step,
    TerminalCause,
    broadcast_rule,
    parity_rule,
    restart_rule,
)
from ratshare.seeding import derive_rng
from ratshare.shamir import FieldElement, Share, ShareIssuer, reconstruct
from ratshare.strategies import (
    DEVIATIONS,
    AlwaysBroadcast,
    AlwaysSilent,
    CheatEvidence,
    ForcedCoins,
    GarbleStep2,
    HonestStrategy,
    WithholdFromLeader,
    WithholdShare,
    deviation_profile,
)

ALL64 = [
    tuple(zip(cs, cps))
    for cs in product((0, 1), repeat=3)
    for cps in product((0, 1), repeat=3)
]


def run_ring(alpha, profile, seed, *, cap=engine.DEFAULT_CAP, record=True, trial=0):
    """The run `run_mechanism(5, ...)` makes, plus the players' final local states."""
    ring = MOfNExchange(
        5, [[1], [2], [3]], 3, alpha=alpha, profile=profile, seed=seed,
        trial=trial, cap=cap, record=record,
    )
    return ring.run(), ring.states


@pytest.mark.parametrize("record", [True, False])
def test_run_ring_is_run_mechanism(record):
    # The helper's outcome, transcripts included, is run_mechanism's.
    for name, deviator in ((None, None), ("withhold", 2), ("garble-step2", 1), ("always-silent", 3)):
        profile = deviation_profile(name, deviator)
        for trial in range(3):
            ring, _ = run_ring(0.5, profile, 11, cap=50, record=record, trial=trial)
            assert ring == run_mechanism(5, 0.5, profile, 11, cap=50, record=record, trial=trial)
            assert bool(ring.transcripts) is record


@dataclasses.dataclass
class DecodedIteration:
    """What one 3-ring iteration's messages say, by seat."""

    coins: dict  # seat -> CoinTriple, for each seat that sent both pieces
    parities: dict  # seat -> parity, for each seated player that could assemble it
    broadcasters: tuple  # senders of step-3 broadcasts, in sending order
    restarters: tuple  # senders of restart requests, in sending order
    decisions: dict  # seat -> DecisionKind, for each seated player


def decode_iteration(transcript, seated=(1, 2, 3)):
    """Decode a 3-ring iteration from its messages alone.

    `seated` are the players still at the ring.  A seated player that
    missed a coin piece or the masked bit aborted; of the rest, those that
    asked for a restart restarted and the others stopped.
    """
    sent = {(m.kind, m.sender, m.receiver): m.payload for m in transcript.messages}
    coins, parities, decisions = {}, {}, {}
    for pid in (1, 2, 3):
        succ, pred = pid % 3 + 1, (pid - 2) % 3 + 1
        c_plus = sent.get((MessageKind.COIN_PLUS, pid, succ))
        c_minus = sent.get((MessageKind.COIN_MINUS, pid, pred))
        if c_plus is not None and c_minus is not None:
            coins[pid] = CoinTriple(c_plus ^ c_minus, c_plus, c_minus)
    restarters = tuple(
        m.sender for m in transcript.messages if m.kind == MessageKind.RESTART_REQUEST
    )
    for pid in seated:
        succ, pred = pid % 3 + 1, (pid - 2) % 3 + 1
        from_pred = sent.get((MessageKind.COIN_PLUS, pred, pid))
        from_succ = sent.get((MessageKind.COIN_MINUS, succ, pid))
        masked = sent.get((MessageKind.MASKED_BIT, succ, pid))
        if pid in coins and from_pred is not None and masked is not None:
            parities[pid] = parity_rule(from_pred, masked, coins[pid].c)
        if from_pred is None or from_succ is None or masked is None:
            decisions[pid] = DecisionKind.ABORT
        else:
            decisions[pid] = DecisionKind.RESTART if pid in restarters else DecisionKind.STOP
    broadcasters = tuple(dict.fromkeys(
        m.sender for m in transcript.messages
        if m.kind == MessageKind.SHARE_BROADCAST and m.step == Step.BROADCAST
    ))
    return DecodedIteration(coins, parities, broadcasters, restarters, decisions)


def forced_profile(assignment, inner=None):
    """One-iteration coin script per player, repeated if the run restarts."""
    inner = inner or {}
    return {
        pid: ForcedCoins([assignment[pid - 1]] * 4, inner.get(pid))
        for pid in (1, 2, 3)
    }


# --- issuance ----------------------------------------------------------------


def _issue_all(issuer, secret, m, epoch, rng):
    """Every designated holder's `issue_round` bundle of one freshly drawn
    polynomial, in a newly opened epoch."""
    coefficients = issuer.draw_coefficients(m, rng)
    issuer.open_epoch(epoch, range(1, m + 1))
    return {holder: issue_round(issuer, secret, epoch, coefficients, holder)
            for holder in range(1, m + 1)}


def test_issue_round_shape():
    issuer = ShareIssuer(b"k", modulus=13)
    bundles = _issue_all(issuer, FieldElement(5, 13), 3, 0, Random(0))
    assert sorted(bundles) == [1, 2, 3]
    assert all(len(bundle) == 1 for bundle in bundles.values())
    shares = {pid: bundle[0] for pid, bundle in bundles.items()}
    assert all(issuer.verify_tag(s) for s in shares.values())
    assert all(s.holder == pid for pid, s in shares.items())


def test_issue_round_fresh_polynomial_per_epoch():
    issuer = ShareIssuer(b"k", modulus=101)
    rng = Random(1)
    first = [b[0] for b in _issue_all(issuer, FieldElement(55, 101), 3, 0, rng).values()]
    second = [b[0] for b in _issue_all(issuer, FieldElement(55, 101), 3, 1, rng).values()]
    assert [s.y.value for s in first] != [s.y.value for s in second]
    assert reconstruct(first, 3).value == 55
    assert reconstruct(second, 3).value == 55


@pytest.mark.parametrize("m, n", [(3, 3), (3, 6), (4, 5)], ids=["3-ring", "3-of-6", "4-of-5"])
def test_building_an_epochs_shares_draws_nothing(m, n):
    # An epoch's randomness, its polynomial and its tag keys, is drawn when
    # it is issued.  Its shares are built later, as each designated player
    # sends, and the order in which they send changes neither the shares
    # nor the issuer's streams.
    built = []
    for order in (range(1, m + 1), range(m, 0, -1)):
        game = MOfNExchange(5, partition_players(n, m), m, alpha=0.5, profile=None, seed=7,
                            trial=0, cap=1, record=False)
        game._issue_epoch(0)
        issued, keys = game.issuer_rng.getstate(), game.issuer._keys.getstate()
        bundles = {}
        for p in order:
            bundles[p] = game._sends(p)
            assert [share.holder for share in bundles[p]] == [p]
            assert game.issuer_rng.getstate() == issued, p
            assert game.issuer._keys.getstate() == keys, p
        built.append(bundles)
    assert built[0] == built[1]


@pytest.mark.parametrize("exchange", ["3-ring-alpha-1", "3-ring-all-tails", "3-of-6", "2-of-4"])
def test_a_second_run_is_refused_before_it_touches_anything(exchange):
    # Every run starts at epoch 0, so a second run of one exchange would
    # issue its first epoch again.  It is refused before any state is reset
    # or any draw is made: after one epoch (alpha 1, so issued is 0), after
    # several in which no share was ever built (all tails to the cap), and
    # on both lifts.
    kw = dict(alpha=0.5, profile=None, seed=3, trial=0, cap=5, record=False)
    if exchange == "3-ring-alpha-1":
        game = MOfNExchange(5, [[1], [2], [3]], 3, **{**kw, "alpha": 1.0})
    elif exchange == "3-ring-all-tails":
        tails = {pid: ForcedCoins([(0, 0)] * 5) for pid in (1, 2, 3)}
        game = MOfNExchange(5, [[1], [2], [3]], 3, **{**kw, "profile": tails})
    elif exchange == "3-of-6":
        game = MOfNExchange(5, partition_players(6, 3), 3, **kw)
    else:
        game = TwoOfNExchange(5, 4, **kw)
    first = game.run()
    assert game.issued == first.iterations - 1
    if exchange == "3-ring-alpha-1":
        assert game.issued == 0
    if exchange == "3-ring-all-tails":
        assert (first.iterations, first.cause) == (5, TerminalCause.ITERATION_CAP_HIT)

    states = {pid: copy.deepcopy(vars(state)) for pid, state in game.states.items()}
    issuer_rng = game.issuer_rng.getstate()
    rngs = {pid: rng.getstate() for pid, rng in game.rngs.items()}
    with pytest.raises(DuplicateEpochError, match=r"^epoch 0 already issued$"):
        game.run()
    assert {pid: vars(state) for pid, state in game.states.items()} == states
    assert game.issuer_rng.getstate() == issuer_rng
    assert {pid: rng.getstate() for pid, rng in game.rngs.items()} == rngs


# --- message flow ------------------------------------------------------------


def test_step1_delivery_fidelity():
    assignment = ((0, 0), (0, 1), (1, 0))
    outcome, states = run_ring(0.5, forced_profile(assignment), seed=1, cap=1)
    for pid in (1, 2, 3):
        pred = (pid - 2) % 3 + 1
        succ = pid % 3 + 1
        c_pred, cp_pred = assignment[pred - 1]
        c_succ, cp_succ = assignment[succ - 1]
        st = states[pid]
        assert st.bit_from_pred == cp_pred
        assert st.bit_from_succ == c_succ ^ cp_succ


def test_step2_messages_follow_the_xor_rule():
    assignment = ((1, 0), (0, 1), (1, 1))
    outcome = run_mechanism(5, 0.5, forced_profile(assignment), seed=1, cap=1)
    tr = outcome.transcripts[0]
    masked = {m.sender: m for m in tr.messages if m.kind == MessageKind.MASKED_BIT}
    for pid in (1, 2, 3):
        succ = pid % 3 + 1
        pred = (pid - 2) % 3 + 1
        c_succ, cp_succ = assignment[succ - 1]
        c_own, _ = assignment[pid - 1]
        assert masked[pid].payload == (c_succ ^ cp_succ) ^ c_own
        assert masked[pid].receiver == pred
        assert masked[pid].step == Step.MASKED_BIT


def test_messages_are_tagged_with_their_sending_step():
    outcome = run_mechanism(5, 1.0, seed=3)
    by_kind = {}
    for msg in outcome.transcripts[0].messages:
        by_kind.setdefault(msg.kind, set()).add(msg.step)
    assert by_kind[MessageKind.COIN_PLUS] == {Step.COIN_EXCHANGE}
    assert by_kind[MessageKind.COIN_MINUS] == {Step.COIN_EXCHANGE}
    assert by_kind[MessageKind.MASKED_BIT] == {Step.MASKED_BIT}
    assert by_kind[MessageKind.SHARE_BROADCAST] == {Step.BROADCAST}


def test_silent_player_makes_neighbors_abort():
    outcome = run_mechanism(5, 0.5, {2: AlwaysSilent()}, seed=7)
    assert outcome.iterations == 1
    assert outcome.cause == TerminalCause.MISSING_BIT_ABORT
    assert outcome.info == (0, 0, 0)
    decisions = decode_iteration(outcome.transcripts[0]).decisions
    assert decisions[1] == DecisionKind.ABORT
    assert decisions[3] == DecisionKind.ABORT


def test_missing_bit_evidence_recorded():
    _, states = run_ring(0.5, {2: AlwaysSilent()}, seed=7)
    kinds = {e.kind for e in states[1].cheat_evidence}
    assert "missing-bit" in kinds


# --- step-4 semantics ----------------------------------------------------------


def test_all_heads_all_learn():
    assignment = ((1, 0), (1, 1), (1, 0))
    outcome = run_mechanism(5, 0.5, forced_profile(assignment), seed=1, cap=2)
    assert outcome.cause == TerminalCause.ALL_LEARNED
    assert outcome.info == (1, 1, 1)
    assert outcome.iterations == 1
    assert sorted(decode_iteration(outcome.transcripts[0]).broadcasters) == [1, 2, 3]


def test_lone_head_restarts_everyone():
    assignment = ((1, 0), (0, 1), (0, 0))
    outcome = run_mechanism(5, 0.5, forced_profile(assignment), seed=1, cap=1)
    tr = decode_iteration(outcome.transcripts[0])
    assert tr.broadcasters == (1,)
    assert all(d == DecisionKind.RESTART for d in tr.decisions.values())
    assert outcome.cause == TerminalCause.ITERATION_CAP_HIT
    assert outcome.info == (0, 0, 0)


def test_restart_requests_go_to_the_issuer():
    assignment = ((1, 0), (0, 1), (0, 0))
    outcome = run_mechanism(5, 0.5, forced_profile(assignment), seed=1, cap=1)
    requests = [
        m for m in outcome.transcripts[0].messages if m.kind == MessageKind.RESTART_REQUEST
    ]
    assert len(requests) == 3
    assert all(m.receiver == 0 for m in requests)


def test_withholder_against_two_heads_learns_alone():
    assignment = ((1, 0), (1, 1), (1, 0))
    profile = forced_profile(assignment, inner={2: WithholdShare()})
    outcome = run_mechanism(5, 0.5, profile, seed=1, cap=2)
    assert outcome.cause == TerminalCause.CHEAT_STOP
    assert outcome.info == (0, 1, 0)
    assert sorted(decode_iteration(outcome.transcripts[0]).broadcasters) == [1, 3]


def test_withholder_against_two_tails_is_caught():
    assignment = ((0, 0), (1, 1), (0, 0))
    profile = forced_profile(assignment, inner={2: WithholdShare()})
    outcome, states = run_ring(0.5, profile, seed=1, cap=2)
    assert outcome.cause == TerminalCause.CHEAT_STOP
    assert outcome.info == (0, 0, 0)
    tr = decode_iteration(outcome.transcripts[0])
    assert tr.broadcasters == ()
    assert all(d == DecisionKind.STOP for d in tr.decisions.values())
    assert any(e.kind == "stopped-without-learning" for e in states[1].cheat_evidence)


def test_tampered_broadcast_counts_as_missing():
    class TamperOwnShare(AlwaysBroadcast):
        def __init__(self, tamper):
            self.tamper = tamper

        def broadcast_payload(self, state, payload):
            return self.tamper(payload)

    def bump_y(share):
        y = FieldElement((share.y.value + 1) % share.y.modulus, share.y.modulus)
        return dataclasses.replace(share, y=y)

    assignment = ((1, 0), (1, 1), (1, 0))
    profile = forced_profile(assignment, inner={2: TamperOwnShare(bump_y)})
    outcome, states = run_ring(0.5, profile, seed=1, cap=2)
    # Receivers drop the forged share: they see two valid broadcasts
    # (their own and the other honest player's) and stop without learning;
    # the cheater still collects both honest shares.
    assert outcome.info == (0, 1, 0)
    assert any(e.kind == "invalid-tag" for e in states[1].cheat_evidence)
    assert any(e.kind == "invalid-tag" for e in states[3].cheat_evidence)

    # The holder is the share's evaluation point and its tag covers it: a
    # share relabelled to another holder is forged the same way.
    relabel = TamperOwnShare(lambda share: dataclasses.replace(share, holder=99))
    outcome, states = run_ring(1, {1: relabel}, seed=1)
    assert (outcome.cause, outcome.info) == (TerminalCause.CHEAT_STOP, (1, 0, 0))
    for receiver in (2, 3):
        evidence = [(e.kind, e.about) for e in states[receiver].cheat_evidence]
        assert evidence == [("invalid-tag", 1), ("stopped-without-learning", None)]


class ReplayFirstPayload(HonestStrategy):
    """Broadcasts, in every epoch, the valid payload it broadcast in epoch 0."""

    honest_rules = False

    def __init__(self):
        self.first = None

    def broadcast_payload(self, state, payload):
        if self.first is None:
            self.first = payload
        return self.first


@pytest.mark.parametrize("lift", ["3-ring", "2-of-4"])
def test_replayed_payload_of_an_earlier_epoch_is_stale(lift):
    # Player 1 leads in both.  Its lone head restarts epoch 0; in epoch 1
    # all heads make every leader broadcast, player 1 its epoch-0 payload:
    # the bare share on the ring, a bundle of subshares in the lift.
    def scripted(pid):
        script = [(1, 0), (1, 0)] if pid == 1 else [(0, 0), (1, 0)]
        return ForcedCoins(script, ReplayFirstPayload() if pid == 1 else None)

    kw = dict(alpha=0.5, seed=1, trial=0, cap=3, record=True)
    if lift == "3-ring":
        game = MOfNExchange(5, [[1], [2], [3]], 3,
                            profile={pid: scripted(pid) for pid in (1, 2, 3)}, **kw)
        kind, victims, info = "stale-share", (2, 3), (1, 0, 0)
    else:
        leaders = [group[0] for group in partition_players(4, 4)]
        game = TwoOfNExchange(FieldElement(5, 101), 4,
                              profile={pid: scripted(pid) for pid in leaders}, **kw)
        # Holder 2 gets share 1's other subshares from players 3 and 4.
        kind, victims, info = "stale-subshare", (2, 3, 4), (1, 1, 0, 0)
    outcome = game.run()
    assert (outcome.cause, outcome.info, outcome.iterations) == (TerminalCause.CHEAT_STOP, info, 2)
    assert game.states[1].cheat_evidence == []
    for pid in victims:
        stale = [(e.iteration, e.about) for e in game.states[pid].cheat_evidence if e.kind == kind]
        assert stale and set(stale) == {(2, 1)}, pid


class ReshapePayload(AlwaysBroadcast):
    """Broadcasts every iteration, its payload first passed through `reshape`."""

    def __init__(self, reshape):
        self.reshape = reshape

    def broadcast_payload(self, state, payload):
        return self.reshape(payload)


def _too_long_to_print(item):
    """`item` with its field element's value set, past the checks, to an int
    of 5,001 digits: past `str`'s limit, so nothing can print it."""
    field = "y" if isinstance(item, Share) else "value"
    element = copy.copy(getattr(item, field))
    object.__setattr__(element, "value", 10**5000)
    return dataclasses.replace(item, **{field: element})


@pytest.mark.parametrize("lift", ["3-ring", "2-of-4"])
def test_a_forged_value_too_long_to_print_is_evidence(lift):
    # Leader 1 always broadcasts, its first item's value forged: the run
    # ends as any run with a forged broadcast does, and the tag check
    # raises nothing.
    def forge_first(payload):
        if isinstance(payload, tuple):
            return (_too_long_to_print(payload[0]), *payload[1:])
        return _too_long_to_print(payload)

    profile = {1: ReshapePayload(forge_first)}
    kw = dict(alpha=1, profile=profile, seed=1, trial=0, cap=5, record=True)
    if lift == "3-ring":
        game = MOfNExchange(5, [[1], [2], [3]], 3, **kw)
    else:
        game = TwoOfNExchange(FieldElement(5, 101), 4, **kw)
    outcome = game.run()
    assert isinstance(outcome, RunOutcome)
    assert outcome.cause == TerminalCause.CHEAT_STOP and outcome.info[0] == 1
    for pid in game.players[1:]:
        assert ("invalid-tag", 1, 1) in [
            (e.kind, e.iteration, e.about) for e in game.states[pid].cheat_evidence
        ], pid


def _set_in_place(field, value):
    """A reshape that sets its share's `field` to `value` through `object.__setattr__`."""

    def reshape(share):
        object.__setattr__(share, field, value)
        return share

    return reshape


@pytest.mark.parametrize("field, value", [("tag", None), ("y", 3)], ids=["tag-none", "y-int"])
def test_a_field_of_a_type_the_issuer_never_makes_is_evidence(field, value):
    # Leader 1 always broadcasts its share with a tag that is not an int,
    # or a y that is not a field element, set in place: the tag check
    # returns False rather than raise, and the run ends as any run with a
    # forged broadcast does.
    game = MOfNExchange(5, [[1], [2], [3]], 3, alpha=1,
                        profile={1: ReshapePayload(_set_in_place(field, value))},
                        seed=1, trial=0, cap=5, record=True)
    outcome = game.run()
    assert outcome.cause == TerminalCause.CHEAT_STOP and outcome.info[0] == 1
    for pid in (2, 3):
        assert ("invalid-tag", 1, 1) in [
            (e.kind, e.iteration, e.about) for e in game.states[pid].cheat_evidence
        ], pid


@pytest.mark.parametrize("exchange", ["3-ring", "3-of-6"])
def test_a_broadcast_of_the_wrong_shape(exchange):
    # The ring broadcasts its bare share and judges whatever arrives as one
    # item, so a one-share bundle is a stale item.  A lift broadcasts its
    # bundle as a tuple and ignores, with no evidence, a payload that is not
    # one, so a leader's bare first item is ignored.
    kw = dict(alpha=0.5, seed=1, trial=0, cap=1, record=False)
    if exchange == "3-ring":
        game = MOfNExchange(5, [[1], [2], [3]], 3,
                            profile={1: ReshapePayload(lambda share: (share,))}, **kw)
        evidence = [CheatEvidence("stale-share", 1, int(Step.DECIDE), 1)]
    else:
        game = MOfNExchange(5, partition_players(6, 3), 3,
                            profile={1: ReshapePayload(lambda bundle: bundle[0])}, **kw)
        evidence = []
    assert game.leaders == [1, 2, 3]
    game.run()
    for pid in game.players[1:]:
        st = game.states[pid]
        assert [e for e in st.cheat_evidence if e.about == 1] == evidence, pid
        assert 1 not in st.observed_broadcasts, pid
    assert 1 in game.states[1].observed_broadcasts


# --- exhaustive iteration semantics -------------------------------------------


def test_honest_parity_agreement_and_atomicity_all_64():
    for assignment in ALL64:
        outcome, states = run_ring(0.5, forced_profile(assignment), seed=9, cap=1)
        cs = [assignment[i][0] for i in range(3)]
        expected_parity = cs[0] ^ cs[1] ^ cs[2]
        tr = outcome.transcripts[0]
        decoded = decode_iteration(tr)
        assert set(decoded.parities.values()) == {expected_parity}
        if all(cs):
            assert outcome.cause == TerminalCause.ALL_LEARNED
            assert outcome.info == (1, 1, 1)
        else:
            # Not absorbed: everyone restarts, nobody gained a usable epoch.
            assert outcome.cause == TerminalCause.ITERATION_CAP_HIT
            assert outcome.info == (0, 0, 0)
            assert len(decoded.broadcasters) <= 1
            # Each player holds its own share of the epoch and at most one
            # other.
            for st in states.values():
                assert set(st.holdings) <= {("share", 1), ("share", 2), ("share", 3)}
                assert len(st.holdings) <= 2
                assert not st.learned_earlier


def test_messages_determine_the_iteration():
    # A transcript keeps only messages; they fix the iteration's coins,
    # parities, broadcasts and restarts.
    for assignment in ALL64:
        outcome = run_mechanism(5, 0.5, forced_profile(assignment), seed=9, cap=1)
        decoded = decode_iteration(outcome.transcripts[0])
        coins = {pid: assignment[pid - 1][0] for pid in (1, 2, 3)}
        parity = coins[1] ^ coins[2] ^ coins[3]
        assert {pid: (t.c, t.c_plus) for pid, t in decoded.coins.items()} == {
            pid: assignment[pid - 1] for pid in (1, 2, 3)
        }
        assert decoded.parities == {pid: parity for pid in (1, 2, 3)}
        broadcasters = tuple(pid for pid in (1, 2, 3) if broadcast_rule(parity, coins[pid]))
        assert decoded.broadcasters == broadcasters
        # Honest receivers see every broadcast, their own included.
        assert decoded.restarters == tuple(
            pid for pid in (1, 2, 3) if restart_rule(parity, len(broadcasters))
        )

    # A stalled lift iteration sends the forwarded bundles and one restart
    # request per seated leader, and nothing else.
    exchange = _lifted_exchange("2-of-n", 5, "withhold-from-leader", True, 0)
    stalled = exchange.run().transcripts[0]
    withholder = next(p for p in exchange.players if p not in exchange.leaders)
    forwards = [
        (p, exchange.leader_of[p], Step.ISSUE, MessageKind.SHARE_BROADCAST)
        for p in exchange.players
        if p not in exchange.leaders and p != withholder
    ]
    restarts = [
        (leader, ISSUER_ID, Step.ISSUE, MessageKind.RESTART_REQUEST) for leader in exchange.leaders
    ]
    assert forwards
    assert [(m.sender, m.receiver, m.step, m.kind) for m in stalled.messages] == forwards + restarts


def test_restart_reissues_a_fresh_polynomial():
    assignment = ((1, 0), (0, 1), (0, 0))
    script = [assignment, ((1, 0), (1, 1), (1, 0))]
    profile = {
        pid: ForcedCoins([script[0][pid - 1], script[1][pid - 1]]) for pid in (1, 2, 3)
    }
    outcome = run_mechanism(5, 0.5, profile, seed=11, cap=3)
    assert outcome.iterations == 2
    assert outcome.cause == TerminalCause.ALL_LEARNED
    epochs = [tr.epoch for tr in outcome.transcripts]
    assert epochs == [0, 1]
    y0 = {m.payload.y.value for m in outcome.transcripts[0].messages if m.kind == MessageKind.SHARE_BROADCAST}
    y1 = {m.payload.y.value for m in outcome.transcripts[1].messages if m.kind == MessageKind.SHARE_BROADCAST}
    assert y0 != y1 or len(y1) == 3


def test_garble_mixed_stop_restart_cascades_one_iteration():
    # Deviator 2 garbles; victim is player 1.  With only the deviator's
    # coin heads, the victim stops while the others restart, then abort on
    # the victim's silence one iteration later.
    assignment = ((0, 0), (1, 1), (0, 0))
    profile = forced_profile(assignment, inner={2: GarbleStep2()})
    outcome = run_mechanism(5, 0.5, profile, seed=13, cap=5)
    assert outcome.iterations == 2
    assert outcome.cause == TerminalCause.CHEAT_STOP
    assert outcome.info == (0, 0, 0)
    # The players still seated are those that asked for a restart.
    seated = decode_iteration(outcome.transcripts[0]).restarters
    final = decode_iteration(outcome.transcripts[1], seated)
    assert set(final.decisions.values()) == {DecisionKind.ABORT}


def test_garble_all_heads_feeds_the_victim():
    assignment = ((1, 0), (1, 1), (1, 0))
    profile = forced_profile(assignment, inner={2: GarbleStep2()})
    outcome = run_mechanism(5, 0.5, profile, seed=13, cap=2)
    assert outcome.info == (1, 0, 0)
    assert sorted(decode_iteration(outcome.transcripts[0]).broadcasters) == [2, 3]


class RestartAfterLearning(HonestStrategy):
    """Honest play, except that it always asks for a restart: where everyone
    broadcasts it learns, and it plays on into the next epoch."""

    honest_rules = False

    def decide(self, state):
        return DecisionKind.RESTART


def _epoch_exchange(exchange, profile, cap):
    """The 3-ring or the 2-of-4 lift, with `profile` keyed by ring seat."""
    kw = dict(alpha=0.5, seed=5, trial=0, cap=cap, record=False)
    if exchange == "ring":
        return MOfNExchange(5, [[1], [2], [3]], 3,
                            profile={seat + 1: s for seat, s in profile.items()}, **kw)
    leaders = [group[0] for group in partition_players(4, 4)]
    return TwoOfNExchange(5, 4, profile={leaders[seat]: s for seat, s in profile.items()}, **kw)


def _bundles(game):
    """What each player sends at the end of the last epoch.  In m-of-n that
    builds each designated player's share from the polynomial drawn at issue."""
    owners = game.players if isinstance(game, TwoOfNExchange) else range(1, game.threshold + 1)
    return {p: game._sends(p) for p in owners}


def _handed_keys(game):
    """The holding keys of what each player was handed in the last epoch: the
    items in its bundle and its own share, issued or not.  A player that took
    delivery of no broadcast holds exactly these."""
    owners = game.holders if isinstance(game, TwoOfNExchange) else game.players
    bundles = _bundles(game)
    return {
        p: {holding_key(item) for item in bundles.get(p, ())}
        | ({item_key(p)} if p in owners else set())
        for p in game.players
    }


@pytest.mark.parametrize("exchange", ["ring", "2-of-4"])
def test_what_an_earlier_epoch_taught_is_kept(exchange):
    # All three coins are heads: everyone learns in epoch 0.  The first
    # leader restarts instead of stopping and aborts alone in epoch 1,
    # whose items teach nobody; what epoch 0 taught still counts.
    coins = [(1, 0)]
    profile = {0: ForcedCoins(coins, RestartAfterLearning()), 1: ForcedCoins(coins),
               2: ForcedCoins(coins)}
    game = _epoch_exchange(exchange, profile, cap=10)
    outcome = game.run()
    assert outcome.iterations == 2
    assert (outcome.info, outcome.cause) == ((1,) * game.n, TerminalCause.ALL_LEARNED)
    assert all(item.epoch == 1 for bundle in _bundles(game).values() for item in bundle)
    handed = _handed_keys(game)
    for p, st in game.states.items():
        assert st.learned_earlier and st.iteration == 2
        assert st.holdings == handed[p], p


@pytest.mark.parametrize("exchange", ["ring", "2-of-4"])
def test_a_long_run_holds_only_its_last_epochs_items(exchange):
    # All coins tails: every iteration restarts, until the cap.
    profile = {seat: ForcedCoins([(0, 0)] * 300) for seat in range(3)}
    game = _epoch_exchange(exchange, profile, cap=300)
    outcome = game.run()
    assert (outcome.iterations, outcome.cause) == (300, TerminalCause.ITERATION_CAP_HIT)
    assert game.issued == 299
    assert all(item.epoch == 299 for bundle in _bundles(game).values() for item in bundle)
    handed = _handed_keys(game)
    for p, st in game.states.items():
        assert st.iteration == 300 and not st.learned_earlier
        assert st.holdings and st.holdings == handed[p], p
    if exchange == "ring":
        assert all(set(st.holdings) == {("share", p)} for p, st in game.states.items())


def test_alpha_one_terminates_immediately():
    outcome = run_mechanism(5, 1.0, seed=17)
    assert outcome.iterations == 1
    assert outcome.info == (1, 1, 1)


def test_cap_hit_is_an_outcome_not_an_exception():
    outcome = run_mechanism(5, 0.01, seed=19, cap=3, record=False)
    assert outcome.cause == TerminalCause.ITERATION_CAP_HIT
    assert outcome.iterations == 3
    assert outcome.info == (0, 0, 0)


def test_alpha_validation():
    with pytest.raises(ValueError):
        run_mechanism(5, 0.0, seed=1)
    with pytest.raises(ValueError):
        run_mechanism(5, 1.5, seed=1)
    with pytest.raises(ValueError):
        run_mechanism(5, 0.5, seed=1, cap=0)


# --- determinism ----------------------------------------------------------------


def _transcript_signature(outcome):
    signature, seated = [], (1, 2, 3)
    for tr in outcome.transcripts:
        decoded = decode_iteration(tr, seated)
        seated = decoded.restarters
        signature.append((
            tr.iteration,
            tr.epoch,
            sorted((pid, c.c, c.c_plus) for pid, c in decoded.coins.items()),
            sorted(decoded.broadcasters),
            sorted((pid, kind.value) for pid, kind in decoded.decisions.items()),
            [(m.sender, m.receiver, m.kind.value, repr(m.payload)) for m in tr.messages],
        ))
    return signature


def test_identical_seed_and_profile_reproduce_transcripts():
    a = run_mechanism(5, 0.4, seed=23, trial=6)
    b = run_mechanism(5, 0.4, seed=23, trial=6)
    assert _transcript_signature(a) == _transcript_signature(b)
    assert (a.iterations, a.info, a.cause) == (b.iterations, b.info, b.cause)


def test_different_trials_draw_independent_streams():
    a = run_mechanism(5, 0.4, seed=23, trial=0, record=False)
    b = run_mechanism(5, 0.4, seed=23, trial=1, record=False)
    # Identical outcomes are possible, identical full coin streams are not
    # expected: compare a long run's iteration counts instead.
    runs_a = [run_mechanism(5, 0.3, seed=29, trial=t, record=False).iterations for t in range(30)]
    assert len(set(runs_a)) > 1


RECORDED_PROFILES = [(None, None, None)] + [
    (name, deviator, 0.3 if name == "biased-coin" else None)
    for name in DEVIATIONS
    for deviator in (1, 2, 3)
]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize(
    "name, deviator, alpha_prime",
    RECORDED_PROFILES,
    ids=[f"{d}-{n}" if n else "honest" for n, d, _ in RECORDED_PROFILES],
)
def test_recording_does_not_change_the_run(name, deviator, alpha_prime, alpha):
    # A transcript dump records the same runs the report counts.
    profile = deviation_profile(name, deviator, alpha_prime)
    for trial in range(5):
        runs = [
            run_ring(alpha, profile, 37, cap=500, record=record, trial=trial)
            for record in (True, False)
        ]
        (on, on_states), (off, off_states) = runs
        assert (on.iterations, on.info, on.cause) == (off.iterations, off.info, off.cause)
        for p in (1, 2, 3):
            assert on_states[p].cheat_evidence == off_states[p].cheat_evidence
            assert on_states[p].holdings == off_states[p].holdings
        assert on.transcripts and not off.transcripts


def forge_subshare_for_player_3(game: TwoOfNExchange) -> TwoOfNExchange:
    """Make `game`'s issuer forge the subshare holder 1 hands player 3: its
    piece with index 2, whose tag then no longer verifies."""
    split = game.issuer.split_subshares

    def split_and_forge(*args, **kwargs):
        subs = split(*args, **kwargs)
        if subs[1].parent_holder == 1:
            value = subs[1].value
            subs[1] = dataclasses.replace(
                subs[1], value=FieldElement((value.value + 1) % value.modulus, value.modulus)
            )
        return subs

    game.issuer.split_subshares = split_and_forge
    return game


LIFTS = [("m-of-n", size) for size in ((3, 4), (3, 6), (4, 5))] + [
    ("2-of-n", n) for n in (3, 4, 5)
]


def _lifted_exchange(lift, size, play, record, trial):
    """The exchange a lift runs, so its final states can be read."""
    m, n = size if lift == "m-of-n" else (2, size)
    groups = partition_players(n, m if lift == "m-of-n" else n)
    leaders = [group[0] for group in groups]
    forwarders = range(1, m + 1) if lift == "m-of-n" else range(1, n + 1)
    # A forwarder that leads no group, if there is one, stalls its leader.
    withholder = next((p for p in forwarders if p not in leaders), 1)
    profile = {withholder: WithholdFromLeader()} if play == "withhold-from-leader" else None
    kw = dict(alpha=0.5, profile=profile, seed=43, trial=trial, cap=40, record=record)
    secret = FieldElement(5, 101)
    if lift == "m-of-n":
        return MOfNExchange(secret, groups, m, **kw)
    game = TwoOfNExchange(secret, n, **kw)
    if play == "tamper":
        forge_subshare_for_player_3(game).honest = False  # a forged piece voids all-or-nothing
    return game


@pytest.mark.parametrize(
    "lift, size, play",
    [(lift, size, play) for lift, size in LIFTS for play in ("honest", "withhold-from-leader")]
    + [("2-of-n", n, "tamper") for n in (3, 4, 5)],
)
def test_recording_does_not_change_lifted_runs(lift, size, play):
    for trial in range(3):
        on, off = (_lifted_exchange(lift, size, play, record, trial) for record in (True, False))
        on_outcome, off_outcome = on.run(), off.run()
        assert (on_outcome.iterations, on_outcome.info, on_outcome.cause) == (
            off_outcome.iterations, off_outcome.info, off_outcome.cause
        )
        for p in on.players:
            assert on.states[p].cheat_evidence == off.states[p].cheat_evidence
            assert on.states[p].holdings == off.states[p].holdings
        assert _bundles(on) == _bundles(off)
        assert on_outcome.transcripts and not off_outcome.transcripts


def test_recorded_messages_are_round_messages():
    # A plain tuple compares equal to a RoundMessage, so golden digests
    # cannot tell them apart.  These runs send every kind of message: coin
    # pieces, masked bits, broadcasts, restart requests, forwarded bundles
    # and a stalled leader's restart requests.
    profiles = [{}, {3: WithholdFromLeader()}] + [
        deviation_profile(name, deviator, 0.3 if name == "biased-coin" else None)
        for name in DEVIATIONS
        for deviator in (1, 2)
    ]
    kinds = set()
    for profile in profiles:
        for trial in range(2):
            kw = dict(seed=47, cap=30, record=True, trial=trial)
            for outcome in (run_mechanism(5, 0.5, profile, **kw),
                            lift_m_of_n(5, 3, 6, 0.5, profile, **kw),
                            lift_2_of_n(5, 5, 0.5, profile, **kw)):
                for tr in outcome.transcripts:
                    for m in tr.messages:
                        assert type(m) is RoundMessage, m
                        kinds.add((m.step, m.kind))
    assert kinds == {
        (Step.ISSUE, MessageKind.SHARE_BROADCAST), (Step.ISSUE, MessageKind.RESTART_REQUEST),
        (Step.COIN_EXCHANGE, MessageKind.COIN_PLUS), (Step.COIN_EXCHANGE, MessageKind.COIN_MINUS),
        (Step.MASKED_BIT, MessageKind.MASKED_BIT), (Step.BROADCAST, MessageKind.SHARE_BROADCAST),
        (Step.DECIDE, MessageKind.RESTART_REQUEST),
    }


def test_unrecorded_runs_build_no_message(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an unrecorded run built a message or a transcript")

    monkeypatch.setattr(engine, "RoundMessage", refuse)
    # The patch catches a message however it is built: a recorded run trips it.
    with pytest.raises((AssertionError, TypeError)):
        run_mechanism(5, 0.5, {}, seed=47, cap=30, record=True)
    monkeypatch.setattr(engine, "IterationTranscript", refuse)
    profiles = [{}, {3: WithholdFromLeader()}] + [
        deviation_profile(name, deviator, 0.3 if name == "biased-coin" else None)
        for name in DEVIATIONS
        for deviator in (1, 2, 3)
    ]
    for profile in profiles:
        for trial in range(2):
            kw = dict(seed=47, cap=30, record=False, trial=trial)
            run_mechanism(5, 0.5, profile, **kw)
            lift_m_of_n(5, 3, 6, 0.5, profile, **kw)
            lift_m_of_n(5, 4, 5, 0.5, profile, **kw)
            lift_2_of_n(5, 5, 0.5, profile, **kw)


def test_player_rngs_are_stable_across_runs():
    assert derive_rng(1, 0, "player", 1).random() == derive_rng(1, 0, "player", 1).random()
    assert derive_rng(1, 0, "player", 1).random() != derive_rng(1, 0, "player", 2).random()


# --- locality -------------------------------------------------------------------


def test_strategy_actions_depend_only_on_observations():
    # Two coin worlds with different hidden coins for players 2 and 3 but
    # identical observations for player 1 (both have global parity 0 and no
    # broadcasts): player 1's behavior must be identical.
    world_a = ((0, 1), (0, 1), (0, 0))
    world_b = ((0, 1), (1, 0), (1, 0))

    def observe(assignment):
        outcome = run_mechanism(5, 0.5, forced_profile(assignment), seed=31, cap=1)
        tr = outcome.transcripts[0]
        sent = [
            (m.kind.value, m.receiver, repr(m.payload))
            for m in tr.messages
            if m.sender == 1
        ]
        decoded = decode_iteration(tr)
        return sent, decoded.decisions[1], decoded.parities[1]

    sent_a, decision_a, parity_a = observe(world_a)
    sent_b, decision_b, parity_b = observe(world_b)
    # Check the worlds really differ in hidden coins but agree on what
    # player 1 sees.
    assert world_a[1][0] != world_b[1][0]
    assert parity_a == parity_b == 0
    assert sent_a == sent_b
    assert decision_a == decision_b


class Peeker(HonestStrategy):
    """Honest play that notes what its state holds of steps 1 and 2 while it acts at them."""

    def __init__(self):
        self.seen = []

    def coins(self, state, rng, alpha):
        self.seen.append((state.bit_from_pred, state.bit_from_succ))
        return super().coins(state, rng, alpha)

    def masked_bit(self, state):
        self.seen.append(state.masked_from_succ)
        return super().masked_bit(state)


@pytest.mark.parametrize("lift", ["3-ring", "3-of-6"])
def test_no_strategy_reads_a_bit_of_the_step_that_sends_it(lift):
    # Steps are simultaneous: whatever its seat, a leader acting at step 1
    # or 2 holds no bit of that step, not even one sent by a leader that
    # acted before it in ring order.
    leaders = [1, 2, 3] if lift == "3-ring" else [group[0] for group in partition_players(6, 3)]
    for seat in leaders:
        peeker = Peeker()
        for trial in range(4):
            kw = dict(seed=1, cap=20, record=False, trial=trial)
            if lift == "3-ring":
                run_mechanism(5, 0.9, {seat: peeker}, **kw)
            else:
                lift_m_of_n(5, 3, 6, 0.9, {seat: peeker}, **kw)
        assert set(peeker.seen) == {(None, None), None}, (seat, peeker.seen)
