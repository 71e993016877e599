"""The synchronous executor: issuance, message flow, decisions, termination."""

import dataclasses
from itertools import product
from random import Random

import pytest

import ratshare.engine as engine
from ratshare.engine import (
    DuplicateEpochError,
    MOfNExchange,
    issue_round,
    run_mechanism,
)
from ratshare.lifts import TwoOfNExchange, lift_2_of_n, lift_m_of_n, partition_players
from ratshare.protocol import (
    ISSUER_ID,
    CoinTriple,
    DecisionKind,
    MessageKind,
    Step,
    TerminalCause,
    broadcast_rule,
    parity_rule,
    restart_rule,
)
from ratshare.seeding import derive_rng
from ratshare.shamir import FieldElement, ShareIssuer, reconstruct
from ratshare.strategies import (
    DEVIATIONS,
    AlwaysBroadcast,
    AlwaysSilent,
    ForcedCoins,
    GarbleStep2,
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
        5, [[1], [2], [3]], [1, 2, 3], 3, alpha=alpha, profile=profile, seed=seed,
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


def test_issue_round_shape():
    issuer = ShareIssuer(b"k", modulus=13)
    shares = issue_round(issuer, FieldElement(5, 13), 3, 3, 0, Random(0), set())
    assert sorted(shares) == [1, 2, 3]
    assert all(issuer.verify_tag(s) for s in shares.values())
    assert all(s.holder == pid for pid, s in shares.items())


def test_issue_round_fresh_polynomial_per_epoch():
    issuer = ShareIssuer(b"k", modulus=101)
    rng = Random(1)
    issued = set()
    first = issue_round(issuer, FieldElement(55, 101), 3, 3, 0, rng, issued)
    second = issue_round(issuer, FieldElement(55, 101), 3, 3, 1, rng, issued)
    assert [s.y.value for s in first.values()] != [s.y.value for s in second.values()]
    assert reconstruct(list(first.values()), 3, issuer).value == 55
    assert reconstruct(list(second.values()), 3, issuer).value == 55


def test_issue_round_rejects_duplicate_epoch():
    issuer = ShareIssuer(b"k", modulus=13)
    issued = set()
    issue_round(issuer, FieldElement(5, 13), 3, 3, 0, Random(0), issued)
    with pytest.raises(DuplicateEpochError):
        issue_round(issuer, FieldElement(5, 13), 3, 3, 0, Random(0), issued)


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
    import dataclasses

    class TamperOwnShare(AlwaysBroadcast):
        def wants_broadcast(self, state, rng):
            share = state.own_payload
            y = FieldElement((share.y.value + 1) % share.y.modulus, share.y.modulus)
            state.own_payload = dataclasses.replace(share, y=y)
            return True

    assignment = ((1, 0), (1, 1), (1, 0))
    profile = forced_profile(assignment, inner={2: TamperOwnShare()})
    outcome, states = run_ring(0.5, profile, seed=1, cap=2)
    # Receivers drop the forged share: they see two valid broadcasts
    # (their own and the other honest player's) and stop without learning;
    # the cheater still collects both honest shares.
    assert outcome.info == (0, 1, 0)
    assert any(e.kind == "invalid-tag" for e in states[1].cheat_evidence)
    assert any(e.kind == "invalid-tag" for e in states[3].cheat_evidence)


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
            for st in states.values():
                for epoch, items in st.holdings.items():
                    assert len(items) < 3
            # After the restart each player holds exactly its own share of
            # the current epoch.
            for st in states.values():
                assert set(st.holdings[tr.epoch]) <= {
                    ("share", 1), ("share", 2), ("share", 3)
                }
                assert len(st.holdings[tr.epoch]) <= 2


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


def test_alpha_one_terminates_immediately():
    outcome = run_mechanism(5, 1.0, seed=17)
    assert outcome.iterations == 1
    assert outcome.total_steps == 5
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

    def split_and_forge(share, count, rng):
        subs = split(share, count, rng)
        if share.holder == 1:
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
    groups, leaders = partition_players(n, m if lift == "m-of-n" else n)
    forwarders = range(1, m + 1) if lift == "m-of-n" else range(1, n + 1)
    # A forwarder that leads no group, if there is one, stalls its leader.
    withholder = next((p for p in forwarders if p not in leaders), 1)
    profile = {withholder: WithholdFromLeader()} if play == "withhold-from-leader" else None
    kw = dict(alpha=0.5, profile=profile, seed=43, trial=trial, cap=40, record=record)
    secret = FieldElement(5, 101)
    if lift == "m-of-n":
        return MOfNExchange(secret, groups, leaders, m, **kw)
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
        assert on_outcome.transcripts and not off_outcome.transcripts


def test_unrecorded_runs_build_no_message(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an unrecorded run built a message or a transcript")

    monkeypatch.setattr(engine, "RoundMessage", refuse)
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
