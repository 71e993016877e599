"""Group lifts: m-of-n via leaders, 2-of-n via subshares."""

import dataclasses
import hashlib
import json
from collections import Counter

import pytest

import ratshare.engine as engine
from ratshare.engine import (
    InvariantViolationError,
    MOfNExchange,
    holding_key,
    item_key,
    run_mechanism,
)
from ratshare.lifts import (
    TwoOfNExchange,
    lift_2_of_n,
    lift_m_of_n,
    partition_players,
)
from ratshare.protocol import MessageKind, Step, TerminalCause
from ratshare.shamir import (
    DEFAULT_PRIME,
    FieldElement,
    Share,
    ShareIssuer,
    Subshare,
    combine_subshares,
    reconstruct,
)
from ratshare.strategies import (
    CheatEvidence,
    ForcedCoins,
    GarbleStep2,
    HonestStrategy,
    WithholdFromLeader,
    WithholdShare,
)
from ratshare.transcript import _payload_record
from test_engine import forge_subshare_for_player_3


def collect_broadcast_payloads(outcome):
    items = []
    for tr in outcome.transcripts:
        for msg in tr.messages:
            if msg.kind == MessageKind.SHARE_BROADCAST and isinstance(msg.payload, tuple):
                items.append((tr.epoch, msg.payload))
    return items


# --- partition -----------------------------------------------------------------


def test_partition_covers_designated_players():
    # m > n is accepted: every player is designated.
    for n in range(3, 30):
        for m in range(3, n + 3):
            groups = partition_players(n, m)
            assert [p for group in groups for p in group] == list(range(1, n + 1))
            assert len(groups) == 3
            for group in groups:
                # The leader, the group's first player, is designated.
                assert group[0] <= m


def test_partition_known_cases():
    assert partition_players(6, 3) == [[1], [2], [3, 4, 5, 6]]
    assert partition_players(5, 4) == [[1], [2, 3], [4, 5]]
    assert partition_players(6, 6) == [[1, 2], [3, 4], [5, 6]]
    # Equal largest groups; the spread then decides.
    assert partition_players(7, 5) == [[1, 2], [3, 4], [5, 6, 7]]
    assert [len(group) for group in partition_players(10, 7)] == [3, 3, 4]


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_players(6, 2)


# --- m-of-n ----------------------------------------------------------------------


def test_three_of_six_honest_everyone_learns():
    outcome = lift_m_of_n(FieldElement(55, 101), 3, 6, alpha=0.6, seed=2)
    assert outcome.cause == TerminalCause.ALL_LEARNED
    assert outcome.info == (1,) * 6


def test_four_of_five_reconstruction_from_bundles():
    outcome = lift_m_of_n(FieldElement(77, 101), 4, 5, alpha=0.7, seed=3)
    assert outcome.info == (1,) * 5
    final_epoch = outcome.transcripts[-1].epoch
    shares = {}
    for epoch, bundle in collect_broadcast_payloads(outcome):
        if epoch == final_epoch:
            for share in bundle:
                shares[share.holder] = share
    assert len(shares) >= 4
    assert reconstruct(list(shares.values()), 4).value == 77


def test_withholding_from_leader_stalls_forever():
    outcome = lift_m_of_n(
        FieldElement(55, 101), 4, 5, alpha=0.7, profile={3: WithholdFromLeader()}, seed=5,
        cap=40, record=False,
    )
    assert outcome.cause == TerminalCause.ITERATION_CAP_HIT
    assert outcome.iterations == 40
    assert outcome.info == (0,) * 5  # the withholder learns nothing either


def test_m_of_n_validation():
    with pytest.raises(ValueError):
        lift_m_of_n(5, 2, 6, alpha=0.5, seed=1)
    with pytest.raises(ValueError):
        lift_m_of_n(5, 3, 3, alpha=0.5, seed=1)
    with pytest.raises(ValueError):
        lift_m_of_n(5, 7, 6, alpha=0.5, seed=1)


def test_m_of_n_deterministic():
    a = lift_m_of_n(FieldElement(55, 101), 3, 6, alpha=0.4, seed=11)
    b = lift_m_of_n(FieldElement(55, 101), 3, 6, alpha=0.4, seed=11)
    assert (a.iterations, a.info, a.cause) == (b.iterations, b.info, b.cause)
    assert len(a.transcripts) == len(b.transcripts)


# --- 2-of-n -----------------------------------------------------------------------


def test_two_of_three_honest_recovers_both_shares():
    outcome = lift_2_of_n(FieldElement(42, 101), 3, alpha=0.6, seed=7)
    assert outcome.cause == TerminalCause.ALL_LEARNED
    assert outcome.info == (1, 1, 1)
    final_epoch = outcome.transcripts[-1].epoch
    subs = {}
    for epoch, bundle in collect_broadcast_payloads(outcome):
        if epoch == final_epoch:
            for sub in bundle:
                subs[(sub.parent_holder, sub.index)] = sub
    y1 = combine_subshares([subs[(1, 1)], subs[(1, 2)]], 2).value
    y2 = combine_subshares([subs[(2, 1)], subs[(2, 2)]], 2).value
    # Degree-1 interpolation through (1, y1), (2, y2) at zero.
    assert (2 * y1 - y2) % 101 == 42


def test_two_of_five_honest():
    outcome = lift_2_of_n(FieldElement(42, 101), 5, alpha=0.6, seed=9)
    assert outcome.cause == TerminalCause.ALL_LEARNED
    assert outcome.info == (1,) * 5


def test_two_of_two_is_rejected():
    with pytest.raises(ValueError, match="n >= 3"):
        lift_2_of_n(42, 2, alpha=0.5, seed=1)


def _tampered_two_of_three():
    return forge_subshare_for_player_3(TwoOfNExchange(
        FieldElement(42, 101), 3, alpha=1.0, profile=None, seed=13, trial=0, cap=5, record=True,
    ))


def test_tampered_subshare_treated_as_missing():
    game = _tampered_two_of_three()
    game.honest = False  # the forged piece breaks all-or-nothing; let the run finish
    outcome = game.run()
    # Player 3 dropped the forged piece, so its bundle cannot complete
    # holder 1's share for anyone; holder 1 still learns (own share plus
    # the other holder's subshares), the rest cannot.
    assert any(e.kind == "invalid-tag" for e in game.states[3].cheat_evidence)
    assert outcome.info == (1, 0, 0)


def test_honest_guard_rejects_a_partial_info_vector():
    # The same run with the honest-play checks on: every strategy follows
    # the honest rules, yet only holder 1 learns, which the guard refuses.
    with pytest.raises(InvariantViolationError, match=r"partial info \(1, 0, 0\)"):
        _tampered_two_of_three().run()


def test_lift_alpha_validation():
    with pytest.raises(ValueError):
        lift_2_of_n(42, 3, alpha=0.0, seed=1)
    with pytest.raises(ValueError):
        lift_m_of_n(42, 3, 6, alpha=1.0001, seed=1)


# --- recorded messages -------------------------------------------------------------

# sha256 of the compact JSON list of (sender, receiver, step, kind, payload
# record, transcript iteration) over a lifted run's recorded messages,
# recorded while messages were frozen dataclasses.  The withholding runs cover the
# restart requests of a stalled leader.
GOLDEN_LIFT_MESSAGES = {
    "3-of-6": (
        lambda: lift_m_of_n(5, 3, 6, 0.5),
        94, "5137b00aa3c6f4ba60963d273390fc0d23ebc5a55d8807db5335d6bd53fab34d",
    ),
    "3-of-6-trial-1": (
        lambda: lift_m_of_n(5, 3, 6, 0.5, trial=1),
        327, "7e044472529d4834fa32f8cf974c7da353287f7347428d024ce4f3975f58ccad",
    ),
    "2-of-5": (
        lambda: lift_2_of_n(5, 5, 0.5),
        23, "4edbd236fcd4a3dde4665970b8f3721053341b3c57d781b49ddb767f86d9cdf3",
    ),
    "4-of-5-withhold": (
        lambda: lift_m_of_n(5, 4, 5, 0.5, {3: WithholdFromLeader()}, cap=3),
        9, "01d502b760e07f2654ebfcd49299b8f8adf8288836ffe1b0728a2b4e850a1df8",
    ),
    "2-of-5-withhold": (
        lambda: lift_2_of_n(5, 5, 0.5, {3: WithholdFromLeader()}, cap=3),
        12, "f27239408b01fc38e0c82c9812524ceb722b65986c891a077b29a4ade8697275",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_LIFT_MESSAGES))
def test_lifted_messages_match_golden_digests(name):
    run, count, digest = GOLDEN_LIFT_MESSAGES[name]
    rows = [
        (m.sender, m.receiver, int(m.step), m.kind.value, _payload_record(m.payload), t.iteration)
        for t in run().transcripts
        for m in t.messages
    ]
    assert len(rows) == count
    assert hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest() == digest


# --- the secret's field ----------------------------------------------------------------

RUNS = {
    "3-ring": lambda secret: run_mechanism(secret, 0.9, seed=1),
    "3-of-4": lambda secret: lift_m_of_n(secret, 3, 4, 0.9, seed=1),
    "2-of-3": lambda secret: lift_2_of_n(secret, 3, 0.9, seed=1),
}


@pytest.fixture
def issued(monkeypatch):
    """Every share and split piece any issuer hands out while the test runs."""
    items = []
    for name in ("issue_shares", "split_subshares"):

        def recording(self, *args, real=getattr(ShareIssuer, name), **kwargs):
            out = real(self, *args, **kwargs)
            items.extend(out)
            return out

        monkeypatch.setattr(ShareIssuer, name, recording)
    return items


@pytest.mark.parametrize("run", list(RUNS))
@pytest.mark.parametrize(
    "secret, modulus",
    [(FieldElement(5, 101), 101), (FieldElement(5, 13), 13), (5, DEFAULT_PRIME)],
    ids=["gf101", "gf13", "int"],
)
def test_a_run_issues_shares_in_the_secret_field(run, secret, modulus, issued):
    # A FieldElement secret brings its field; an int secret lives in
    # DEFAULT_PRIME's.  2-of-n builds no share: it issues only split pieces.
    outcome = RUNS[run](secret)
    assert outcome.cause == TerminalCause.ALL_LEARNED
    assert issued
    assert {type(item) for item in issued} == {Subshare if run == "2-of-3" else Share}
    assert {
        (item.y if isinstance(item, Share) else item.value).modulus for item in issued
    } == {modulus}


# --- invariants of the shared run loop ----------------------------------------------


class HonestFlaggedGarble(GarbleStep2):
    """A garbling leader that claims to follow the honest rules."""

    honest_rules = True


@pytest.mark.parametrize(
    "lift",
    [
        lambda profile: lift_m_of_n(FieldElement(5, 101), 3, 6, alpha=0.5, profile=profile, seed=1),
        lambda profile: lift_2_of_n(FieldElement(5, 101), 4, alpha=0.5, profile=profile, seed=1),
    ],
    ids=["3-of-6", "2-of-4"],
)
def test_honest_lift_checks_parity_agreement(lift):
    # Player 2 leads a group in both lifts; its predecessor's parity is
    # corrupted in the first iteration.
    with pytest.raises(InvariantViolationError, match="disagree on parity"):
        lift({2: HonestFlaggedGarble()})


# --- work per actor, not per player -------------------------------------------------


@pytest.mark.parametrize(
    "run, actors",
    [
        (lambda: run_mechanism(5, 0.5), [1, 2, 3]),
        (lambda: lift_m_of_n(5, 3, 6, 0.5), [1, 2, 3]),  # leaders 1, 2, 3; nobody forwards
        (lambda: lift_m_of_n(5, 4, 5, 0.5), [1, 2, 3, 4]),  # player 3 forwards to leader 2
        (lambda: lift_2_of_n(5, 5, 0.5), [1, 2, 3, 4, 5]),  # everyone forwards or leads
    ],
    ids=["3-ring", "3-of-6", "4-of-5", "2-of-5"],
)
def test_only_players_who_act_get_a_stream(run, actors, monkeypatch):
    paths = []
    derive_rng = engine.derive_rng
    monkeypatch.setattr(engine, "derive_rng", lambda *path: paths.append(path) or derive_rng(*path))
    run()
    assert sorted(paths) == sorted([(0, 0, "issuer")] + [(0, 0, "player", p) for p in actors])


@pytest.mark.parametrize(
    "run, holders",
    [
        (lambda: run_mechanism(5, 0.5), {1, 2, 3}),
        (lambda: lift_m_of_n(5, 3, 6, 0.5), {1, 2, 3}),
        (lambda: lift_m_of_n(5, 4, 5, 0.5), {1, 2, 3, 4}),
        (lambda: lift_2_of_n(5, 5, 0.5), {1, 2}),
    ],
    ids=["3-ring", "3-of-6", "4-of-5", "2-of-5"],
)
def test_each_epoch_issues_shares_only_to_players_who_can_send(run, holders, monkeypatch):
    # Only the designated players of m-of-n and the two shareholders of
    # 2-of-n ever send a share (or its pieces); the others get none.  An
    # m-of-n epoch builds each share once, one per issue_shares call, and
    # only as it is sent: the shares its transcript carries, as a broadcast
    # or a forwarded bundle, and the share of a leader a bundle is forwarded
    # to.  A 2-of-n epoch builds no share: it splits both holders' values.
    issued = []  # (epoch, holders), one per issue_shares call
    split = []  # (epoch, parent), one per split_subshares call
    issue_shares, split_subshares = ShareIssuer.issue_shares, ShareIssuer.split_subshares

    def recording_issue_shares(self, secret, m, n, epoch, *args, **kwargs):
        shares = issue_shares(self, secret, m, n, epoch, *args, **kwargs)
        issued.append((epoch, {share.holder for share in shares}))
        return shares

    def recording_split_subshares(self, *args, **kwargs):
        pieces = split_subshares(self, *args, **kwargs)
        split.append((pieces[0].epoch, pieces[0].parent_holder))
        return pieces

    monkeypatch.setattr(ShareIssuer, "issue_shares", recording_issue_shares)
    monkeypatch.setattr(ShareIssuer, "split_subshares", recording_split_subshares)
    outcome = run()
    if split:
        assert not issued
        assert split == [(t.epoch, parent) for t in outcome.transcripts for parent in (1, 2)]
        assert {parent for _, parent in split} == holders
        return
    sent = {}  # epoch -> the holders whose shares it sends
    for transcript in outcome.transcripts:
        for msg in transcript.messages:
            if msg.kind != MessageKind.SHARE_BROADCAST:
                continue
            carried = sent.setdefault(transcript.epoch, set())
            items = msg.payload if isinstance(msg.payload, tuple) else (msg.payload,)
            carried.update(item.holder for item in items)
            if msg.step == Step.ISSUE:
                carried.add(msg.receiver)
    built = {}
    for epoch, epoch_holders in issued:
        (holder,) = epoch_holders
        assert holder not in built.setdefault(epoch, set()), (epoch, holder)
        built[epoch].add(holder)
    assert [epoch for epoch, _ in issued] == sorted(epoch for epoch, _ in issued)
    assert built == sent
    # The last epoch succeeds: every designated player's share is sent.
    assert built[outcome.transcripts[-1].epoch] == holders
    assert set().union(*built.values()) == holders


@pytest.mark.parametrize("tails", [0, 3])
@pytest.mark.parametrize(
    "run",
    [lambda profile: run_mechanism(5, 0.5, profile, seed=1),
     lambda profile: lift_m_of_n(5, 3, 6, 0.5, profile, seed=1)],  # leaders 1, 2, 3
    ids=["3-ring", "3-of-6"],
)
def test_only_the_epoch_that_broadcasts_builds_shares(run, tails, monkeypatch):
    # `tails` all-tails iterations restart with nothing sent; in the all-heads
    # iteration after them every leader broadcasts, so its epoch alone builds,
    # one share per leader, in ring order.
    built = []
    issue_shares = ShareIssuer.issue_shares

    def recording_issue_shares(self, secret, m, n, epoch, *args, **kwargs):
        shares = issue_shares(self, secret, m, n, epoch, *args, **kwargs)
        built.append((epoch, [share.holder for share in shares]))
        return shares

    monkeypatch.setattr(ShareIssuer, "issue_shares", recording_issue_shares)
    script = [(0, 0)] * tails + [(1, 0)]
    outcome = run({leader: ForcedCoins(script) for leader in (1, 2, 3)})
    assert (outcome.iterations, outcome.cause) == (tails + 1, TerminalCause.ALL_LEARNED)
    assert built == [(tails, [1]), (tails, [2]), (tails, [3])]


@pytest.mark.parametrize("broadcaster", [1, 2, 3])
@pytest.mark.parametrize(
    "run",
    [lambda profile: run_mechanism(5, 0.5, profile, seed=1, cap=1),
     lambda profile: lift_m_of_n(5, 3, 6, 0.5, profile, seed=1, cap=1)],  # leaders 1, 2, 3
    ids=["3-ring", "3-of-6"],
)
def test_a_lone_broadcast_builds_only_its_share(run, broadcaster, monkeypatch):
    # Only `broadcaster` tosses heads (coins 010 for leader 2), so the parity
    # is 1 and it alone broadcasts: its share is the one the epoch builds, and
    # the others restart at the cap.
    built = []
    issue_shares = ShareIssuer.issue_shares

    def recording_issue_shares(self, secret, m, n, epoch, *args, **kwargs):
        shares = issue_shares(self, secret, m, n, epoch, *args, **kwargs)
        built.append((epoch, [share.holder for share in shares]))
        return shares

    monkeypatch.setattr(ShareIssuer, "issue_shares", recording_issue_shares)
    outcome = run({leader: ForcedCoins([(int(leader == broadcaster), 0)]) for leader in (1, 2, 3)})
    assert (outcome.iterations, outcome.cause) == (1, TerminalCause.ITERATION_CAP_HIT)
    (transcript,) = outcome.transcripts
    senders = {msg.sender for msg in transcript.messages if msg.step == Step.BROADCAST}
    assert senders == {broadcaster}
    assert built == [(0, [broadcaster])]


@pytest.mark.parametrize(
    "m, n, leaders, info",
    [(3, 6, [1, 2, 3], (1, 0, 0, 1, 1, 1)), (4, 5, [1, 2, 4], (1, 0, 0, 0, 1))],
    ids=["3-of-6", "4-of-5"],
)
def test_a_player_past_m_learns_through_its_own_key(m, n, leaders, info):
    # All coins are heads and leader 1 withholds: the other two leaders
    # broadcast m-1 shares between them.  A player past m is issued no share,
    # yet its own share's key makes the m-th, so it learns; so does leader 1,
    # while the designated players without the withheld share do not.
    assert [group[0] for group in partition_players(n, m)] == leaders
    profile = {leader: ForcedCoins([(1, 0)], WithholdShare() if leader == 1 else None)
               for leader in leaders}
    outcome = lift_m_of_n(FieldElement(5, 101), m, n, 0.5, profile=profile, record=False)
    assert (outcome.iterations, outcome.info, outcome.cause) == (1, info, TerminalCause.CHEAT_STOP)


@pytest.mark.parametrize("n, p", [(6, 5), (5, 5), (3, 3)])
def test_m_of_n_needs_fewer_players_than_the_field_size(n, p):
    # Shares sit at the points 1..n, and the point p is 0 mod p, the secret.
    # The refusal comes when the exchange is built, before any epoch.
    message = f"need n < p, got n={n}, p={p}"
    m, secret = 3, FieldElement(1, p)
    with pytest.raises(ValueError, match=message):
        MOfNExchange(secret, partition_players(n, m), m, alpha=0.5, profile=None, seed=0,
                     trial=0, cap=10, record=False)
    with pytest.raises(ValueError, match=message):
        run_mechanism(secret, 0.5) if n == 3 else lift_m_of_n(secret, m, n, 0.5)
    assert lift_m_of_n(FieldElement(1, 7), 3, 6, 0.5).cause == TerminalCause.ALL_LEARNED


def test_two_of_n_needs_a_field_past_its_two_holders():
    # The holders' shares sit at the points 1 and 2, so GF(2) cannot hold
    # them; the refusal comes when the exchange is built, before any epoch.
    with pytest.raises(ValueError, match="need n < p, got n=2, p=2"):
        TwoOfNExchange(FieldElement(1, 2), 3, alpha=0.5, profile=None, seed=0, trial=0, cap=10,
                       record=False)
    assert lift_2_of_n(FieldElement(1, 3), 3, 0.5).cause == TerminalCause.ALL_LEARNED


class ForgeOneItem(HonestStrategy):
    """Broadcasts its bundle with item `index` changed, so its tag no longer verifies."""

    honest_rules = False

    def __init__(self, index):
        self.index = index

    def broadcast_payload(self, state, payload):
        items = list(payload)
        item = items[self.index]
        field = "y" if isinstance(item, Share) else "value"
        v = getattr(item, field)
        items[self.index] = dataclasses.replace(
            item, **{field: FieldElement((v.value + 1) % v.modulus, v.modulus)}
        )
        return tuple(items)


@pytest.mark.parametrize("lift", ["3-of-6", "2-of-5"])
def test_each_delivered_item_is_checked_once_and_judged_for_every_receiver(lift):
    # All coins are heads, so all three leaders broadcast in iteration 1.
    # One leader forges an item of its bundle: in 3-of-6, leader 3 its lone
    # share; in 2-of-5, leader 4 the third of its four subshares.
    kw = dict(alpha=1.0, seed=4, trial=0, cap=1, record=True)
    if lift == "3-of-6":
        leaders, forger, index, size = [1, 2, 3], 3, 0, 1
        game = MOfNExchange(FieldElement(5, 101), partition_players(6, 3), 3,
                            profile={forger: ForgeOneItem(index)}, **kw)
    else:
        leaders, forger, index, size = [1, 2, 4], 4, 2, 4
        game = TwoOfNExchange(FieldElement(5, 101), 5, profile={forger: ForgeOneItem(index)}, **kw)
    assert game.leaders == leaders

    # Count the tag checks made while the leaders deliver their broadcasts.
    checked, delivering = [], False
    verify_tag, coin_iteration = game.issuer.verify_tag, game._coin_iteration

    def counting_verify_tag(item):
        if delivering:
            checked.append(item)
        return verify_tag(item)

    def flagged_coin_iteration(*args):
        nonlocal delivering
        delivering = True
        try:
            return coin_iteration(*args)
        finally:
            delivering = False

    game.issuer.verify_tag = counting_verify_tag
    game._coin_iteration = flagged_coin_iteration
    (transcript,) = game.run().transcripts

    broadcasts = {}
    for msg in transcript.messages:
        if msg.step == Step.BROADCAST:
            broadcasts.setdefault(msg.sender, msg.payload)
    assert list(broadcasts) == leaders and len(broadcasts[forger]) == size
    # One tag check per item and broadcast, however many players receive it.
    assert checked == [item for payload in broadcasts.values() for item in payload]

    forged = broadcasts[forger][index]
    valid = [item for payload in broadcasts.values() for item in payload if item is not forged]
    for pid, st in game.states.items():
        if pid == forger:
            assert not any(e.kind == "invalid-tag" for e in st.cheat_evidence)
            continue
        # Every receiver, observers included, keeps the valid items and
        # records its own evidence against the forger.
        assert [e for e in st.cheat_evidence if e.kind == "invalid-tag"] == [
            CheatEvidence("invalid-tag", 1, int(Step.DECIDE), forger)
        ], pid
        # The forged item's key is held only where the genuine item was handed.
        genuine = game.bundles[forger][index]
        assert genuine != forged
        assert holding_key(forged) not in st.holdings or genuine in game.bundles.get(pid, ()), pid
        for item in valid:
            assert holding_key(item) in st.holdings, pid
        if pid in leaders:
            assert st.observed_broadcasts == {*leaders} - {forger}, pid


@pytest.mark.parametrize(
    "lift, size, forged",
    [("m-of-n", size, False) for size in ((3, 4), (3, 6), (4, 5))]
    + [("2-of-n", n, forged) for n in range(3, 7) for forged in (False, True)],
)
def test_a_bundle_is_the_valid_items_its_sender_was_handed(lift, size, forged):
    # A player's bundle is the valid items the issue left it, in holding-key
    # order: its share in m-of-n, its subshares in 2-of-n (a forged split
    # piece is not among them).  A forwarder sends its bundle; a leader
    # broadcasts its own followed by the items forwarded to it.
    kw = dict(alpha=0.5, profile=None, seed=5, trial=0, cap=20, record=True)
    if lift == "m-of-n":
        (m, n), kind = size, "share"
        game = MOfNExchange(FieldElement(5, 101), partition_players(n, m), m, **kw)
    else:
        n, kind = size, "sub"
        game = TwoOfNExchange(FieldElement(5, 101), n, **kw)
        if forged:
            forge_subshare_for_player_3(game).honest = False
    held, checks = {}, Counter()
    issue_epoch, verify_tag = game._issue_epoch, game.issuer.verify_tag

    # Reading a bundle builds an m-of-n epoch's shares from the polynomial
    # drawn at issue, so reading them all here changes no other item.
    owners = range(1, m + 1) if lift == "m-of-n" else game.players

    def recording_issue_epoch(epoch):
        issue_epoch(epoch)
        held[epoch] = {p: list(game.bundles[p]) for p in owners}
        for p, st in game.states.items():
            keys = sorted(key for key in st.holdings if key[0] == kind)
            if p in held[epoch]:
                bundle = held[epoch][p]
                assert [holding_key(item) for item in bundle] == keys, (epoch, p)
                assert all(item.epoch == epoch and verify_tag(item) for item in bundle), (epoch, p)
            else:
                # An m-of-n player past m is handed no share, only its key.
                assert lift == "m-of-n" and p > m and keys == [item_key(p)], (epoch, p)

    def counting_verify_tag(item):
        checks[game.states[1].iteration] += 1
        return verify_tag(item)

    game._issue_epoch = recording_issue_epoch
    game.issuer.verify_tag = counting_verify_tag
    transcripts = game.run().transcripts
    assert transcripts

    for transcript in transcripts:
        bundles = held[transcript.epoch]
        forwarded = {leader: [] for leader in game.leaders}
        broadcast = {}
        for msg in transcript.messages:
            if msg.kind != MessageKind.SHARE_BROADCAST:
                continue
            if msg.step == Step.ISSUE:
                assert list(msg.payload) == bundles[msg.sender], (transcript.iteration, msg)
                forwarded[msg.receiver] += msg.payload
            else:
                broadcast[msg.sender] = msg.payload
        for sender, payload in broadcast.items():
            assert list(payload) == bundles[sender] + forwarded[sender], (transcript.iteration, sender)
        if lift == "2-of-n":
            # One tag check per split piece, forwarded item and broadcast item.
            assert checks[transcript.iteration] == 2 * (n - 1) + sum(
                len(items) for items in [*forwarded.values(), *broadcast.values()]
            ), transcript.iteration


@pytest.mark.parametrize("forged", [False, True], ids=["honest", "forged-piece"])
@pytest.mark.parametrize("n", range(3, 7))
def test_two_of_n_learns_by_the_keys_of_the_items_an_epoch_issues(n, forged):
    # The keys `_learned` tests are the holding keys of each holder's share
    # and of its n-1 split pieces, so every who-learned call agrees with a
    # recomputation from the items the epoch issued.
    game = TwoOfNExchange(FieldElement(5, 101), n, alpha=0.5, profile=None, seed=6, trial=0,
                          cap=30, record=True)
    if forged:
        forge_subshare_for_player_3(game).honest = False
    issued = {}  # holder -> its split pieces, of the latest epoch
    split, learned = game.issuer.split_subshares, game._learned
    answers = Counter()

    def recording_split(*args, **kwargs):
        subs = split(*args, **kwargs)
        issued[subs[0].parent_holder] = subs
        return subs

    def checked_learned(state):
        keys = state.holdings
        expected = state.learned_earlier or bool(issued) and all(
            (holder == state.player and item_key(holder) in keys)
            or {holding_key(sub) for sub in subs} <= keys
            for holder, subs in issued.items()
        )
        assert learned(state) == expected, (state.player, state.iteration)
        answers[expected] += 1
        return expected

    game.issuer.split_subshares = recording_split
    game._learned = checked_learned
    outcome = game.run()
    assert answers[True] and answers[False]
    assert outcome.info == ((1, 0) + (0,) * (n - 2) if forged else (1,) * n)
    assert game.holder_keys == [
        (holder, item_key(holder), {holding_key(sub) for sub in subs})
        for holder, subs in sorted(issued.items())
    ]
