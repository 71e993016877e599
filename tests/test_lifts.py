"""Group lifts: m-of-n via leaders, 2-of-n via subshares."""

import hashlib
import json

import pytest

from ratshare.cli import _share_record
from ratshare.engine import InvariantViolationError, run_mechanism
from ratshare.lifts import (
    TwoOfNExchange,
    lift_2_of_n,
    lift_m_of_n,
    partition_players,
)
from ratshare.protocol import MessageKind, TerminalCause
from ratshare.shamir import (
    DEFAULT_PRIME,
    FieldElement,
    ShareIssuer,
    combine_subshares,
    reconstruct,
)
from ratshare.strategies import GarbleStep2, WithholdFromLeader
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
    for n in range(4, 12):
        for m in range(3, n + 1):
            groups, leaders = partition_players(n, m)
            assert [p for group in groups for p in group] == list(range(1, n + 1))
            assert len(groups) == 3
            for group, leader in zip(groups, leaders):
                assert leader in group
                assert leader <= m
                assert any(p <= m for p in group)


def test_partition_known_cases():
    assert partition_players(6, 3) == ([[1], [2], [3, 4, 5, 6]], [1, 2, 3])
    assert partition_players(5, 4) == ([[1], [2, 3], [4, 5]], [1, 2, 4])
    assert partition_players(6, 6) == ([[1, 2], [3, 4], [5, 6]], [1, 3, 5])
    # Equal largest groups; the spread then decides.
    assert partition_players(7, 5) == ([[1, 2], [3, 4], [5, 6, 7]], [1, 3, 5])
    assert [len(group) for group in partition_players(10, 7)[0]] == [3, 3, 4]


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
                shares[share.x.value] = share
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
        (m.sender, m.receiver, int(m.step), m.kind.value, _share_record(m.payload), t.iteration)
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
    """Every share any issuer hands out while the test runs."""
    shares = []
    real = ShareIssuer.issue_shares

    def issue_shares(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        shares.extend(out)
        return out

    monkeypatch.setattr(ShareIssuer, "issue_shares", issue_shares)
    return shares


@pytest.mark.parametrize("run", list(RUNS))
@pytest.mark.parametrize(
    "secret, modulus",
    [(FieldElement(5, 101), 101), (FieldElement(5, 13), 13), (5, DEFAULT_PRIME)],
    ids=["gf101", "gf13", "int"],
)
def test_a_run_issues_shares_in_the_secret_field(run, secret, modulus, issued):
    # A FieldElement secret brings its field; an int secret lives in
    # DEFAULT_PRIME's.
    outcome = RUNS[run](secret)
    assert outcome.cause == TerminalCause.ALL_LEARNED
    assert issued
    assert {(share.x.modulus, share.y.modulus) for share in issued} == {(modulus, modulus)}


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
