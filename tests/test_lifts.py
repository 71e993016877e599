"""Group lifts: m-of-n via leaders, 2-of-n via subshares."""

import dataclasses

import pytest

from ratshare.engine import InvariantViolationError
from ratshare.lifts import (
    TwoOfNExchange,
    lift_2_of_n,
    lift_m_of_n,
    partition_players,
)
from ratshare.protocol import MessageKind, TerminalCause
from ratshare.shamir import combine_subshares, reconstruct
from ratshare.strategies import GarbleStep2, WithholdFromLeader


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


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_players(6, 2)


# --- m-of-n ----------------------------------------------------------------------


def test_three_of_six_honest_everyone_learns():
    outcome = lift_m_of_n(55, 3, 6, alpha=0.6, seed=2, prime=101)
    assert outcome.cause == TerminalCause.ALL_LEARNED
    assert outcome.info == (1,) * 6


def test_four_of_five_reconstruction_from_bundles():
    outcome = lift_m_of_n(77, 4, 5, alpha=0.7, seed=3, prime=101)
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
        55, 4, 5, alpha=0.7, profile={3: WithholdFromLeader()}, seed=5, cap=40,
        prime=101, record=False,
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
    a = lift_m_of_n(55, 3, 6, alpha=0.4, seed=11, prime=101)
    b = lift_m_of_n(55, 3, 6, alpha=0.4, seed=11, prime=101)
    assert (a.iterations, a.info, a.cause) == (b.iterations, b.info, b.cause)
    assert len(a.transcripts) == len(b.transcripts)


# --- 2-of-n -----------------------------------------------------------------------


def test_two_of_three_honest_recovers_both_shares():
    outcome = lift_2_of_n(42, 3, alpha=0.6, seed=7, prime=101)
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
    outcome = lift_2_of_n(42, 5, alpha=0.6, seed=9, prime=101)
    assert outcome.cause == TerminalCause.ALL_LEARNED
    assert outcome.info == (1,) * 5


def test_two_of_two_is_rejected():
    with pytest.raises(ValueError, match="n >= 3"):
        lift_2_of_n(42, 2, alpha=0.5, seed=1)


def test_tampered_subshare_treated_as_missing():
    def tamper(sub, recipient):
        if recipient == 3 and sub.parent_holder == 1:
            return dataclasses.replace(sub, value=sub.value + 1)
        return sub

    game = TwoOfNExchange(
        42, 3, subshare_filter=tamper, alpha=1.0, profile=None, seed=13,
        trial=0, cap=5, prime=101, record=True,
    )
    outcome = game.run()
    # Player 3 dropped the forged piece, so its bundle cannot complete
    # holder 1's share for anyone; holder 1 still learns (own share plus
    # the other holder's subshares), the rest cannot.
    assert any(e.kind == "invalid-tag" for e in game.states[3].cheat_evidence)
    assert outcome.info == (1, 0, 0)


def test_lift_alpha_validation():
    with pytest.raises(ValueError):
        lift_2_of_n(42, 3, alpha=0.0, seed=1)
    with pytest.raises(ValueError):
        lift_m_of_n(42, 3, 6, alpha=1.0001, seed=1)


# --- invariants of the shared run loop ----------------------------------------------


class HonestFlaggedGarble(GarbleStep2):
    """A garbling leader that claims to follow the honest rules."""

    honest_rules = True


@pytest.mark.parametrize(
    "lift",
    [
        lambda profile: lift_m_of_n(5, 3, 6, alpha=0.5, profile=profile, seed=1, prime=101),
        lambda profile: lift_2_of_n(5, 4, alpha=0.5, profile=profile, seed=1, prime=101),
    ],
    ids=["3-of-6", "2-of-4"],
)
def test_honest_lift_checks_parity_agreement(lift):
    # Player 2 leads a group in both lifts; its predecessor's parity is
    # corrupted in the first iteration.
    with pytest.raises(InvariantViolationError, match="disagree on parity"):
        lift({2: HonestFlaggedGarble()})
