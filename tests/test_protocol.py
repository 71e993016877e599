"""Ring, coin triples, and the pure per-step rules."""

import pytest

from ratshare.protocol import (
    RING,
    CoinTriple,
    PlayerRing,
    RunOutcome,
    TerminalCause,
    broadcast_rule,
    masked_bit_rule,
    parity_rule,
    restart_rule,
)


def test_ring_wraparound():
    assert RING.successor(3) == 1
    assert RING.predecessor(1) == 3
    assert RING.successor(1) == 2
    assert RING.predecessor(2) == 1


def test_ring_successor_predecessor_inverse():
    ring = PlayerRing()
    for i in (1, 2, 3):
        assert ring.predecessor(ring.successor(i)) == i
        assert ring.successor(ring.predecessor(i)) == i


def test_coin_triple_invariant():
    t = CoinTriple.make(1, 0)
    assert (t.c, t.c_plus, t.c_minus) == (1, 0, 1)
    with pytest.raises(ValueError):
        CoinTriple(1, 0, 0)
    with pytest.raises(ValueError):
        CoinTriple(2, 0, 0)


def test_masked_bit_rule():
    assert masked_bit_rule(1, 1) == 0
    assert masked_bit_rule(0, 1) == 1


def test_parity_assembles_all_three_coins():
    # Over every coin assignment, combining the three observed bits yields
    # the XOR of the three send-intent coins.
    for c1 in (0, 1):
        for c2 in (0, 1):
            for c3 in (0, 1):
                for p1 in (0, 1):
                    for p3 in (0, 1):
                        # Player 1's view: pred is 3, succ is 2.
                        bit_from_pred = p3  # player 3's plus piece
                        masked = masked_bit_rule(c3 ^ p3, c2)  # from player 2
                        assert parity_rule(bit_from_pred, masked, c1) == c1 ^ c2 ^ c3


def test_broadcast_rule():
    assert broadcast_rule(1, 1)
    assert not broadcast_rule(0, 1)
    assert not broadcast_rule(1, 0)
    assert not broadcast_rule(None, None)


@pytest.mark.parametrize(
    "parity,count,expect_restart",
    [
        (1, 3, False),  # success: stop with everything in hand
        (1, 0, False),  # a supposed sender withheld against two tails
        (1, 1, True),   # lone honest sender
        (1, 2, False),  # someone withheld against a head
        (0, 0, True),   # silent iteration
        (0, 1, False),  # share seen despite parity 0
    ],
)
def test_restart_rule(parity, count, expect_restart):
    assert restart_rule(parity, count) is expect_restart


def test_run_outcome_step_accounting():
    out = RunOutcome(iterations=3, info=(1, 1, 1), cause=TerminalCause.ALL_LEARNED)
    assert out.total_steps == 15
