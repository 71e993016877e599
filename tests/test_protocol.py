"""Ring, coin triples, and the pure per-step rules."""

import pytest

from ratshare.engine import MOfNExchange
from ratshare.lifts import TwoOfNExchange, partition_players
from ratshare.protocol import (
    CoinTriple,
    broadcast_rule,
    masked_bit_rule,
    parity_rule,
    restart_rule,
)


def test_ring_wraparound():
    # The 3-ring's last leader passes to its first, and the first hears
    # from the last.
    game = MOfNExchange(5, [[1], [2], [3]], 3, alpha=0.5, profile=None,
                        seed=0, trial=0, cap=10, record=False)
    assert game.succ[3] == 1
    assert game.pred[1] == 3
    assert game.succ[1] == 2
    assert game.pred[2] == 1


def test_ring_successor_predecessor_inverse():
    # On the 3-ring and on both lifts (whose leaders are 1, 2, 3 and 1, 2,
    # 4), succ and pred are inverse and form one 3-cycle in leaders order.
    run = dict(alpha=0.5, profile=None, seed=0, trial=0, cap=10, record=False)
    for game in (
        MOfNExchange(5, [[1], [2], [3]], 3, **run),
        MOfNExchange(5, partition_players(6, 3), 3, **run),
        TwoOfNExchange(5, 5, **run),
    ):
        leaders = game.leaders
        assert set(game.succ) == set(game.pred) == set(leaders)
        for k, leader in enumerate(leaders):
            assert game.succ[leader] == leaders[(k + 1) % 3]
            assert game.pred[game.succ[leader]] == leader
            assert game.succ[game.pred[leader]] == leader


def test_coin_triple_invariant():
    t = CoinTriple.make(1, 0)
    assert (t.c, t.c_plus, t.c_minus) == (1, 0, 1)
    with pytest.raises(ValueError):
        CoinTriple(1, 0, 0)
    with pytest.raises(ValueError):
        CoinTriple(2, 0, 0)


def test_coin_triple_make_shares_prebuilt_triples_and_checks_the_rest():
    for c in (0, 1):
        for c_plus in (0, 1):
            t = CoinTriple.make(c, c_plus)
            assert t is CoinTriple.make(c, c_plus)
            assert (t.c, t.c_plus, t.c_minus) == (c, c_plus, c ^ c_plus)
    for bad in ((2, 0), (0, -1), (1, 3)):
        with pytest.raises(ValueError):
            CoinTriple.make(*bad)
    # Non-int bits are built as given, as before prebuilt triples.
    assert CoinTriple.make(True, 0).c is True


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

