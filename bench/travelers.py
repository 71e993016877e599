"""Seed-generated traveler's dilemma games with a planted deletion oracle.

Two players claim one of k increasing values.  Equal claims pay the
claim; otherwise both are paid the lower claim, plus the reward to the
player who made it and minus the reward from the other.  When the reward
is at least the largest gap between neighbouring claims, the highest
remaining claim is the only weakly dominated strategy (the next lower
claim does at least as well against everything and strictly better
against itself), so delete-all deletion takes exactly k - 1 rounds and
leaves only the lowest claim, and (lowest, lowest) is a Nash
equilibrium.  Claims, reward and the order of the strategy labels all
come from the seed, so index order says nothing about claim order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product


def travelers_dilemma(seed: int, k: int) -> tuple[dict, str]:
    """Return (game document for `dominance --game`, label of the lowest claim)."""
    if k < 2:
        raise ValueError(f"need at least 2 claims, got {k}")
    rng = random.Random(f"travelers/{seed}/{k}")
    claims = [rng.randint(2, 20)]
    for _ in range(k - 1):
        claims.append(claims[-1] + rng.randint(1, 3))
    gap = max(b - a for a, b in zip(claims, claims[1:]))
    reward = gap + Fraction(rng.randint(0, 12), rng.randint(1, 4))
    value = {f"c{c}": c for c in claims}
    labels = list(value)
    rng.shuffle(labels)
    payoffs = {}
    for a, b in product(labels, repeat=2):
        x, y = value[a], value[b]
        if x == y:
            pay = (Fraction(x), Fraction(y))
        elif x < y:
            pay = (x + reward, x - reward)
        else:
            pay = (y - reward, y + reward)
        payoffs[f"{a},{b}"] = [str(u) for u in pay]
    doc = {
        "name": f"travelers-k{k}",
        "players": 2,
        "strategies": [labels, labels],
        "payoffs": payoffs,
    }
    return doc, f"c{claims[0]}"


def brute_force_deletion(doc: dict) -> tuple[int, list[list[str]]]:
    """Delete-all weak-dominance deletion straight from a two-player document.

    Returns (rounds that deleted something, sorted survivors per player).
    Written independently of ratshare.dominance as the test oracle.
    """
    labels = doc["strategies"]
    pay = {tuple(key.split(",")): [Fraction(u) for u in us] for key, us in doc["payoffs"].items()}

    def u(player: int, own: str, other: str) -> Fraction:
        key = (own, other) if player == 0 else (other, own)
        return pay[key][player]

    alive = [set(labels[0]), set(labels[1])]
    rounds = 0
    while True:
        doomed = [set(), set()]
        for player in (0, 1):
            others = alive[1 - player]
            for s in alive[player]:
                for t in alive[player] - {s}:
                    diffs = [u(player, t, o) - u(player, s, o) for o in others]
                    if min(diffs) >= 0 and max(diffs) > 0:
                        doomed[player].add(s)
                        break
        if not doomed[0] and not doomed[1]:
            return rounds, [sorted(a) for a in alive]
        alive = [alive[0] - doomed[0], alive[1] - doomed[1]]
        rounds += 1
