"""Wire types and pure step rules of the randomized share-exchange mechanism.

Three players sit on a ring.  Each iteration they draw a send-intent coin
(heads with probability alpha) plus a uniform masking bit, exchange the
masked pieces, and each computes the joint parity of all three coins
without learning any individual coin.  A player broadcasts its share only
when the parity and its own coin are both 1; afterwards everyone either
stops or asks the issuer to restart with fresh shares.

Messages take exactly one synchronous round to arrive: bits sent at the
coin-exchange step are read at the masked-bit step, masked bits at the
broadcast step, and broadcasts at the decision step.  A recorded
iteration (`IterationTranscript`) keeps the messages it sent and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import NamedTuple


class Step(IntEnum):
    ISSUE = 0
    COIN_EXCHANGE = 1
    MASKED_BIT = 2
    BROADCAST = 3
    DECIDE = 4


STEPS_PER_ITERATION = 5


class MessageKind(Enum):
    COIN_PLUS = "CoinPlus"
    COIN_MINUS = "CoinMinus"
    MASKED_BIT = "MaskedBit"
    SHARE_BROADCAST = "ShareBroadcast"
    RESTART_REQUEST = "RestartRequest"


ISSUER_ID = 0


@dataclass(frozen=True)
class CoinTriple:
    """One iteration's coins: send-intent c plus the two masking pieces."""

    c: int
    c_plus: int
    c_minus: int

    def __post_init__(self) -> None:
        for b in (self.c, self.c_plus, self.c_minus):
            if b not in (0, 1):
                raise ValueError("coin bits must be 0 or 1")
        if self.c_minus != self.c ^ self.c_plus:
            raise ValueError("c_minus must equal c XOR c_plus")

    @classmethod
    def make(cls, c: int, c_plus: int) -> "CoinTriple":
        """One of four prebuilt triples for int bits; anything else is built and checked."""
        if type(c) is int and type(c_plus) is int:
            triple = _TRIPLES.get((c, c_plus))
            if triple is not None:
                return triple
        return cls(c, c_plus, c ^ c_plus)


_TRIPLES = {(c, c_plus): CoinTriple(c, c_plus, c ^ c_plus) for c in (0, 1) for c_plus in (0, 1)}


class RoundMessage(NamedTuple):
    """One message: a tuple, so it unpacks and compares as one.  Its
    iteration is that of the transcript holding it."""

    sender: int
    receiver: int
    step: Step
    kind: MessageKind
    payload: object


class DecisionKind(Enum):
    STOP = "Stop"
    RESTART = "Restart"
    ABORT = "AbortCheatDetected"


class TerminalCause(Enum):
    ALL_LEARNED = "AllLearned"
    CHEAT_STOP = "CheatStop"
    MISSING_BIT_ABORT = "MissingBitAbort"
    ITERATION_CAP_HIT = "IterationCapHit"


@dataclass
class IterationTranscript:
    """The messages one iteration sent, in sending order; they determine
    its coins, parities, broadcasts and decisions."""

    iteration: int
    epoch: int
    messages: list[RoundMessage]


@dataclass
class RunOutcome:
    """Terminal summary of one mechanism run."""

    iterations: int
    info: tuple[int, ...]
    cause: TerminalCause
    transcripts: list[IterationTranscript] = field(default_factory=list)

    @property
    def total_steps(self) -> int:
        return STEPS_PER_ITERATION * self.iterations


# --- pure per-step rules of the recommended strategy -------------------------


def masked_bit_rule(c_minus_from_succ: int, own_c: int) -> int:
    """Bit forwarded to the predecessor at the masked-bit step."""
    return c_minus_from_succ ^ own_c


def parity_rule(c_plus_from_pred: int, masked_from_succ: int, own_c: int) -> int:
    """Joint parity of all three coins, assembled from local observations."""
    return c_plus_from_pred ^ masked_from_succ ^ own_c


def broadcast_rule(parity: int | None, own_c: int | None) -> bool:
    """Broadcast the share exactly when parity and the own coin are both 1."""
    return parity == 1 and own_c == 1


def restart_rule(parity: int, observed_count: int) -> bool:
    """Ask the issuer to restart, or stop.

    Restart exactly when the iteration looks like honest bad luck: parity 0
    with no shares seen, or parity 1 with exactly one share seen (counting
    one's own share iff one broadcast it).  Every other combination means
    either success or that someone must have cheated, so the player stops.
    """
    return (parity == 0 and observed_count == 0) or (parity == 1 and observed_count == 1)
