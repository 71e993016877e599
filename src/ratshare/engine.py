"""Synchronous executor for the randomized secret-sharing mechanism.

One run repeats issue -> coin exchange -> masked bit -> broadcast ->
decide until some player stops or aborts, every player asks for a
restart (fresh shares from a new polynomial), or the iteration cap is
hit.  A player that stops simply goes silent; the others notice the
missing bits one round later and abort, which is the minimal synchronous
realization of stopping.

`GroupedExchange` owns both the run loop (`run`, the only one) and the
coin iteration it repeats (`_coin_iteration`), reading the players'
states, strategies and streams from itself.  A recorded run keeps, per
iteration, the messages sent and nothing else.  Players sit in three
groups; each group's first player leads it, takes one seat on the coin
ring and broadcasts its group's items.  Each iteration issues a fresh
epoch, and `run` refuses a repeat before it touches any state.  Every
delivered item, whether split piece, forwarded item or broadcast, is
judged by `_deliver`, the one place a bundle grows: a holder's split
pieces and a forwarder's items go item by item, each to its own
recipient.  A player's holdings are the holding keys of what it holds
(`holding_key` of an item, written through `item_key`), and the items
themselves travel in bundles: a player's bundle is the valid items it
was handed this epoch, and `_sends` is what it forwards or broadcasts.
An epoch builds items only as they are sent: an m-of-n epoch draws its
polynomial when it is issued, its only draws, and `issue_round` builds
and tags a designated player's share from it only when that player
sends, ahead of what it was handed, so an epoch that sends no share
builds none and one leader's broadcast builds one share.
The others hold only their own share's key.  A leader's payload exists
only once it broadcasts, and its strategy may replace it
(`Strategy.broadcast_payload`).  The 3-ring is the m-of-n
exchange with three one-player groups; the lifts in `ratshare.lifts`
supply the other groupings and what their epochs issue.

Runs are deterministic given (seed, trial, profile, config): only the
issuer and the leaders' coin tosses draw, each from its own substream.
"""

from __future__ import annotations

from functools import partial

from .protocol import (
    ISSUER_ID,
    DecisionKind,
    IterationTranscript,
    MessageKind,
    RoundMessage,
    RunOutcome,
    Step,
    TerminalCause,
    parity_rule,
)
from .seeding import derive_bytes, derive_rng
from .shamir import DEFAULT_PRIME, FieldElement, Share, ShareIssuer, Subshare, require_points
from .strategies import (
    CheatEvidence,
    HonestStrategy,
    LocalState,
    Strategy,
)

DEFAULT_CAP = 10**6

# On Python 3.11 each read of an Enum member goes through
# `EnumType.__getattr__` (about 0.14 us); the per-message and per-decision
# paths read these bindings instead.  They build each message as
# `tuple.__new__(RoundMessage, ...)`, the same `RoundMessage` without the
# NamedTuple's Python-level `__new__`.
_ISSUE = Step.ISSUE
_COIN_EXCHANGE = Step.COIN_EXCHANGE
_MASKED_BIT_STEP = Step.MASKED_BIT
_BROADCAST = Step.BROADCAST
_DECIDE = Step.DECIDE
_DECIDE_INT = int(Step.DECIDE)  # the step that cheat evidence records
_COIN_PLUS = MessageKind.COIN_PLUS
_COIN_MINUS = MessageKind.COIN_MINUS
_MASKED_BIT = MessageKind.MASKED_BIT
_SHARE_BROADCAST = MessageKind.SHARE_BROADCAST
_RESTART_REQUEST = MessageKind.RESTART_REQUEST
_STOP = DecisionKind.STOP
_RESTART = DecisionKind.RESTART
_ABORT = DecisionKind.ABORT


class InvariantViolationError(RuntimeError):
    """A protocol invariant that must hold under honest rules was broken."""


class DuplicateEpochError(ValueError):
    """An epoch issued twice, as a second `run()` of one exchange would."""


def check_run_config(alpha: float, cap: int) -> None:
    """Reject a coin bias outside (0, 1], or an iteration cap that is not an
    int (a bool included) or lies outside [1, 2**53].

    The bulk sampler counts iterations in float64, exact up to 2**53.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if type(cap) is not int:
        raise ValueError(f"iteration cap must be an int, got {cap!r:.40}")
    if cap < 1:
        raise ValueError("iteration cap must be >= 1")
    if cap > 2**53:
        raise ValueError(f"iteration cap must be at most 2**53, got {cap}")


def issue_round(issuer: ShareIssuer, secret: FieldElement, epoch: int,
                coefficients: list[int], holder: int) -> list[Share]:
    """Designated `holder`'s share in `epoch`, as a one-item list: built and
    tagged at its own point of the polynomial whose coefficients
    `ShareIssuer.draw_coefficients` drew when the epoch was issued.  An
    m-of-n epoch calls it once per share sent, as its holder sends
    (`MOfNExchange._sends`), and it draws nothing.  That no epoch is
    issued twice is the run loop's rule (`GroupedExchange.run`)."""
    return issuer.issue_shares(secret, epoch, coefficients, (holder,))


def holding_key(item: Share | Subshare) -> tuple:
    """The key a kept item adds to its holder's holdings: `item_key` of a
    share's holder, or of a subshare's parent holder and index."""
    if isinstance(item, Share):
        return item_key(item.holder)
    return item_key(item.parent_holder, item.index)


def item_key(holder: int, index: int | None = None) -> tuple:
    """The holding key of `holder`'s share, ("share", holder), or of its
    subshare `index`, ("sub", holder, index): the one definition of both."""
    return ("share", holder) if index is None else ("sub", holder, index)


def normalize_profile(
    profile: dict[int, Strategy] | None, players: tuple[int, ...]
) -> dict[int, Strategy]:
    """Fill a (possibly partial) profile with the honest strategy."""
    profile = dict(profile or {})
    unknown = set(profile) - set(players)
    if unknown:
        raise ValueError(f"profile names unknown players {sorted(unknown)}")
    return {pid: profile.get(pid, HonestStrategy()) for pid in players}


class GroupedExchange:
    """The run loop shared by the 3-of-3 mechanism and the group lifts.

    Players 1..n sit in three groups; `leaders[k]`, the first player of
    group k, takes ring seat k+1.  Each iteration issues a fresh epoch, and
    `run` refuses one not past `issued`, the last issued, before any state
    is reset or any draw is made.  Then every player begins afresh, the
    issuer hands out the epoch's material, forwarders hand what they send
    to their group leader, and the seated leaders run the coin iteration
    with what they send as the broadcast payload.  A seated leader left
    short by a forwarder asks the issuer to restart before any coins are
    tossed.

    Subclasses define only what differs: what an epoch puts into holdings
    (keys) and `bundles` (the valid items each player was handed), what a
    player sends (`_sends`), who forwards, the item type and its
    stale-item evidence kind, and 2-of-n's who-learned rule.  A leader
    broadcasts what it sends as a tuple, as its strategy's
    `broadcast_payload` passes it on, and a payload that is no tuple is
    ignored; with `bare_share` (the 3-ring) it broadcasts its one share
    bare, and whatever arrives is judged as one item.  `_deliver` judges
    each delivered item once, however many players receive it: split
    pieces, forwarded items and broadcasts.  Every receiver holds the
    valid items' `holding_key`s and records evidence for the rest; a
    holder's split pieces and a forwarder's items are judged in one call
    each, item by item for its own recipient, whose bundle `_deliver`
    alone grows.  Only the leaders, who toss coins, get a random stream.
    """

    def __init__(
        self,
        secret: FieldElement | int,
        groups: list[list[int]],
        threshold: int,
        *,
        alpha: float,
        profile: dict[int, Strategy] | None,
        seed: int,
        trial: int,
        cap: int,
        record: bool,
    ):
        check_run_config(alpha, cap)
        self.n = sum(len(group) for group in groups)
        self.threshold = threshold
        self.alpha = alpha
        self.cap = cap
        self.record = record
        self.players = tuple(range(1, self.n + 1))
        self.strategies = normalize_profile(profile, self.players)
        self.honest = all(self.strategies[p].honest_rules for p in self.players)
        self.leaders = leaders = [group[0] for group in groups]
        # Each leader's successor and predecessor on the coin ring.
        self.succ = {p: leaders[(k + 1) % 3] for k, p in enumerate(leaders)}
        self.pred = {p: leaders[k - 1] for k, p in enumerate(leaders)}
        self.leader_of = {p: leaders[g] for g, group in enumerate(groups) for p in group}
        self.observers = [p for p in self.players if p not in leaders]
        self.forwarders = [
            (p, self.leader_of[p]) for p in self._forwarders() if self.leader_of[p] != p
        ]
        # The field is the secret's own; an int secret lives in DEFAULT_PRIME's.
        if not isinstance(secret, FieldElement):
            secret = FieldElement(secret % DEFAULT_PRIME, DEFAULT_PRIME)
        self.secret = secret
        self.issuer = ShareIssuer(derive_bytes(seed, trial, "issuer-key"), secret.modulus)
        self.issuer_rng = derive_rng(seed, trial, "issuer")
        # Only a coin toss draws; each stream is derived on its own.
        self.rngs = {p: derive_rng(seed, trial, "player", p) for p in leaders}
        self.states = {p: LocalState(player=p) for p in self.players}
        self.issued = -1
        self.bundles: dict[int, list] = {}

    # Subclass hooks ----------------------------------------------------------

    def _issue_epoch(self, epoch: int) -> None:
        """Distribute fresh material for `epoch`: keys into holdings and the
        items handed out at issue, if any, into `bundles`."""
        raise NotImplementedError

    def _sends(self, player: int) -> list:
        """The items `player` sends when it forwards or broadcasts: its bundle."""
        return self.bundles[player]

    def _forwarders(self):
        """Players expected to forward what they send to their group leader."""
        raise NotImplementedError

    item_type: type
    stale_evidence: str
    bare_share = False

    def _learned(self, state: LocalState) -> bool:
        """Who learned, the exchange's call: the keys of `threshold` items of one epoch."""
        return state.learned_earlier or len(state.holdings) >= self.threshold

    def _deliver(self, sender: int, items, epoch: int, receivers, each: bool = False) -> tuple:
        """Hand `sender`'s items of `epoch` to `receivers`, checking each once:
        type, then epoch, then tag.  Every receiver adds the valid items'
        `holding_key`s to its holdings and records the same evidence, dated the
        iteration all players are in, for the rest.  With `each`, item i goes
        to `receivers[i]` alone, which also adds it to its bundle if valid: a
        holder's split pieces, one per other player, or a forwarder's items,
        each item to its leader.  This is the one place a bundle grows.
        Returns the evidence."""
        states = self.states
        keys, evidence = [], ()
        for i, item in enumerate(items):
            if not isinstance(item, self.item_type) or item.epoch != epoch:
                kind = self.stale_evidence
            elif self.issuer.verify_tag(item):
                key = holding_key(item)
                if each:
                    receiver = receivers[i]
                    states[receiver].holdings.add(key)
                    self.bundles[receiver].append(item)
                else:
                    keys.append(key)
                continue
            else:
                kind = "invalid-tag"
            found = CheatEvidence(kind, states[sender].iteration, _DECIDE_INT, sender)
            evidence += (found,)
            if each:
                states[receivers[i]].cheat_evidence.append(found)
        if not each:
            for pid in receivers:
                state = states[pid]
                state.holdings.update(keys)
                state.cheat_evidence += evidence
        return evidence

    # One iteration ------------------------------------------------------------

    def _coin_iteration(
        self, seated: list[int], iteration: int, epoch: int, msgs: list[RoundMessage]
    ) -> dict[int, DecisionKind]:
        """Execute steps 1-4 of one iteration of `epoch` among the seated leaders.

        `seated` lists the leaders still on the ring, in ring order.
        Returns the decisions by player, and appends the messages sent to
        `msgs` only when recording.
        """
        states, strategies, rngs, record = self.states, self.strategies, self.rngs, self.record
        succ, pred = self.succ, self.pred
        decisions: dict[int, DecisionKind] = {}
        live = list(seated)
        broadcasts: list[tuple[int, object]] = []

        def abort(pid: int, step: Step, about: int) -> None:
            live.remove(pid)
            states[pid].cheat_evidence.append(
                CheatEvidence("missing-bit", iteration, int(step), about)
            )
            decisions[pid] = _ABORT

        # Every step is simultaneous: the seated leaders act on what earlier
        # steps delivered, and the step's messages arrive after all have acted.

        # Step 1: each player commits coins, then the masked pieces are sent.
        for pid in seated:
            states[pid].coins = strategies[pid].coins(states[pid], rngs[pid], self.alpha)
        for pid in seated:
            triple = states[pid].coins
            if triple is None:
                continue
            states[succ[pid]].bit_from_pred = triple.c_plus
            states[pred[pid]].bit_from_succ = triple.c_minus
            if record:
                msgs.append(tuple.__new__(RoundMessage, (
                    pid, succ[pid], _COIN_EXCHANGE, _COIN_PLUS, triple.c_plus
                )))
                msgs.append(tuple.__new__(RoundMessage, (
                    pid, pred[pid], _COIN_EXCHANGE, _COIN_MINUS, triple.c_minus
                )))

        # Step 2: read the step-1 bits, then forward the masked combinations
        # to the predecessors.
        masked: list[tuple[int, int]] = []
        for pid in seated:
            st = states[pid]
            if st.bit_from_pred is None or st.bit_from_succ is None:
                abort(pid, _MASKED_BIT_STEP, pred[pid] if st.bit_from_pred is None else succ[pid])
                continue
            bit = strategies[pid].masked_bit(st)
            if bit is not None:
                masked.append((pid, bit))
        for pid, bit in masked:
            states[pred[pid]].masked_from_succ = bit
            if record:
                msgs.append(tuple.__new__(RoundMessage, (
                    pid, pred[pid], _MASKED_BIT_STEP, _MASKED_BIT, bit
                )))

        # Step 3: assemble the parity and decide whether to broadcast to the
        # other seated leaders, then to every observer.  Only a leader that
        # broadcasts asks what it sends, which may build the epoch's items.
        for pid in list(live):
            st = states[pid]
            if st.masked_from_succ is None:
                abort(pid, _BROADCAST, succ[pid])
                continue
            if st.coins is not None:
                st.parity = parity_rule(st.bit_from_pred, st.masked_from_succ, st.coins.c)
            if not strategies[pid].wants_broadcast(st):
                continue
            items = self._sends(pid)
            payload = strategies[pid].broadcast_payload(
                st, items[0] if self.bare_share else tuple(items)
            )
            if payload is not None:
                st.observed_broadcasts.add(pid)
                broadcasts.append((pid, payload))
                if record:
                    recipients = [other for other in seated if other != pid]
                    msgs += [
                        tuple.__new__(RoundMessage, (
                            pid, receiver, _BROADCAST, _SHARE_BROADCAST, payload
                        ))
                        for receiver in recipients + self.observers
                    ]

        # Step 4: take delivery of broadcasts, then stop or ask for a restart.
        for sender, payload in broadcasts:
            items = (payload,) if self.bare_share else payload
            if not isinstance(items, tuple):
                continue
            receivers = [pid for pid in live if pid != sender]
            evidence = self._deliver(sender, items, epoch, receivers + self.observers)
            if not evidence:
                for pid in receivers:
                    states[pid].observed_broadcasts.add(sender)
        for pid in live:
            st = states[pid]
            decision = strategies[pid].decide(st)
            decisions[pid] = decision
            if decision == _RESTART:
                if record:
                    msgs.append(tuple.__new__(RoundMessage, (
                        pid, ISSUER_ID, _DECIDE, _RESTART_REQUEST, None
                    )))
            elif decision == _STOP and not self._learned(st):
                st.cheat_evidence.append(
                    CheatEvidence("stopped-without-learning", iteration, _DECIDE_INT)
                )

        return decisions

    # Main loop ----------------------------------------------------------------

    def run(self) -> RunOutcome:
        states, strategies, record = self.states, self.strategies, self.record
        seated = list(self.leaders)
        leader_states = [states[leader] for leader in self.leaders]
        transcripts: list[IterationTranscript] = []
        ending = None
        iterations = 0

        while iterations < self.cap:
            epoch = iterations  # every iteration issues a fresh epoch
            if epoch <= self.issued:
                raise DuplicateEpochError(f"epoch {epoch} already issued")
            iterations += 1
            for state in states.values():
                # Holdings keep one epoch; the flag keeps what earlier ones taught.
                state.learned_earlier = self._learned(state)
                state.begin_iteration(iterations)
            self._issue_epoch(epoch)
            self.issued = epoch

            # Forwarding phase: every forwarder is asked, even when its
            # leader's seat is vacated; only a seated leader can stall.
            msgs: list[RoundMessage] = []
            if record:
                transcripts.append(IterationTranscript(iterations, epoch, msgs))
            stalled = set()
            for p, leader in self.forwarders:
                if not strategies[p].forwards_to_leader(states[p]):
                    stalled.add(leader)
                    continue
                items = self._sends(p)
                self._deliver(p, items, epoch, [leader] * len(items), each=True)
                if record:
                    msgs.append(tuple.__new__(
                        RoundMessage, (p, leader, _ISSUE, _SHARE_BROADCAST, tuple(items))
                    ))

            if stalled and any(pid in stalled for pid in seated):
                # A leader cannot assemble its bundle: ask the issuer to
                # restart before any coins are tossed.
                if record:
                    msgs += [
                        tuple.__new__(RoundMessage, (pid, ISSUER_ID, _ISSUE, _RESTART_REQUEST, None))
                        for pid in seated
                    ]
                continue

            decisions = self._coin_iteration(seated, iterations, epoch, msgs)

            if self.honest:
                parities = {st.parity for st in leader_states if st.parity is not None}
                if len(parities) > 1:
                    raise InvariantViolationError(
                        f"honest players disagree on parity at iteration {iterations}"
                    )

            restarters = [pid for pid, d in decisions.items() if d == _RESTART]
            if ending is None and len(restarters) < len(seated):
                # The run's first ending decides its cause; within an
                # iteration, aborts (steps 2-3) come before stops (step 4).
                aborted = _ABORT in decisions.values()
                ending = TerminalCause.MISSING_BIT_ABORT if aborted else TerminalCause.CHEAT_STOP
            if not restarters:
                break
            # Who stopped or aborted leaves the ring for good.
            seated = [pid for pid in seated if pid in restarters]

        info = tuple(1 if self._learned(states[p]) else 0 for p in self.players)
        if all(info):
            cause = TerminalCause.ALL_LEARNED
        elif ending is None:
            cause = TerminalCause.ITERATION_CAP_HIT
            info = (0,) * self.n
        else:
            cause = ending
        if self.honest and any(info) and not all(info):
            raise InvariantViolationError(f"honest run terminated with partial info {info}")
        return RunOutcome(iterations=iterations, info=info, cause=cause, transcripts=transcripts)


class MOfNExchange(GroupedExchange):
    """m-of-n Shamir shares; designated players 1..m forward theirs to their leader.

    Only players 1..m can send a share, so an epoch builds shares for them
    alone; every player holds its own share's key, which counts toward the
    threshold.  Issuing an epoch draws its polynomial, the epoch's only
    draws, and hands out no item: a bundle holds only what forwarders hand
    a leader.  A designated player's share is built and tagged through
    `issue_round` when that player sends, as it forwards or broadcasts, so
    an epoch builds one share per sent one and none when nothing is sent.
    Shares sit at the points 1..n, so n must be below p.
    """

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        require_points(self.n, self.secret.modulus)
        self.bare_share = self.n == 3  # the 3-of-3 ring: one player per group
        self.own_keys = {p: item_key(p) for p in self.players}

    def _issue_epoch(self, epoch: int) -> None:
        coefficients = self.issuer.draw_coefficients(self.threshold, self.issuer_rng)
        # `build(p)` is `p`'s share of this epoch, built and tagged at each call.
        self.build = partial(issue_round, self.issuer, self.secret, epoch, coefficients)
        self.bundles = {leader: [] for _, leader in self.forwarders}
        states = self.states
        for p, key in self.own_keys.items():
            states[p].holdings.add(key)

    def _sends(self, player: int) -> list:
        """Its own share, built and tagged now, then what it was handed."""
        return self.build(player) + self.bundles.get(player, [])

    def _forwarders(self):
        return range(1, self.threshold + 1)

    item_type = Share
    stale_evidence = "stale-share"


def run_mechanism(
    secret: FieldElement | int,
    alpha: float,
    profile: dict[int, Strategy] | None = None,
    seed: int = 0,
    *,
    cap: int = DEFAULT_CAP,
    record: bool = True,
    trial: int = 0,
) -> RunOutcome:
    """Run the 3-of-3 mechanism to termination, in the secret's field.

    Deterministic given (seed, trial, profile, config).  The iteration cap
    is a simulation guard, reported as its own terminal cause rather than
    raised.
    """
    return MOfNExchange(
        secret,
        [[1], [2], [3]],
        3,
        alpha=alpha,
        profile=profile,
        seed=seed,
        trial=trial,
        cap=cap,
        record=record,
    ).run()
