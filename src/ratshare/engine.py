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
groups; each group's leader takes one seat on the coin ring and
broadcasts its group's bundle.  The 3-of-3 mechanism is the m-of-n share
exchange with three one-player groups, and the lifts in `ratshare.lifts`
supply the other groupings and payloads through the exchange's hooks.

Runs are deterministic given (seed, trial, profile, config): each player
and the issuer draw from independent derived substreams.
"""

from __future__ import annotations

from random import Random

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
from .shamir import DEFAULT_PRIME, FieldElement, Share, ShareIssuer
from .strategies import (
    CheatEvidence,
    HonestStrategy,
    LocalState,
    Strategy,
)

DEFAULT_CAP = 10**6


class InvariantViolationError(RuntimeError):
    """A protocol invariant that must hold under honest rules was broken."""


class DuplicateEpochError(ValueError):
    """An epoch was issued twice."""


def check_run_config(alpha: float, cap: int) -> None:
    """Reject a coin bias outside (0, 1] or an iteration cap outside [1, 2**53].

    The bulk sampler counts iterations in float64, exact up to 2**53.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if cap < 1:
        raise ValueError("iteration cap must be >= 1")
    if cap > 2**53:
        raise ValueError(f"iteration cap must be at most 2**53, got {cap}")


def issue_round(
    issuer: ShareIssuer,
    secret: FieldElement,
    m: int,
    n: int,
    epoch: int,
    rng: Random,
    issued: int,
) -> dict[int, Share]:
    """Issue one epoch of shares, one per player, from a fresh polynomial; epochs
    go up, so one not past `issued`, the last issued (-1 at first), is a repeat."""
    if epoch <= issued:
        raise DuplicateEpochError(f"epoch {epoch} already issued")
    shares = issuer.issue_shares(secret, m, n, epoch, rng)
    return {share.holder: share for share in shares}


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

    Players 1..n sit in three groups; `leaders[k]` takes ring seat k+1.
    Each iteration every player begins afresh, the issuer hands out the
    epoch's material, forwarders hand their bundle to their group leader,
    and the seated leaders run the coin iteration with their group's
    bundle as the broadcast payload.  A seated leader left short by a
    forwarder asks the issuer to restart before any coins are tossed.

    Subclasses define what one epoch issues, who forwards, what a
    player's bundle is, and its items' type, stale-item evidence kind and
    holding key, which `_accept_item`, the one item check, reads.
    """

    def __init__(
        self,
        secret: FieldElement | int,
        groups: list[list[int]],
        leaders: list[int],
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
        self.leaders = leaders
        # Each leader's successor and predecessor on the coin ring.
        self.succ = {p: leaders[(k + 1) % 3] for k, p in enumerate(leaders)}
        self.pred = {p: leaders[k - 1] for k, p in enumerate(leaders)}
        self.leader_of = {p: leaders[g] for g, group in enumerate(groups) for p in group}
        self.observers = [p for p in self.players if p not in leaders]
        # The field is the secret's own; an int secret lives in DEFAULT_PRIME's.
        if not isinstance(secret, FieldElement):
            secret = FieldElement(secret % DEFAULT_PRIME, DEFAULT_PRIME)
        self.secret = secret
        self.issuer = ShareIssuer(derive_bytes(seed, trial, "issuer-key"), secret.modulus)
        self.issuer_rng = derive_rng(seed, trial, "issuer")
        self.rngs = {p: derive_rng(seed, trial, "player", p) for p in self.players}
        self.states = {p: LocalState(player=p) for p in self.players}
        self.issued = -1

    # Subclass hooks ----------------------------------------------------------

    def _issue_epoch(self, epoch: int) -> None:
        """Distribute fresh material for `epoch` into holdings; set `issued`."""
        raise NotImplementedError

    def _forwarders(self):
        """Players expected to forward their bundle to their group leader."""
        raise NotImplementedError

    def _bundle(self, player: int) -> list:
        """What `player` holds of this epoch and hands on: a fresh list."""
        raise NotImplementedError

    item_type: type
    stale_evidence: str

    def _holding_key(self, item) -> tuple:
        """Where a received item is kept in its holder's holdings."""
        raise NotImplementedError

    def _learned(self, state: LocalState) -> bool:
        """Who learned, the exchange's call: `threshold` items of one epoch."""
        return state.learned_earlier or len(state.holdings) >= self.threshold

    def _accept_item(self, state: LocalState, sender: int, item) -> bool:
        """Validate one broadcast/forwarded item of the state's epoch and store it."""
        if not isinstance(item, self.item_type) or item.epoch != state.epoch:
            evidence = CheatEvidence(self.stale_evidence, state.iteration, int(Step.DECIDE), sender)
        elif not self.issuer.verify_tag(item):
            evidence = CheatEvidence("invalid-tag", state.iteration, int(Step.DECIDE), sender)
        else:
            state.add_holding(self._holding_key(item), item)
            return True
        state.cheat_evidence.append(evidence)
        return False

    def _payload(self, bundle: list) -> object:
        return tuple(bundle)

    def _accept_payload(self, state: LocalState, sender: int, payload) -> bool:
        if not isinstance(payload, tuple):
            return False
        ok = True
        for item in payload:
            if not self._accept_item(state, sender, item):
                ok = False
        return ok

    # One iteration ------------------------------------------------------------

    def _coin_iteration(
        self, seated: list[int], iteration: int, msgs: list[RoundMessage]
    ) -> dict[int, DecisionKind]:
        """Execute steps 1-4 of one iteration among the seated leaders.

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
            decisions[pid] = DecisionKind.ABORT

        # Each bit goes straight into its receiver's state, which reads it
        # one step later: step-1 bits at step 2, masked bits at step 3.  A
        # strategy must not read a bit during the step that sends it.

        # Step 1: each player commits coins and sends the masked pieces.
        for pid in seated:
            st = states[pid]
            triple = strategies[pid].coins(st, rngs[pid], self.alpha)
            st.coins = triple
            if triple is None:
                continue
            states[succ[pid]].bit_from_pred = triple.c_plus
            states[pred[pid]].bit_from_succ = triple.c_minus
            if record:
                msgs.append(RoundMessage(
                    pid, succ[pid], Step.COIN_EXCHANGE, MessageKind.COIN_PLUS, triple.c_plus
                ))
                msgs.append(RoundMessage(
                    pid, pred[pid], Step.COIN_EXCHANGE, MessageKind.COIN_MINUS, triple.c_minus
                ))

        # Step 2: read the step-1 bits, forward the masked combination to the
        # predecessor.
        for pid in seated:
            st = states[pid]
            if st.bit_from_pred is None or st.bit_from_succ is None:
                abort(pid, Step.MASKED_BIT, pred[pid] if st.bit_from_pred is None else succ[pid])
                continue
            bit = strategies[pid].masked_bit(st, rngs[pid])
            if bit is not None:
                states[pred[pid]].masked_from_succ = bit
                if record:
                    msgs.append(RoundMessage(
                        pid, pred[pid], Step.MASKED_BIT, MessageKind.MASKED_BIT, bit
                    ))

        # Step 3: assemble the parity and decide whether to broadcast to the
        # other seated leaders, then to every observer.
        for pid in list(live):
            st = states[pid]
            if st.masked_from_succ is None:
                abort(pid, Step.BROADCAST, succ[pid])
                continue
            if st.coins is not None:
                st.parity = parity_rule(st.bit_from_pred, st.masked_from_succ, st.coins.c)
            if strategies[pid].wants_broadcast(st, rngs[pid]) and st.own_payload is not None:
                st.observed_broadcasts.add(pid)
                broadcasts.append((pid, st.own_payload))
                if record:
                    recipients = [other for other in seated if other != pid]
                    msgs += [
                        RoundMessage(
                            pid, receiver, Step.BROADCAST, MessageKind.SHARE_BROADCAST, st.own_payload
                        )
                        for receiver in recipients + self.observers
                    ]

        # Step 4: take delivery of broadcasts, then stop or ask for a restart.
        for sender, payload in broadcasts:
            for pid in live:
                if pid != sender and self._accept_payload(states[pid], sender, payload):
                    states[pid].observed_broadcasts.add(sender)
            for obs in self.observers:
                self._accept_payload(states[obs], sender, payload)
        for pid in live:
            st = states[pid]
            decision = strategies[pid].decide(st, rngs[pid])
            decisions[pid] = decision
            if decision == DecisionKind.RESTART:
                if record:
                    msgs.append(RoundMessage(
                        pid, ISSUER_ID, Step.DECIDE, MessageKind.RESTART_REQUEST, None
                    ))
            elif decision == DecisionKind.STOP and not self._learned(st):
                st.cheat_evidence.append(
                    CheatEvidence("stopped-without-learning", iteration, int(Step.DECIDE))
                )

        return decisions

    # Main loop ----------------------------------------------------------------

    def run(self) -> RunOutcome:
        states, strategies, rngs, record = self.states, self.strategies, self.rngs, self.record
        seated = list(self.leaders)
        leader_states = [states[leader] for leader in self.leaders]
        forwarders = [
            (p, self.leader_of[p]) for p in self._forwarders() if self.leader_of[p] != p
        ]
        transcripts: list[IterationTranscript] = []
        ending = None
        iterations = 0

        while iterations < self.cap:
            iterations += 1
            epoch = iterations - 1  # every iteration issues a fresh epoch
            for state in states.values():
                # Holdings keep one epoch; the flag keeps what earlier ones taught.
                state.learned_earlier = self._learned(state)
                state.begin_iteration(iterations, epoch)
            self._issue_epoch(epoch)

            # Forwarding phase: every forwarder is asked, even when its
            # leader's seat is vacated; only a seated leader can stall.
            bundles = {leader: self._bundle(leader) for leader in self.leaders}
            msgs: list[RoundMessage] = []
            if record:
                transcripts.append(IterationTranscript(iterations, epoch, msgs))
            stalled = set()
            for p, leader in forwarders:
                if not strategies[p].forwards_to_leader(states[p], rngs[p]):
                    stalled.add(leader)
                    continue
                items = self._bundle(p)
                for item in items:
                    if self._accept_item(states[leader], p, item):
                        bundles[leader].append(item)
                if record:
                    msgs.append(
                        RoundMessage(p, leader, Step.ISSUE, MessageKind.SHARE_BROADCAST, tuple(items))
                    )

            if stalled and any(pid in stalled for pid in seated):
                # A leader cannot assemble its bundle: ask the issuer to
                # restart before any coins are tossed.
                if record:
                    msgs += [
                        RoundMessage(pid, ISSUER_ID, Step.ISSUE, MessageKind.RESTART_REQUEST, None)
                        for pid in seated
                    ]
                continue

            for pid in seated:
                states[pid].own_payload = self._payload(bundles[pid])
            decisions = self._coin_iteration(seated, iterations, msgs)

            if self.honest:
                parities = {st.parity for st in leader_states if st.parity is not None}
                if len(parities) > 1:
                    raise InvariantViolationError(
                        f"honest players disagree on parity at iteration {iterations}"
                    )

            restarters = [pid for pid, d in decisions.items() if d == DecisionKind.RESTART]
            if ending is None and len(restarters) < len(seated):
                # The run's first ending decides its cause; within an
                # iteration, aborts (steps 2-3) come before stops (step 4).
                aborted = DecisionKind.ABORT in decisions.values()
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
    """m-of-n Shamir shares; designated players 1..m forward theirs to their leader."""

    def _issue_epoch(self, epoch: int) -> None:
        shares = issue_round(
            self.issuer, self.secret, self.threshold, self.n, epoch, self.issuer_rng, self.issued
        )
        self.issued = epoch
        for p in self.players:
            self.states[p].add_holding(("share", p), shares[p])

    def _forwarders(self):
        return range(1, self.threshold + 1)

    def _bundle(self, player: int) -> list[Share]:
        return [self.states[player].holdings[("share", player)]]

    item_type = Share
    stale_evidence = "stale-share"

    def _holding_key(self, item: Share) -> tuple:
        return ("share", item.x.value)

    # The 3-of-3 ring (n = 3, one player per group) broadcasts the bare
    # share rather than a one-share bundle.

    def _payload(self, bundle: list[Share]) -> object:
        return bundle[0] if self.n == 3 else tuple(bundle)

    def _accept_payload(self, state: LocalState, sender: int, payload) -> bool:
        if self.n == 3:
            return self._accept_item(state, sender, payload)
        return super()._accept_payload(state, sender, payload)


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
        [1, 2, 3],
        3,
        alpha=alpha,
        profile=profile,
        seed=seed,
        trial=trial,
        cap=cap,
        record=record,
    ).run()
