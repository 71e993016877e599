"""Synchronous executor for the randomized secret-sharing mechanism.

One run repeats issue -> coin exchange -> masked bit -> broadcast ->
decide until some player stops or aborts, every player asks for a
restart (fresh shares from a new polynomial), or the iteration cap is
hit.  A player that stops simply goes silent; the others notice the
missing bits one round later and abort, which is the minimal synchronous
realization of stopping.

`GroupedExchange.run` is the only run loop.  Players sit in three
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
    RESTART,
    RING,
    Decision,
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

_SUCC = {pos: RING.successor(pos) for pos in (1, 2, 3)}
_PRED = {pos: RING.predecessor(pos) for pos in (1, 2, 3)}


class InvariantViolationError(RuntimeError):
    """A protocol invariant that must hold under honest rules was broken."""


class DuplicateEpochError(ValueError):
    """An epoch was issued twice."""


def check_run_config(alpha: float, cap: int) -> None:
    """Reject a coin bias outside (0, 1] or an iteration cap below 1."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if cap < 1:
        raise ValueError("iteration cap must be >= 1")


def issue_round(
    issuer: ShareIssuer,
    secret: FieldElement,
    m: int,
    n: int,
    epoch: int,
    rng: Random,
    issued: set[int],
) -> dict[int, Share]:
    """Issue one epoch of shares, one per player, from a fresh polynomial."""
    if epoch in issued:
        raise DuplicateEpochError(f"epoch {epoch} already issued")
    shares = issuer.issue_shares(secret, m, n, epoch, rng)
    issued.add(epoch)
    return {share.holder: share for share in shares}


class _Seat:
    """One ring position: player id, local state, strategy, and stream."""

    __slots__ = ("pos", "pid", "state", "strategy", "rng")

    def __init__(self, pos: int, pid: int, state: LocalState, strategy: Strategy, rng: Random):
        self.pos = pos
        self.pid = pid
        self.state = state
        self.strategy = strategy
        self.rng = rng


def _run_coin_iteration(
    seats: dict[int, _Seat | None],
    pids: dict[int, int],
    alpha: float,
    iteration: int,
    epoch: int,
    accept_broadcast,
    observers: list[LocalState],
    record: bool,
):
    """Execute steps 1-4 of one iteration among the seated ring members.

    `pids` maps every ring position (vacated or not) to its player id.
    `accept_broadcast(state, sender_pid, payload)` validates a received
    broadcast (tag and epoch), updates holdings, and returns whether it
    counts as received.  Returns (decisions by position, transcript,
    terminal events as (step, kind) pairs).
    """
    msgs: list[RoundMessage] = []
    events: list[tuple[int, str]] = []
    decisions: dict[int, Decision] = {}
    live = {pos: seat for pos, seat in seats.items() if seat is not None}
    inbox_plus: dict[int, int] = {}
    inbox_minus: dict[int, int] = {}
    inbox_masked: dict[int, int] = {}
    broadcasts: list[tuple[int, int, object]] = []

    def pid_of(pos: int) -> int:
        return pids.get(pos, pos)  # the issuer (0) is not seated

    def send(seat: _Seat, receiver_pos: int, step: Step, kind: MessageKind, payload) -> None:
        if record:
            msgs.append(RoundMessage(seat.pid, pid_of(receiver_pos), step, kind, payload, iteration))

    def abort(pos: int, step: Step, about_pos: int, detail: str) -> None:
        seat = live.pop(pos)
        seat.state.cheat_evidence.append(
            CheatEvidence("missing-bit", iteration, int(step), pid_of(about_pos), detail)
        )
        decisions[pos] = Decision(DecisionKind.ABORT)
        events.append((int(step), "abort"))

    # Step 1: each player commits coins and sends the masked pieces.
    for pos in sorted(live):
        seat = live[pos]
        seat.state.step = Step.COIN_EXCHANGE
        triple = seat.strategy.coins(seat.state, seat.rng, alpha)
        seat.state.coins = triple
        if triple is None:
            continue
        succ, pred = _SUCC[pos], _PRED[pos]
        inbox_plus[succ] = triple.c_plus
        inbox_minus[pred] = triple.c_minus
        send(seat, succ, Step.COIN_EXCHANGE, MessageKind.COIN_PLUS, triple.c_plus)
        send(seat, pred, Step.COIN_EXCHANGE, MessageKind.COIN_MINUS, triple.c_minus)

    # Step 2: read the step-1 bits (delivered one round later), forward the
    # masked combination to the predecessor.
    for pos in sorted(live):
        seat = live[pos]
        st = seat.state
        st.step = Step.MASKED_BIT
        st.bit_from_pred = inbox_plus.get(pos)
        st.bit_from_succ = inbox_minus.get(pos)
        if st.bit_from_pred is None or st.bit_from_succ is None:
            missing = _PRED[pos] if st.bit_from_pred is None else _SUCC[pos]
            abort(pos, Step.MASKED_BIT, missing, "expected coin bit never arrived")
            continue
        bit = seat.strategy.masked_bit(st, seat.rng)
        if bit is not None:
            pred = _PRED[pos]
            inbox_masked[pred] = bit
            send(seat, pred, Step.MASKED_BIT, MessageKind.MASKED_BIT, bit)

    # Step 3: assemble the parity and decide whether to broadcast.
    for pos in sorted(live):
        seat = live[pos]
        st = seat.state
        st.step = Step.BROADCAST
        masked = inbox_masked.get(pos)
        st.masked_from_succ = masked
        if masked is None:
            abort(pos, Step.BROADCAST, _SUCC[pos], "expected masked bit never arrived")
            continue
        if st.coins is not None:
            st.parity = parity_rule(st.bit_from_pred, masked, st.coins.c)
        if seat.strategy.wants_broadcast(st, seat.rng) and st.own_payload is not None:
            st.broadcast_own = True
            st.observed_broadcasts.add(seat.pid)
            broadcasts.append((seat.pid, pos, st.own_payload))
            for other in sorted(seats):
                if other != pos and seats[other] is not None:
                    send(seat, other, Step.BROADCAST, MessageKind.SHARE_BROADCAST, st.own_payload)
            if record:
                for obs in observers:
                    msgs.append(
                        RoundMessage(
                            seat.pid,
                            obs.player,
                            Step.BROADCAST,
                            MessageKind.SHARE_BROADCAST,
                            st.own_payload,
                            iteration,
                        )
                    )

    # Step 4: take delivery of broadcasts, then stop or ask for a restart.
    for sender_pid, sender_pos, payload in broadcasts:
        for pos, seat in live.items():
            if pos == sender_pos:
                continue
            if accept_broadcast(seat.state, sender_pid, payload):
                seat.state.observed_broadcasts.add(sender_pid)
        for obs in observers:
            accept_broadcast(obs, sender_pid, payload)
    for pos in sorted(live):
        seat = live[pos]
        st = seat.state
        st.step = Step.DECIDE
        decision = seat.strategy.decide(st, seat.rng)
        decisions[pos] = decision
        if decision.kind == DecisionKind.RESTART:
            send(seat, ISSUER_ID, Step.DECIDE, MessageKind.RESTART_REQUEST, None)
        elif decision.kind == DecisionKind.STOP:
            events.append((int(Step.DECIDE), "stop"))
            if not decision.learned:
                st.cheat_evidence.append(
                    CheatEvidence(
                        "stopped-without-learning",
                        iteration,
                        int(Step.DECIDE),
                        None,
                        f"parity={st.parity} broadcasts={st.observed_count}",
                    )
                )

    transcript = IterationTranscript(
        iteration=iteration,
        epoch=epoch,
        coins={seat.pid: seat.state.coins for seat in seats.values() if seat},
        parities={seat.pid: seat.state.parity for seat in seats.values() if seat},
        broadcasters=tuple(sender for sender, _, _ in broadcasts),
        decisions={pid_of(pos): d for pos, d in decisions.items()},
        messages=msgs,
    )
    return decisions, transcript, events


def normalize_profile(
    profile: dict[int, Strategy] | None, players: tuple[int, ...]
) -> dict[int, Strategy]:
    """Fill a (possibly partial) profile with the honest strategy."""
    profile = dict(profile or {})
    unknown = set(profile) - set(players)
    if unknown:
        raise ValueError(f"profile names unknown players {sorted(unknown)}")
    return {pid: profile.get(pid, HonestStrategy()) for pid in players}


def _resolve_cause(
    info: tuple[int, ...], first_event: tuple[int, int, str] | None
) -> TerminalCause:
    if all(info):
        return TerminalCause.ALL_LEARNED
    if first_event is None:
        return TerminalCause.ITERATION_CAP_HIT
    return (
        TerminalCause.CHEAT_STOP
        if first_event[2] == "stop"
        else TerminalCause.MISSING_BIT_ABORT
    )


def _merge_events(
    first_event: tuple[int, int, str] | None,
    iteration: int,
    events: list[tuple[int, str]],
) -> tuple[int, int, str] | None:
    for step, kind in events:
        candidate = (iteration, step, kind)
        if first_event is None or candidate[:2] < first_event[:2]:
            first_event = candidate
    return first_event


class GroupedExchange:
    """The run loop shared by the 3-of-3 mechanism and the group lifts.

    Players 1..n sit in three groups; `leaders[k]` takes ring seat k+1.
    Each iteration every player begins afresh, the issuer hands out the
    epoch's material, forwarders hand their bundle to their group leader,
    and the seated leaders run the coin iteration with their group's
    bundle as the broadcast payload.  A seated leader left short by a
    forwarder asks the issuer to restart before any coins are tossed.

    Subclasses define what one epoch issues, who forwards, what a
    player's bundle is, and how a received item is validated.
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
        prime: int,
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
        self.leader_of = {p: leaders[g] for g, group in enumerate(groups) for p in group}
        self.issuer = ShareIssuer(derive_bytes(seed, trial, "issuer-key"), prime)
        self.issuer_rng = derive_rng(seed, trial, "issuer")
        self.rngs = {p: derive_rng(seed, trial, "player", p) for p in self.players}
        self.states = {
            p: LocalState(player=p, n_players=self.n, threshold=threshold) for p in self.players
        }
        self.issued: set[int] = set()
        if not isinstance(secret, FieldElement):
            secret = FieldElement(secret % prime, prime)
        self.secret = secret

    # Subclass hooks ----------------------------------------------------------

    def _issue_epoch(self, epoch: int) -> None:
        """Distribute fresh material for `epoch` into player holdings."""
        raise NotImplementedError

    def _forwarders(self):
        """Players expected to forward their bundle to their group leader."""
        raise NotImplementedError

    def _bundle(self, player: int, epoch: int) -> list:
        """What `player` holds for `epoch` and hands on: a fresh list."""
        raise NotImplementedError

    def _accept_item(self, state: LocalState, sender: int, item) -> bool:
        """Validate one broadcast/forwarded item of the state's epoch and store it."""
        raise NotImplementedError

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

    # Main loop ----------------------------------------------------------------

    def run(self) -> RunOutcome:
        states, strategies, rngs, record = self.states, self.strategies, self.rngs, self.record
        seats: dict[int, _Seat | None] = {
            pos: _Seat(pos, leader, states[leader], strategies[leader], rngs[leader])
            for pos, leader in enumerate(self.leaders, start=1)
        }
        pids = {pos: leader for pos, leader in enumerate(self.leaders, start=1)}
        observers = [states[p] for p in self.players if p not in self.leaders]
        leader_states = [states[leader] for leader in self.leaders]
        forwarders = [
            (p, self.leader_of[p]) for p in self._forwarders() if self.leader_of[p] != p
        ]
        transcripts: list[IterationTranscript] = []
        first_event = None
        epoch = 0
        iterations = 0

        while iterations < self.cap:
            iterations += 1
            for state in states.values():
                state.begin_iteration(iterations, epoch, None)
            self._issue_epoch(epoch)

            # Forwarding phase: every forwarder is asked, even when its
            # leader's seat is vacated; only a seated leader can stall.
            bundles = {leader: self._bundle(leader, epoch) for leader in self.leaders}
            msgs: list[RoundMessage] = []
            stalled = set()
            for p, leader in forwarders:
                if not strategies[p].forwards_to_leader(states[p], rngs[p]):
                    stalled.add(leader)
                    continue
                items = self._bundle(p, epoch)
                for item in items:
                    if self._accept_item(states[leader], p, item):
                        bundles[leader].append(item)
                if record:
                    msgs.append(
                        RoundMessage(
                            p, leader, Step.ISSUE, MessageKind.SHARE_BROADCAST, tuple(items), iterations
                        )
                    )

            seated = [seat for seat in seats.values() if seat is not None]
            if stalled and any(seat.pid in stalled for seat in seated):
                # A leader cannot assemble its bundle: ask the issuer to
                # restart before any coins are tossed.
                if record:
                    msgs += [
                        RoundMessage(
                            seat.pid, ISSUER_ID, Step.ISSUE, MessageKind.RESTART_REQUEST, None, iterations
                        )
                        for seat in seated
                    ]
                    transcripts.append(
                        IterationTranscript(
                            iteration=iterations,
                            epoch=epoch,
                            coins={},
                            parities={},
                            broadcasters=(),
                            decisions={seat.pid: RESTART for seat in seated},
                            messages=msgs,
                        )
                    )
                epoch += 1
                continue

            for seat in seated:
                seat.state.own_payload = self._payload(bundles[seat.pid])
            decisions, transcript, events = _run_coin_iteration(
                seats, pids, self.alpha, iterations, epoch, self._accept_payload, observers, record
            )
            first_event = _merge_events(first_event, iterations, events)
            if record:
                if msgs:
                    transcript.messages = msgs + transcript.messages
                transcripts.append(transcript)

            if self.honest:
                parities = {st.parity for st in leader_states if st.parity is not None}
                if len(parities) > 1:
                    raise InvariantViolationError(
                        f"honest players disagree on parity at iteration {iterations}"
                    )

            restarters = [pos for pos, d in decisions.items() if d.kind == DecisionKind.RESTART]
            if not restarters:
                break
            if len(restarters) < len(seated):
                for seat in seated:
                    if seat.pos not in restarters:
                        seats[seat.pos] = None
            epoch += 1

        info = tuple(1 if states[p].has_learned() else 0 for p in self.players)
        cause = _resolve_cause(info, first_event)
        if cause == TerminalCause.ITERATION_CAP_HIT:
            info = (0,) * self.n
        if self.honest and any(info) and not all(info):
            raise InvariantViolationError(f"honest run terminated with partial info {info}")
        return RunOutcome(iterations=iterations, info=info, cause=cause, transcripts=transcripts)


class MOfNExchange(GroupedExchange):
    """m-of-n Shamir shares; designated players 1..m forward theirs to their leader."""

    def _issue_epoch(self, epoch: int) -> None:
        shares = issue_round(
            self.issuer, self.secret, self.threshold, self.n, epoch, self.issuer_rng, self.issued
        )
        for p in self.players:
            self.states[p].add_holding(epoch, ("share", p), shares[p])

    def _forwarders(self):
        return range(1, self.threshold + 1)

    def _bundle(self, player: int, epoch: int) -> list[Share]:
        return [self.states[player].holdings[epoch][("share", player)]]

    def _accept_item(self, state: LocalState, sender: int, item) -> bool:
        if not isinstance(item, Share) or item.epoch != state.epoch:
            state.cheat_evidence.append(
                CheatEvidence("stale-share", state.iteration, int(Step.DECIDE), sender)
            )
            return False
        if not self.issuer.verify_tag(item):
            state.cheat_evidence.append(
                CheatEvidence("invalid-tag", state.iteration, int(Step.DECIDE), sender)
            )
            return False
        state.add_holding(state.epoch, ("share", item.x.value), item)
        return True

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
    prime: int | None = None,
    record: bool = True,
    trial: int = 0,
) -> RunOutcome:
    """Run the 3-of-3 mechanism to termination.

    Deterministic given (seed, trial, profile, config).  The iteration cap
    is a simulation guard, reported as its own terminal cause rather than
    raised.
    """
    outcome, _ = run_mechanism_detailed(
        secret, alpha, profile, seed, cap=cap, prime=prime, record=record, trial=trial
    )
    return outcome


def run_mechanism_detailed(
    secret: FieldElement | int,
    alpha: float,
    profile: dict[int, Strategy] | None = None,
    seed: int = 0,
    *,
    cap: int = DEFAULT_CAP,
    prime: int | None = None,
    record: bool = True,
    trial: int = 0,
) -> tuple[RunOutcome, dict[int, LocalState]]:
    """run_mechanism plus the final per-player local states."""
    if prime is None:
        prime = secret.modulus if isinstance(secret, FieldElement) else DEFAULT_PRIME
    ring = MOfNExchange(
        secret,
        [[1], [2], [3]],
        [1, 2, 3],
        3,
        alpha=alpha,
        profile=profile,
        seed=seed,
        trial=trial,
        cap=cap,
        prime=prime,
        record=record,
    )
    return ring.run(), ring.states
