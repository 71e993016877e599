"""Rational secret sharing: simulator, incentive analysis, dominance engine."""

from .analysis import (
    AlphaStar,
    NashAuditReport,
    alpha_star,
    expected_steps,
    nash_audit,
)
from .dominance import (
    DeletionTrace,
    NormalFormGame,
    PracticalVerdict,
    build_bounded_game,
    build_oneshot_sharing_game,
    check_practical,
    iterate_deletion,
)
from .engine import DEFAULT_CAP, InvariantViolationError, run_mechanism
from .lifts import lift_2_of_n, lift_m_of_n, partition_players
from .protocol import (
    CoinTriple,
    DecisionKind,
    IterationTranscript,
    RoundMessage,
    RunOutcome,
    TerminalCause,
)
from .shamir import (
    DEFAULT_PRIME,
    FieldElement,
    Share,
    ShareIssuer,
    Subshare,
    combine_subshares,
    reconstruct,
)
from .strategies import (
    LocalState,
    Strategy,
    UtilityTable,
)

__version__ = "0.1.0"
