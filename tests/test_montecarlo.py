"""Kernel sampler vs the message-level engine.

The equivalence tests drive the engine with forced coins over all 64
(coin, masking bit) assignments for every registered profile and compare
cause, info vector, and iteration count against the iteration kernel's
row for the same coins.  Together with per-iteration independence this
makes the two samplers interchangeable.
"""

from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratshare import montecarlo
from ratshare.analysis import expected_steps, iteration_distribution, withhold_lhs
from ratshare.engine import run_mechanism
from ratshare.protocol import TerminalCause
from ratshare.strategies import (
    DEVIATIONS,
    ForcedCoins,
    build_deviation,
    canonical_table,
    parse_deviation,
)

ALL64 = [
    tuple(zip(cs, cps))
    for cs in product((0, 1), repeat=3)
    for cps in product((0, 1), repeat=3)
]

CAUSE_BY_CODE = {code: cause for cause, code in montecarlo.CAUSE_CODE.items()}


def engine_signature(assignment, deviation, deviator):
    inner = {}
    if deviation is not None:
        inner[deviator] = build_deviation(deviation)
    profile = {
        pid: ForcedCoins([assignment[pid - 1]] * 2, inner.get(pid)) for pid in (1, 2, 3)
    }
    out = run_mechanism(5, 0.5, profile, seed=1, cap=2, record=False)
    return out.cause, out.info, out.iterations


def vector_signature(assignment, deviation, deviator):
    coins = np.array([[assignment[i][0] for i in range(3)]], dtype=bool)
    name = parse_deviation(deviation)[0] if deviation is not None else None
    restart, info, extra, cause = montecarlo.iteration_outcome(coins, name, deviator)
    if restart[0]:
        # Same coins forced again -> still restarting when the cap of 2 hits.
        return TerminalCause.ITERATION_CAP_HIT, (0, 0, 0), 2
    return CAUSE_BY_CODE[int(cause[0])], tuple(int(b) for b in info[0]), 1 + int(extra[0])


# Every registered deviation; biased-coin's bias is overridden by the
# forced coins.
EXHAUSTIVE_SPECS = [None] + [
    "biased-coin:0.3" if name == "biased-coin" else name for name in DEVIATIONS
]


@pytest.mark.parametrize("deviation", EXHAUSTIVE_SPECS)
@pytest.mark.parametrize("deviator", [1, 2, 3])
def test_iteration_semantics_match_engine_exhaustively(deviation, deviator):
    dev = deviation
    for assignment in ALL64:
        expected = engine_signature(assignment, dev, deviator if dev else None)
        got = vector_signature(assignment, dev, deviator if dev else None)
        assert got == expected, (assignment, dev, deviator, got, expected)


def test_silent_fast_path_matches_engine():
    # The engine side is covered by the exhaustive test above.  At alpha
    # = 0.2 the 8 pattern weights sum to just above 1 in floating point.
    for alpha, deviator in product((0.2, 0.5), (1, 2, 3)):
        stats = montecarlo.sample_runs(alpha, 4, 3, deviation="always-silent", deviator=deviator)
        assert (stats.iterations == 1).all()
        assert (stats.causes == montecarlo.CAUSE_CODE[TerminalCause.MISSING_BIT_ABORT]).all()
        assert not stats.info.any()


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.05, 1, exclude_min=True),
    seed=st.integers(0, 2**32),
    spec=st.sampled_from(EXHAUSTIVE_SPECS),
    deviator=st.integers(1, 3),
    n=st.integers(1, 300),
    more=st.integers(1, 300),
)
def test_trial_results_do_not_depend_on_batch_size(alpha, seed, spec, deviator, n, more):
    name, alpha_prime = parse_deviation(spec) if spec is not None else (None, None)
    kwargs = dict(deviation=name, deviator=deviator if name else None, alpha_prime=alpha_prime)
    small = montecarlo.sample_runs(alpha, n, seed, **kwargs)
    large = montecarlo.sample_runs(alpha, n + more, seed, **kwargs)
    assert (large.iterations >= 1).all()
    assert (small.iterations == large.iterations[:n]).all()
    assert (small.causes == large.causes[:n]).all()
    assert (small.info == large.info[:n]).all()


def kernel_absorption(alpha, deviation, deviator):
    """Exact per-iteration weights of the kernel's absorbing patterns."""
    a = Fraction(alpha)
    kernel = montecarlo.iteration_kernel(deviation, deviator)
    return [
        (prod(a if c else 1 - a for c in pattern), tuple(int(b) for b in info))
        for pattern, restart, info in zip(montecarlo.PATTERNS, kernel.restart, kernel.info)
        if not restart
    ]


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.6, 0.8, 0.95])
def test_kernel_matches_closed_forms_exactly(alpha):
    q = sum(w for w, _ in kernel_absorption(alpha, None, None))
    assert q == Fraction(alpha) ** 3
    assert float(q) == iteration_distribution(alpha).p_success
    assert float(1 / q) == pytest.approx(expected_steps(alpha) / 5, rel=1e-12)
    table = canonical_table()
    for deviator in (1, 2, 3):
        absorbed = kernel_absorption(alpha, "withhold", deviator)
        payoff = sum(w * Fraction(table.payoff(deviator, info)) for w, info in absorbed)
        payoff /= sum(w for w, _ in absorbed)
        assert abs(float(payoff) - withhold_lhs(alpha, table, deviator)) < 1e-12


def test_honest_runs_all_absorb_with_everyone_learning():
    stats = montecarlo.sample_runs(0.5, 20_000, 11)
    counts = stats.cause_counts()
    assert counts[TerminalCause.ALL_LEARNED] == 20_000
    hist = stats.info_histogram()
    assert hist["111"] == 20_000
    assert sum(v for k, v in hist.items() if k not in ("111",)) == 0


def test_mean_iterations_tracks_geometric_rate():
    stats = montecarlo.sample_runs(0.5, 50_000, 13)
    mean = stats.iterations.mean()
    se = stats.iterations.std(ddof=1) / np.sqrt(50_000)
    assert abs(mean - 8.0) < 4 * se


def test_withhold_split_between_lone_learning_and_caught():
    stats = montecarlo.sample_runs(0.8, 50_000, 19, deviation="withhold", deviator=2)
    assert stats.cause_counts()[TerminalCause.ITERATION_CAP_HIT] == 0
    hist = stats.info_histogram()
    only = hist["010"]
    none = hist["000"]
    assert only + none == 50_000
    assert abs(only / 50_000 - 0.64 / 0.68) < 0.01


def test_reference_sampler_agrees_with_closed_form():
    stats = montecarlo.sample_runs_reference(0.5, 1500, 23)
    mean = stats.total_steps.mean()
    se = stats.total_steps.std(ddof=1) / np.sqrt(1500)
    assert abs(mean - 40.0) < 4 * se
    assert stats.cause_counts()[TerminalCause.ALL_LEARNED] == 1500


def test_reference_and_vectorized_agree_for_withhold():
    table = canonical_table()
    ref = montecarlo.sample_runs_reference(0.6, 2000, 29, deviation="withhold", deviator=1)
    vec = montecarlo.sample_runs(0.6, 20_000, 29, deviation="withhold", deviator=1)
    closed = (0.36 * 2) / (0.36 + 0.16)
    for stats, trials in ((ref, 2000), (vec, 20_000)):
        mean, se = stats.mean_utility(table, 1)
        assert abs(mean - closed) < 4 * se


def test_utilities_lookup():
    table = canonical_table()
    stats = montecarlo.TrialStats(
        iterations=np.array([1, 2, 3]),
        causes=np.array([0, 1, 3], dtype=np.uint8),
        info=np.array([[1, 1, 1], [0, 1, 0], [0, 0, 0]], dtype=np.uint8),
    )
    np.testing.assert_allclose(stats.utilities(table, 1), [1.0, -0.5, 0.0])
    np.testing.assert_allclose(stats.utilities(table, 2), [1.0, 2.0, 0.0])


def test_sampler_reproducible():
    a = montecarlo.sample_runs(0.4, 5000, 37, deviation="garble-step2", deviator=3)
    b = montecarlo.sample_runs(0.4, 5000, 37, deviation="garble-step2", deviator=3)
    assert (a.iterations == b.iterations).all()
    assert (a.causes == b.causes).all()
    assert (a.info == b.info).all()


def test_sampler_validation():
    for sample in (montecarlo.sample_runs, montecarlo.sample_runs_reference):
        with pytest.raises(ValueError):
            sample(0.0, 10, 1)
        with pytest.raises(ValueError):
            sample(0.5, 10, 1, deviation="nonsense", deviator=1)
        with pytest.raises(ValueError):
            sample(0.5, 10, 1, deviation="withhold", deviator=9)
        with pytest.raises(ValueError):
            sample(0.5, 10, 1, deviation="biased-coin", deviator=1, alpha_prime=0.0)


def test_cap_leaves_cause_cap_hit():
    stats = montecarlo.sample_runs(0.05, 500, 41, cap=3)
    codes = set(stats.causes.tolist())
    assert montecarlo.CAUSE_CODE[TerminalCause.ITERATION_CAP_HIT] in codes
    capped = stats.causes == montecarlo.CAUSE_CODE[TerminalCause.ITERATION_CAP_HIT]
    assert (stats.iterations[capped] == 3).all()
    assert not stats.info[capped].any()
