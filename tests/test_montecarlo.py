"""Kernel sampler vs the message-level engine.

The equivalence tests drive the engine with forced coins over all 64
(coin, masking bit) assignments for every registered profile and compare
the outcome (cause and info vector, as an index into OUTCOMES), iteration
count and the messages of each kind sent by the first iteration and by
the ones after it against the iteration kernel's row for the same coins.
Together with per-iteration independence this makes the two samplers
interchangeable.
"""

import hashlib
from fractions import Fraction
from itertools import product
from math import prod
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratshare import montecarlo
from ratshare.analysis import expected_steps, withhold_lhs
from ratshare.engine import DEFAULT_CAP, run_mechanism
from ratshare.protocol import MessageKind, TerminalCause
from ratshare.seeding import derive_generator
from ratshare.strategies import (
    DEVIATIONS,
    ForcedCoins,
    HonestStrategy,
    UtilityTable,
    canonical_table,
    deviation_profile,
    parse_deviation,
)

ALL64 = [
    tuple(zip(cs, cps))
    for cs in product((0, 1), repeat=3)
    for cps in product((0, 1), repeat=3)
]


def outcome_index(cause, info):
    return montecarlo.OUTCOMES.index((cause, tuple(info)))


CAP_OUTCOME = outcome_index(TerminalCause.ITERATION_CAP_HIT, (0, 0, 0))


def decode(outcomes):
    """Each trial's cause code (its place in CAUSE_ORDER) and info vector, as uint8."""
    causes = [montecarlo.CAUSE_ORDER.index(cause) for cause, _ in montecarlo.OUTCOMES]
    vectors = [vec for _, vec in montecarlo.OUTCOMES]
    return np.array(causes, dtype=np.uint8)[outcomes], np.array(vectors, dtype=np.uint8)[outcomes]


def engine_signature(assignment, deviation, deviator):
    inner = {}
    if deviation is not None:
        name, alpha_prime = parse_deviation(deviation)
        inner = deviation_profile(name, deviator, alpha_prime)
    profile = {
        pid: ForcedCoins([assignment[pid - 1]] * 2, inner.get(pid)) for pid in (1, 2, 3)
    }
    out = run_mechanism(5, 0.5, profile, seed=1, cap=2, record=True)
    first, *after = out.transcripts
    sent = [sum(m.kind == kind for m in first.messages) for kind in MessageKind]
    extra_sent = [sum(m.kind == kind for t in after for m in t.messages) for kind in MessageKind]
    return montecarlo.OUTCOMES.index((out.cause, out.info)), out.iterations, sent, extra_sent


def vector_signature(assignment, deviation, deviator):
    name = parse_deviation(deviation)[0] if deviation is not None else None
    kernel = montecarlo.iteration_kernel(name, deviator)
    row = 4 * assignment[0][0] + 2 * assignment[1][0] + assignment[2][0]
    sent, extra_sent = kernel.sent[row].tolist(), kernel.extra_sent[row].tolist()
    if kernel.restart[row]:
        # Same coins forced again -> still restarting when the cap of 2 hits.
        return CAP_OUTCOME, 2, sent, extra_sent
    return int(kernel.outcome[row]), 1 + int(kernel.extra[row]), sent, extra_sent


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
        assert (stats.outcomes == outcome_index(TerminalCause.MISSING_BIT_ABORT, (0, 0, 0))).all()


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
    assert (small.outcomes == large.outcomes[:n]).all()


def test_draws_depend_only_on_the_profile_sampled():
    # A deviator without a deviation, or an alpha' for a deviation other than
    # biased-coin, names the same profile and kernel as the call without it,
    # so it draws the same runs; the reference sampler ignores both too.
    for stray, plain in [
        (dict(deviator=2), {}),
        (dict(deviation="withhold", deviator=1, alpha_prime=0.7),
         dict(deviation="withhold", deviator=1)),
    ]:
        sampled, expected = (montecarlo.sample_runs(0.5, 2000, 1, **kw) for kw in (stray, plain))
        assert (sampled.iterations == expected.iterations).all(), stray
        assert (sampled.outcomes == expected.outcomes).all(), stray
        reference, expected = (montecarlo.sample_runs_reference(0.5, 20, 1, cap=50, **kw)
                               for kw in (stray, plain))
        assert (reference.iterations == expected.iterations).all(), stray
        assert (reference.outcomes == expected.outcomes).all(), stray


def kernel_absorption(alpha, deviation, deviator):
    """Exact per-iteration weights of the kernel's absorbing patterns."""
    a = Fraction(alpha)
    kernel = montecarlo.iteration_kernel(deviation, deviator)
    return [
        (prod(a if c else 1 - a for c in pattern), montecarlo.OUTCOMES[outcome][1])
        for pattern, restart, outcome in zip(montecarlo.PATTERNS, kernel.restart, kernel.outcome)
        if not restart
    ]


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.6, 0.8, 0.95])
def test_kernel_matches_closed_forms_exactly(alpha):
    q = sum(w for w, _ in kernel_absorption(alpha, None, None))
    assert q == Fraction(alpha) ** 3
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


def _two_trials(first, second):
    """Two one-iteration trials that end in these info vectors."""
    return montecarlo.TrialStats(
        iterations=np.array([1, 1]),
        outcomes=np.array([outcome_index(TerminalCause.CHEAT_STOP, vec) for vec in (first, second)],
                          dtype=np.uint8),
    )


def test_mean_utility_uses_the_sample_standard_deviation():
    # Player 1's payoffs are 0 and 2: sample variance 2, standard error sqrt(2 / 2).
    stats = _two_trials((0, 0, 0), (1, 0, 0))
    assert stats.mean_utility(canonical_table(), 1) == (1.0, 1.0)


def test_mean_utility_does_not_overflow_near_the_largest_float():
    # Payoffs -1.7e308 and 1.7e308, whose squares overflow.
    stats = _two_trials((0, 0, 0), (1, 0, 0))
    mean, se = stats.mean_utility(UtilityTable.from_scalars(1.7e308, 0.0, -1.7e308), 1)
    assert mean == 0.0 and se == pytest.approx(1.7e308, rel=1e-15)


def test_mean_utility_is_an_exact_sum_over_info_vectors():
    # Player 1's payoffs 1, -1/2 and 0 (a cap hit carries 000); player 2's 1, 2 and 0.
    stats = montecarlo.TrialStats(
        iterations=np.array([1, 2, 3]),
        outcomes=np.array([outcome_index(TerminalCause.ALL_LEARNED, (1, 1, 1)),
                           outcome_index(TerminalCause.CHEAT_STOP, (0, 1, 0)), CAP_OUTCOME],
                          dtype=np.uint8),
    )
    table = canonical_table()
    mean, se = stats.mean_utility(table, 1)
    # Sample variance ((5/6)**2 + (2/3)**2 + (1/6)**2) / 2 = 7/12.
    assert type(mean) is Fraction and mean == Fraction(1, 6)
    assert se == pytest.approx((7 / 36) ** 0.5, rel=1e-15)
    mean, se = stats.mean_utility(table, 2)
    assert mean == 1 and se == pytest.approx((1 / 3) ** 0.5, rel=1e-15)
    # A constant sample has no spread at all, whatever its payoff.
    constant = montecarlo.TrialStats(
        iterations=np.ones(10_000, dtype=np.int64),
        outcomes=np.full(10_000, outcome_index(TerminalCause.ALL_LEARNED, (1, 1, 1)), dtype=np.uint8),
    )
    assert constant.mean_utility(UtilityTable.from_scalars(2, "0.7", 0), 1) == (Fraction(7, 10), 0.0)


def test_sampler_reproducible():
    a = montecarlo.sample_runs(0.4, 5000, 37, deviation="garble-step2", deviator=3)
    b = montecarlo.sample_runs(0.4, 5000, 37, deviation="garble-step2", deviator=3)
    assert (a.iterations == b.iterations).all()
    assert (a.outcomes == b.outcomes).all()


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
        # Iterations are counted in float64, exact only up to 2**53.
        for cap in (2**53 + 1, 2**63, 10**23):
            with pytest.raises(ValueError, match=r"^iteration cap must be at most 2\*\*53"):
                sample(1e-100, 10, 1, cap=cap)


def test_cap_leaves_cause_cap_hit():
    stats = montecarlo.sample_runs(0.05, 500, 41, cap=3)
    causes, info = decode(stats.outcomes)
    capped = causes == montecarlo.CAUSE_ORDER.index(TerminalCause.ITERATION_CAP_HIT)
    assert capped.any()
    assert (stats.iterations[capped] == 3).all()
    assert not info[capped].any()
    # At alpha 1e-100 no run absorbs within the largest cap, 2**53
    # restarts, and the int64 count is that cap exactly.
    stats = montecarlo.sample_runs(1e-100, 3, 1, cap=2**53)
    assert stats.iterations.tolist() == [2**53] * 3
    assert stats.total_steps.tolist() == [5 * 2**53] * 3


@pytest.mark.parametrize("cap", [1, 7, DEFAULT_CAP])
@pytest.mark.parametrize("spec", [None, "withhold", "biased-coin:0.5"])
def test_underflowing_alpha_hits_the_cap_in_every_trial(spec, cap):
    # Below alpha ~ 1e-108 alpha**3 is 0 in floating point, so no pattern
    # absorbs with positive weight and each trial lands on the cap row.
    name, alpha_prime = parse_deviation(spec) if spec is not None else (None, None)
    stats = montecarlo.sample_runs(1e-200, 50, 3, deviation=name, deviator=2 if name else None,
                                   alpha_prime=alpha_prime, cap=cap)
    assert stats.iterations.dtype == np.int64 and (stats.iterations == cap).all()
    assert stats.outcomes.dtype == np.uint8 and stats.outcomes.shape == (50,)
    assert (stats.outcomes == CAP_OUTCOME).all()
    assert expected_steps(1e-200) == float("inf")


# SHA-256 over iterations, causes and info (dtype, shape, bytes) of
# sample_runs(alpha, 3000, 17, ...) for alpha in (0.3, 1) and each cap in
# (1, 2, 5, DEFAULT_CAP), recorded with the searchsorted/np.where sampler
# that the oracle below keeps, when a trial carried its cause code (uint8,
# shape (T,)) and info vector (uint8, shape (T, 3)) apart; `decode`
# recovers both from the outcome index.
GOLDEN_DIGESTS = {
    (None, None): "1733555e31eb806b6f8b91d5af926f6efb4cb5fed411e8218baee93a637c500f",
    ("withhold", 1): "799430e11bc9ce601c3bda7178f7e7cebd17ad66348d16a1cfef3c8d17766982",
    ("withhold", 2): "4d1355d36f16b02310b25ab8669c6d0411947bc9b2a5c4174fabe00ad9790c78",
    ("withhold", 3): "6a222b598059fce7526a691ad9374d49266eac0cad398a34109d401f5a5f6856",
    ("biased-coin:0.5", 1): "ca9b0ff7009fdf53f5c38cd97148da0a8ad48a2c04bf7be8922c4a3b33e6f602",
    ("biased-coin:0.5", 2): "7d08a29e73b9d95ce4c7ccaec89b12042dbe802e1e0f576fa86ed57e85e0e525",
    ("biased-coin:0.5", 3): "9304c47a89cc3468587cfbbff7c98d650d36f6330743bbbc69423670fc0196d4",
    ("biased-coin:1", 1): "5f433eef0564e959ab116545457084be91fdfc5d36a753965a538fdf7fa5708e",
    ("biased-coin:1", 2): "c203bfd1623bce0f4651a2307346d46eb172a0411d0eaac12bbace40c7c79fb9",
    ("biased-coin:1", 3): "c5e887efaa3e99e0d2520dcde8053bb50c25fd6694b4713856feb2b74dcd1d0e",
    ("garble-step2", 1): "8cca114f5fbbd68a60fd5a9c412316f0697e14403caa6b63e0a0bc4880d5a5d0",
    ("garble-step2", 2): "ec3824c4f44988bb7cd7aa490971be889b09d6fb144ccc28c0e350cce180a1ee",
    ("garble-step2", 3): "e54f2f42079c4c542cb9225dd4472d1cab06f402f9e8573ccb4c8fecb3b9fa51",
    ("always-silent", 1): "b7fe83e888ce184a6d47af4c9fd8f6c29763e59025db109662503781a0e48aa0",
    ("always-silent", 2): "b7fe83e888ce184a6d47af4c9fd8f6c29763e59025db109662503781a0e48aa0",
    ("always-silent", 3): "b7fe83e888ce184a6d47af4c9fd8f6c29763e59025db109662503781a0e48aa0",
    ("always-broadcast", 1): "e78943debc504e1df1bb6240824d82be6bc3c5dfffeb36570042a3c36039d887",
    ("always-broadcast", 2): "6b1183b83fdb3417b60438adc9da8234a4b1fd2dd622311081e82d3bba31e84b",
    ("always-broadcast", 3): "0038f7af60c4817b5b1a648a972f181d7d2a8b18173365f9b225fc1d16897b8c",
}


def test_golden_grid_covers_every_deviation():
    names = {parse_deviation(spec)[0] for spec, _ in GOLDEN_DIGESTS if spec is not None}
    assert names == set(DEVIATIONS)


@pytest.mark.parametrize("spec, deviator", list(GOLDEN_DIGESTS), ids=str)
def test_sample_runs_matches_golden_digest(spec, deviator):
    name, alpha_prime = parse_deviation(spec) if spec is not None else (None, None)
    digest = hashlib.sha256()
    for alpha, cap in product((0.3, 1.0), (1, 2, 5, DEFAULT_CAP)):
        stats = montecarlo.sample_runs(alpha, 3000, 17, deviation=name, deviator=deviator,
                                       alpha_prime=alpha_prime, cap=cap)
        for array in (stats.iterations, *decode(stats.outcomes)):
            digest.update(array.dtype.str.encode())
            digest.update(str(array.shape).encode())
            digest.update(array.tobytes())
    assert digest.hexdigest() == GOLDEN_DIGESTS[spec, deviator]


def absorbing_cdf(alpha, deviation, deviator, alpha_prime):
    """The profile's absorbing pattern rows and their cumulative weights."""
    profile = deviation_profile(deviation, deviator, alpha_prime)
    kernel = montecarlo.iteration_kernel(deviation, deviator)
    heads = np.array([profile.get(p, HonestStrategy()).coin_bias(alpha) for p in (1, 2, 3)])
    weight = np.where(montecarlo.PATTERNS, heads, 1 - heads).prod(axis=1)
    absorbing = np.flatnonzero(~kernel.restart & (weight > 0))
    return absorbing, np.cumsum(weight[absorbing])


def oracle_sample(u, alpha, deviation, deviator, alpha_prime, cap):
    """The searchsorted/np.where sampler on given (T, 2) uniforms."""
    kernel = montecarlo.iteration_kernel(deviation, deviator)
    absorbing, cdf = absorbing_cdf(alpha, deviation, deviator, alpha_prime)
    with np.errstate(divide="ignore"):
        k = 1 + np.floor(np.log1p(-u[:, 0]) / np.log1p(-min(cdf[-1], 1.0)))
    pick = absorbing[np.minimum(np.searchsorted(cdf, u[:, 1] * cdf[-1], "right"), cdf.size - 1)]
    capped = k > cap
    iterations = np.minimum(k + kernel.extra[pick], cap).astype(np.int64)
    outcomes = np.where(capped, CAP_OUTCOME, kernel.outcome[pick]).astype(np.uint8)
    return iterations, outcomes


def on_edge(edge, total):
    """A uniform u < 1 with u * total == edge, when one is near edge / total."""
    guess = min(edge / total, np.nextafter(1.0, 0.0))
    for u in (guess, np.nextafter(guess, 0.0), np.nextafter(guess, 1.0)):
        if u < 1 and u * total == edge:
            return u
    return guess


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.01, 1)),
    alpha_prime=st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.01, 1)),
    deviation=st.sampled_from([None, *DEVIATIONS]),
    deviator=st.integers(1, 3),
    cap=st.one_of(st.integers(1, 6), st.just(DEFAULT_CAP)),
    trials=st.integers(1, 200),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_sampler_matches_searchsorted_oracle(alpha, alpha_prime, deviation, deviator, cap,
                                             trials, seed, data):
    # Stream uniforms, some moved onto cdf entries (where "right" matters)
    # and onto the ends of [0, 1).  At alpha 1 an honest cdf has one entry.
    deviator = deviator if deviation is not None else None
    alpha_prime = alpha_prime if deviation == "biased-coin" else None
    _, cdf = absorbing_cdf(alpha, deviation, deviator, alpha_prime)
    u = derive_generator(seed, "oracle").random((trials, 2))
    rows = st.integers(0, trials - 1)
    for t, j in data.draw(st.lists(st.tuples(rows, st.integers(0, cdf.size - 1)), max_size=20)):
        u[t, 1] = on_edge(cdf[j], cdf[-1])
    for t, u0 in data.draw(st.lists(st.tuples(rows, st.sampled_from([0.0, np.nextafter(1.0, 0.0)])),
                                    max_size=5)):
        u[t, 0] = u0

    def fake_generator(*path):
        def random(shape):
            assert shape == u.shape
            return u.copy()
        return SimpleNamespace(random=random)

    with mock.patch.object(montecarlo, "derive_generator", fake_generator):
        stats = montecarlo.sample_runs(alpha, trials, seed, deviation=deviation, deviator=deviator,
                                       alpha_prime=alpha_prime, cap=cap)
    for got, want in zip((stats.iterations, stats.outcomes),
                         oracle_sample(u, alpha, deviation, deviator, alpha_prime, cap)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_oracle_reaches_cdf_entries_exactly():
    # At alpha 0.5 the weights are multiples of 1/8, so every entry can be hit.
    _, cdf = absorbing_cdf(0.5, "withhold", 1, None)
    assert cdf.size > 1
    assert all(on_edge(edge, cdf[-1]) * cdf[-1] == edge for edge in cdf[:-1])
    _, cdf = absorbing_cdf(1.0, None, None, None)
    assert cdf.tolist() == [1.0]
