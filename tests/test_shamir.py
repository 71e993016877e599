"""Field elements, share issuance, reconstruction, tags, subshares."""

import dataclasses
import gc
import hashlib
import hmac
import weakref
from fractions import Fraction
from itertools import combinations, product
from math import comb
from random import Random

import pytest
from hypothesis import given, strategies as st

from ratshare import cli
from ratshare.shamir import (
    _MAC_CACHE_SIZE,
    DEFAULT_PRIME,
    FieldElement,
    ReconstructionError,
    Share,
    ShareIssuer,
    Subshare,
    combine_subshares,
    exhaustive_hiding_check,
    exhaustive_round_trip_check,
    is_prime,
    reconstruct,
    round_trip_reconstructions,
)


def fe(v, p=13):
    return FieldElement(v, p)


@pytest.fixture
def issuer13():
    return ShareIssuer(b"test-key-13", modulus=13)


def oracle_tag(key: bytes, *fields) -> bytes:
    """HMAC-SHA256 over the '|'-joined fields, computed afresh."""
    return hmac.new(key, "|".join(map(str, fields)).encode(), hashlib.sha256).digest()


def oracle_fields(issuer: ShareIssuer, item: Share | Subshare) -> tuple:
    if isinstance(item, Share):
        return ("share", issuer.modulus, item.epoch, item.x.value, item.y.value)
    return ("subshare", issuer.modulus, item.epoch, item.parent_holder, item.index,
            item.value.value)


class ScriptRandom(Random):
    """randrange() returns scripted values; used to force splits."""

    def __new__(cls, values):
        return super().__new__(cls, 0)

    def __init__(self, values):
        super().__init__(0)
        self.values = list(values)

    def randrange(self, n):
        return self.values.pop(0) % n


# --- field ---------------------------------------------------------------


def test_field_element_range_checked():
    with pytest.raises(ValueError):
        FieldElement(13, 13)
    with pytest.raises(ValueError):
        FieldElement(-1, 13)


def test_field_element_rejects_values_that_are_not_ints():
    for value in (1.5, 1.0, True, False):
        with pytest.raises(ValueError, match="is not an int in"):
            FieldElement(value, 13)
    # A float secret never reaches the issuer: 2.5 would give y values
    # 8.5, 1.5 and 7.5 and reconstruct to 9.0.
    issuer = ShareIssuer(b"k", modulus=13)
    with pytest.raises(ValueError, match="is not an int in"):
        issuer.issue_shares(FieldElement(2.5, 13), 3, 3, 0, Random(0))
    # Nor does a coefficient that is not an int, though the issuer builds
    # its y values without the constructor's check.
    for coefficient in (1.5, 2.0):
        with pytest.raises(ValueError, match="is not an int"):
            issuer.issue_shares(fe(2), 2, 3, 0, Random(0), coefficients=[coefficient])


def test_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        FieldElement(1, 15)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 2**31 - 1, 2**61 - 1, 2**64 - 59}
    for p in primes:
        assert is_prime(p)
    # 561 and 3215031751 are Carmichael numbers; 3215031751 is also a
    # strong pseudoprime to bases 2, 3, 5 and 7.
    for c in (1, 4, 9, 15, 21, 2**31 - 2, 561, 3215031751, 2**64 - 1):
        assert not is_prime(c)
    with pytest.raises(ValueError):
        FieldElement(3, 2**33)
    with pytest.raises(ValueError):
        FieldElement(3, 3215031751)
    with pytest.raises(ValueError):
        FieldElement(3, 2**89 - 1)  # prime, but above the exact range


# --- issuance ------------------------------------------------------------


def test_constant_polynomial_when_threshold_one(issuer13):
    shares = issuer13.issue_shares(fe(5), m=1, n=3, epoch=0, rng=Random(0))
    assert [s.y.value for s in shares] == [5, 5, 5]


def test_forced_coefficient_evaluation(issuer13):
    # f(x) = 5 + 3x mod 13 at x = 1, 2, 3.
    shares = issuer13.issue_shares(fe(5), m=2, n=3, epoch=0, rng=Random(0), coefficients=[3])
    assert [(s.x.value, s.y.value) for s in shares] == [(1, 8), (2, 11), (3, 1)]
    assert all(s.holder == s.x.value for s in shares)


def test_issue_validates_threshold_and_modulus(issuer13):
    with pytest.raises(ValueError):
        issuer13.issue_shares(fe(5), m=0, n=3, epoch=0, rng=Random(0))
    with pytest.raises(ValueError):
        issuer13.issue_shares(fe(5), m=4, n=3, epoch=0, rng=Random(0))
    with pytest.raises(ValueError):
        issuer13.issue_shares(fe(5, 7), m=2, n=3, epoch=0, rng=Random(0))
    with pytest.raises(ValueError):
        ShareIssuer(b"k", modulus=7).issue_shares(fe(5, 7), m=2, n=8, epoch=0, rng=Random(0))


# --- reconstruction --------------------------------------------------------


def test_hand_lagrange(issuer13):
    shares = issuer13.issue_shares(fe(5), m=2, n=3, epoch=0, rng=Random(0), coefficients=[3])
    # 8*2*(2-1)^-1 + 11*1*(1-2)^-1 = 16 - 11 = 5 mod 13
    assert reconstruct(shares[:2], m=2, issuer=issuer13).value == 5


def test_single_share_threshold_one(issuer13):
    shares = issuer13.issue_shares(fe(9), m=1, n=3, epoch=0, rng=Random(1))
    assert reconstruct([shares[0]], m=1, issuer=issuer13).value == 9


def test_round_trip_gf7_exhaustive():
    issuer = ShareIssuer(b"k7", modulus=7)
    rng = Random(2)
    for s in range(7):
        shares = issuer.issue_shares(FieldElement(s, 7), m=2, n=3, epoch=0, rng=rng)
        for subset in combinations(shares, 2):
            assert reconstruct(list(subset), 2, issuer).value == s


def test_round_trip_random_secrets_gf101():
    issuer = ShareIssuer(b"k101", modulus=101)
    rng = Random(3)
    for _ in range(100):
        s = rng.randrange(101)
        shares = issuer.issue_shares(FieldElement(s, 101), m=3, n=3, epoch=0, rng=rng)
        assert reconstruct(shares, 3, issuer).value == s


def test_reconstruct_uses_first_m_in_x_order(issuer13):
    shares = issuer13.issue_shares(fe(5), m=2, n=3, epoch=0, rng=Random(0), coefficients=[3])
    shuffled = [shares[2], shares[0], shares[1]]
    assert reconstruct(shuffled, 2, issuer13).value == 5


def test_reconstruct_errors(issuer13):
    shares = issuer13.issue_shares(fe(5), m=3, n=3, epoch=0, rng=Random(0))
    with pytest.raises(ReconstructionError):
        reconstruct(shares[:2], 3, issuer13)
    with pytest.raises(ReconstructionError):
        reconstruct([shares[0], shares[0], shares[1]], 3, issuer13)
    other = issuer13.issue_shares(fe(5), m=3, n=3, epoch=1, rng=Random(0))
    with pytest.raises(ReconstructionError):
        reconstruct([other[0], shares[1], shares[2]], 3, issuer13)
    forged = dataclasses.replace(shares[0], y=fe((shares[0].y.value + 1) % 13))
    with pytest.raises(ReconstructionError):
        reconstruct([forged, shares[1], shares[2]], 3, issuer13)
    # A threshold below 1 is refused, not read as "interpolate from none"
    # (m = 0) or as a slice from the end (m = -1).
    for m in (0, -1):
        with pytest.raises(ReconstructionError):
            reconstruct(shares, m, issuer13)
    with pytest.raises(ReconstructionError):
        reconstruct([], 0)


def _share(x, epoch=0, p=13, y=1, tag=b""):
    return Share(holder=x, x=FieldElement(x, p), y=FieldElement(y, p), epoch=epoch, tag=tag)


def _forged(share):
    return dataclasses.replace(share, tag=bytes(32))


# Each case breaks two rules (or one rule twice) and expects the message
# of the rule checked first: threshold, count, epochs, field, duplicate x,
# then tags in increasing x order.
RECONSTRUCT_PRECEDENCE = {
    "threshold-over-count": (lambda s: [], 0, "threshold must be >= 1, got 0"),
    "count-over-epochs": (lambda s: [s[0], _share(2, epoch=1)], 3, "need at least 3 shares, got 2"),
    "epochs-over-field": (lambda s: [s[0], _share(2, epoch=1, p=17)], 2,
                          "shares span epochs [0, 1]"),
    # The duplicate comes first in x order, the other epoch last.
    "epochs-over-duplicate-x": (lambda s: [s[0], s[0], _share(3, epoch=7)], 2,
                                "shares span epochs [0, 7]"),
    "field-over-duplicate-x": (lambda s: [s[0], s[0], _share(3, p=17)], 2,
                               "shares span different fields"),
    "field-in-y-only": (lambda s: [s[0], dataclasses.replace(s[1], y=FieldElement(1, 17))], 2,
                        "shares span different fields"),
    "duplicate-x-over-tag": (lambda s: [_forged(s[0]), s[1], s[1]], 2,
                             "duplicate x coordinates"),
    "epochs-over-tag": (lambda s: [_forged(s[0]), _share(2, epoch=1)], 2,
                        "shares span epochs [0, 1]"),
    "lowest-x-tag-first": (lambda s: [_forged(s[2]), _forged(s[1]), s[0]], 2,
                           "tag verification failed for holder 2"),
}


@pytest.mark.parametrize("case", list(RECONSTRUCT_PRECEDENCE))
def test_reconstruct_reports_the_first_broken_rule(case, issuer13):
    shares = issuer13.issue_shares(fe(5), m=2, n=3, epoch=0, rng=Random(0))
    build, m, message = RECONSTRUCT_PRECEDENCE[case]
    with pytest.raises(ReconstructionError) as exc:
        reconstruct(build(shares), m, issuer13)
    assert str(exc.value) == message


def _sub(parent=1, index=1, epoch=0, p=13, tag=b""):
    return Subshare(parent_holder=parent, index=index, value=FieldElement(1, p), epoch=epoch,
                    tag=tag)


# As above for subshares: count, parents or epochs, field, indices, then
# tags in the given order.
COMBINE_PRECEDENCE = {
    "count-over-parents": (lambda s: [s[0], _sub(parent=2, index=2)], 3,
                           "need all 3 subshares, got 2"),
    "parents-over-field": (lambda s: [s[0], s[1], _sub(parent=2, index=3, p=17)], 3,
                           "subshares from mixed parents or epochs"),
    "epochs-over-indices": (lambda s: [s[0], s[0], _sub(index=3, epoch=4)], 3,
                            "subshares from mixed parents or epochs"),
    "field-over-indices": (lambda s: [s[0], s[0], _sub(index=3, p=17)], 3,
                           "subshares span different fields"),
    "indices-over-tag": (lambda s: [_forged(s[0]), s[1], s[1]], 3,
                         "subshare indices are not 1..count"),
    "index-out-of-range": (lambda s: [s[0], s[1], _sub(index=4)], 3,
                           "subshare indices are not 1..count"),
    "parents-over-tag": (lambda s: [_forged(s[0]), s[1], _sub(parent=2, index=3)], 3,
                         "subshares from mixed parents or epochs"),
    "first-listed-tag-first": (lambda s: [s[0], _forged(s[2]), _forged(s[1])], 3,
                               "tag verification failed for subshare 3"),
}


@pytest.mark.parametrize("case", list(COMBINE_PRECEDENCE))
def test_combine_subshares_reports_the_first_broken_rule(case, issuer13):
    share = issuer13.issue_shares(fe(5), m=2, n=3, epoch=0, rng=Random(0))[0]
    subs = issuer13.split_subshares(share, 3, Random(1))
    build, count, message = COMBINE_PRECEDENCE[case]
    with pytest.raises(ReconstructionError) as exc:
        combine_subshares(build(subs), count, issuer13)
    assert str(exc.value) == message


def lagrange_oracle(points: list[tuple[int, int]], p: int) -> int:
    """f(0) of the polynomial through `points`, over the rationals, then mod p.

    Reduction mod p is a ring map on fractions whose denominators are
    prime to p, so this equals interpolation in GF(p).
    """
    total = Fraction(0)
    for xi, yi in points:
        term = Fraction(yi)
        for xj, _ in points:
            if xj != xi:
                term *= Fraction(xj, xj - xi)
        total += term
    return total.numerator * pow(total.denominator, -1, p) % p


@given(data=st.data())
def test_reconstruct_matches_textbook_lagrange(data):
    # The same x-sets at two primes, interleaved, so weights cached
    # without the field give the other field's answer.
    m = data.draw(st.integers(1, 4), label="m")
    n = data.draw(st.integers(m, 6), label="n")
    order = data.draw(st.permutations(range(1, n + 1)), label="order")
    xs = order[: data.draw(st.integers(m, n), label="k")]
    for p in (13, 17, 13, 17):
        # Arbitrary y values: the answer depends on which m points are used.
        ys = data.draw(st.lists(st.integers(0, p - 1), min_size=len(xs), max_size=len(xs)))
        shares = [
            Share(holder=x, x=FieldElement(x, p), y=FieldElement(y, p), epoch=3, tag=b"")
            for x, y in zip(xs, ys)
        ]
        expected = lagrange_oracle(sorted(zip(xs, ys))[:m], p)
        assert reconstruct(shares, m) == FieldElement(expected, p)


# --- tags ------------------------------------------------------------------


def test_fresh_tags_verify(issuer13):
    for share in issuer13.issue_shares(fe(7), m=2, n=3, epoch=4, rng=Random(4)):
        assert issuer13.verify_tag(share)


def test_mutated_share_fails_verification(issuer13):
    share = issuer13.issue_shares(fe(7), m=2, n=3, epoch=4, rng=Random(4))[0]
    assert not issuer13.verify_tag(dataclasses.replace(share, y=fe((share.y.value + 1) % 13)))
    assert not issuer13.verify_tag(dataclasses.replace(share, epoch=5))
    assert not issuer13.verify_tag(
        dataclasses.replace(share, x=FieldElement(2, 13), holder=2)
    )


@given(
    field=st.sampled_from(["epoch", "x", "y"]),
    delta=st.integers(min_value=1, max_value=12),
    secret=st.integers(min_value=0, max_value=12),
)
def test_tag_soundness_under_mutation(field, delta, secret):
    issuer = ShareIssuer(b"prop-key", modulus=13)
    share = issuer.issue_shares(fe(secret), m=2, n=3, epoch=2, rng=Random(5))[0]
    if field == "epoch":
        mutant = dataclasses.replace(share, epoch=share.epoch + delta)
    elif field == "x":
        mutant = dataclasses.replace(share, x=fe((share.x.value + delta) % 13))
    else:
        mutant = dataclasses.replace(share, y=fe((share.y.value + delta) % 13))
    assert not issuer.verify_tag(mutant)


@given(
    key_len=st.sampled_from([0, 1, 16, 63, 64, 65, 200]),
    data=st.data(),
)
def test_mac_is_hmac_sha256(key_len, data):
    # Keys up to the 64-byte block are padded, longer ones hashed first;
    # several messages per issuer, some repeated, show a tag leaves the
    # keyed state as it was and a cached tag is the message's MAC.
    key = data.draw(st.binary(min_size=key_len, max_size=key_len), label="key")
    issuer = ShareIssuer(key, modulus=13)
    for msg in data.draw(st.lists(st.text(max_size=300), min_size=1, max_size=4)) * 2:
        assert issuer._mac(msg) == hmac.new(key, msg.encode(), hashlib.sha256).digest()


def test_other_key_rejects(issuer13):
    share = issuer13.issue_shares(fe(7), m=2, n=3, epoch=0, rng=Random(6))[0]
    assert not ShareIssuer(b"other-key", modulus=13).verify_tag(share)


PRIMES = (13, 101, 2**31 - 1)


@given(
    key=st.binary(min_size=1, max_size=80),
    p=st.sampled_from(PRIMES),
    n=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_tags_and_verification_agree_with_an_hmac_oracle(key, p, n, data):
    issuer = ShareIssuer(key, modulus=p)
    m = data.draw(st.integers(min_value=1, max_value=n))
    epoch = data.draw(st.integers(min_value=0, max_value=10**6))
    secret = data.draw(st.integers(min_value=0, max_value=p - 1))
    rng = Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    shares = issuer.issue_shares(FieldElement(secret, p), m, n, epoch, rng)
    items = list(shares)
    for share in shares[: data.draw(st.integers(min_value=0, max_value=n))]:
        items += issuer.split_subshares(share, data.draw(st.integers(2, 5)), rng)
    for item in items:
        assert item.tag == oracle_tag(key, *oracle_fields(issuer, item))
        assert issuer.verify_tag(item)

    # Each single-field change is caught, as the oracle says it must be.
    item = data.draw(st.sampled_from(items))
    if isinstance(item, Share):
        field = data.draw(st.sampled_from(["epoch", "x", "y", "tag"]))
    else:
        field = data.draw(st.sampled_from(["epoch", "parent_holder", "index", "value", "tag"]))
    delta = data.draw(st.integers(min_value=1, max_value=p - 1))
    if field == "tag":
        flip = data.draw(st.integers(min_value=0, max_value=len(item.tag) - 1))
        changed = bytearray(item.tag)
        changed[flip] ^= data.draw(st.integers(min_value=1, max_value=255))
        mutant = dataclasses.replace(item, tag=bytes(changed))
    else:
        old = getattr(item, field)
        new = fe((old.value + delta) % p, p) if isinstance(old, FieldElement) else old + delta
        mutant = dataclasses.replace(item, **{field: new})
    assert mutant.tag != oracle_tag(key, *oracle_fields(issuer, mutant))
    assert not issuer.verify_tag(mutant)


def test_items_of_an_earlier_issue_verify_by_recomputation(issuer13):
    old = issuer13.issue_shares(fe(7), m=2, n=3, epoch=0, rng=Random(1))
    old_subs = issuer13.split_subshares(old[0], 3, Random(2))
    # Later issues tag more distinct messages than the cache keeps.
    rng = Random(3)
    for epoch in range(10, 10 + _MAC_CACHE_SIZE):
        issuer13.issue_shares(fe(7), m=2, n=3, epoch=epoch, rng=rng)

    before = issuer13._mac.cache_info().misses
    for item in [*old, *old_subs]:
        assert issuer13.verify_tag(item)
        assert not issuer13.verify_tag(dataclasses.replace(item, epoch=5))
    assert issuer13._mac.cache_info().misses - before == 2 * (len(old) + len(old_subs))


def test_remembered_tags_are_bounded_and_kept_for_one_epoch():
    issuer = ShareIssuer(b"bound", modulus=DEFAULT_PRIME)
    rng = Random(0)
    for epoch in range(10_000):
        secret = FieldElement(rng.randrange(DEFAULT_PRIME), DEFAULT_PRIME)
        shares = issuer.issue_shares(secret, 2, 3, epoch, rng)
        assert issuer._mac.cache_info().currsize <= _MAC_CACHE_SIZE
    info = issuer._mac.cache_info()
    assert info.misses == 30_000 and info.currsize == _MAC_CACHE_SIZE
    # The latest items are still cached: verifying them computes no MAC.
    assert all(issuer.verify_tag(s) for s in shares)
    assert issuer._mac.cache_info().misses == 30_000


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["issue", "split"]),
            st.integers(min_value=2, max_value=6),  # n, or the subshare count
            st.integers(min_value=0, max_value=100),  # which earlier share to split
        ),
        max_size=100,
    )
)
def test_the_tag_cache_stays_bounded_over_issues_and_splits(ops):
    issuer = ShareIssuer(b"bounded", modulus=101)
    rng = Random(0)
    issued: list[Share] = []
    for epoch, (op, size, pick) in enumerate(ops):
        if op == "issue":
            items = issuer.issue_shares(fe(5, 101), 2, size, epoch, rng)
            issued += items
        elif issued:
            items = issuer.split_subshares(issued[pick % len(issued)], size, rng)
        else:
            continue
        # Each tag computed enters the cache until it is full, and the
        # items just made are still there: verifying them computes no MAC.
        info = issuer._mac.cache_info()
        assert info.currsize == min(info.misses, _MAC_CACHE_SIZE)
        assert all(issuer.verify_tag(item) for item in items)
        assert issuer._mac.cache_info().misses == info.misses


def test_the_tag_cache_is_keyed_by_the_message(issuer13):
    # 1 == True == 1.0, but each writes a message of its own, so an epoch
    # of True or 1.0 does not match the cached tag of epoch 1.
    share = issuer13.issue_shares(fe(7), m=2, n=3, epoch=1, rng=Random(0))[0]
    assert issuer13.verify_tag(share)
    for epoch in (True, 1.0):
        assert not issuer13.verify_tag(dataclasses.replace(share, epoch=epoch))


def test_an_issuer_is_freed_without_the_garbage_collector():
    # The engine builds an issuer per run: its cached MAC must not hold a
    # reference back to it.
    gc.disable()
    try:
        issuer = ShareIssuer(b"cycle", modulus=13)
        assert issuer.verify_tag(issuer.issue_shares(fe(3), 2, 3, 0, Random(0))[0])
        refs = weakref.ref(issuer), weakref.ref(issuer._mac)
        del issuer
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_two_of_n_issue_remembers_each_subshare_once(issuer13):
    shares = issuer13.issue_shares(fe(4), m=2, n=2, epoch=0, rng=Random(0))
    subs = [s for share in shares for s in issuer13.split_subshares(share, 4, Random(1))]
    assert issuer13._mac.cache_info().misses == 2 + 8
    # Verifying the epoch's items is a lookup.
    assert all(issuer13.verify_tag(item) for item in [*shares, *subs])
    assert issuer13._mac.cache_info().misses == 2 + 8


def test_an_epoch_computes_each_tag_once(capsys, monkeypatch):
    # The round trip issues all p**m polynomials of m = 1, 2, 3 at epoch 0,
    # which have n * p distinct points (21 of 1,197 shares at p = 7).
    issuers = []
    init = ShareIssuer.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        issuers.append(self)

    monkeypatch.setattr(ShareIssuer, "__init__", keep)
    for p, points in ((7, 21), (13, 39)):
        assert cli.main(["hiding", "--prime", str(p)]) == 0
        assert "all-pass = true" in capsys.readouterr().out
        assert [issuer._mac.cache_info().misses for issuer in issuers] == [points]
        issuers.clear()


def test_remembered_tags_are_the_macs_of_their_messages():
    issuer = ShareIssuer(b"memo", modulus=13)
    rng = Random(0)
    items = []
    for secret, slope in product(range(13), repeat=2):
        shares = issuer.issue_shares(fe(secret), 2, 3, 5, rng, coefficients=[slope])
        items += shares + issuer.split_subshares(shares[secret % 3], 2 + secret % 3, rng)
    for item in items[-20:]:
        msg = "|".join(map(str, oracle_fields(issuer, item)))
        hits = issuer._mac.cache_info().hits
        assert issuer._mac(msg) == oracle_tag(b"memo", *oracle_fields(issuer, item))
        assert issuer._mac.cache_info().hits == hits + 1
    for item in items:
        assert item.tag == oracle_tag(b"memo", *oracle_fields(issuer, item))


def _public(item):
    """The same fields put through the public constructors."""
    return type(item)(**{
        f.name: _public(v) if dataclasses.is_dataclass(v) else v
        for f in dataclasses.fields(item)
        for v in [getattr(item, f.name)]
    })


def test_issuer_built_items_are_the_public_items(issuer13):
    shares = issuer13.issue_shares(fe(5), m=2, n=3, epoch=4, rng=Random(0), coefficients=[3])
    subs = issuer13.split_subshares(shares[1], 3, Random(1))
    built = [
        *shares, *subs, *(s.y for s in shares), *(s.value for s in subs),
        reconstruct(shares, 2, issuer13), combine_subshares(subs, 3, issuer13),
    ]
    for item in built:
        public = _public(item)
        assert item == public and public == item
        assert hash(item) == hash(public)
        assert repr(item) == repr(public)
        assert dataclasses.replace(item) == item
        name = dataclasses.fields(item)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(item, name, getattr(item, name))
    # Public construction still checks: a replaced value out of range fails.
    with pytest.raises(ValueError):
        dataclasses.replace(built[-1], value=13)


# --- subshares --------------------------------------------------------------


def test_subshare_additive_complement(issuer13):
    share = issuer13.issue_shares(fe(9, 13), m=1, n=3, epoch=0, rng=Random(0))[0]
    assert share.y.value == 9
    subs = issuer13.split_subshares(share, count=2, rng=ScriptRandom([4]))
    assert [s.value.value for s in subs] == [4, 5]
    assert all(issuer13.verify_tag(s) for s in subs)


def test_subshare_sum_matches_parent(issuer13):
    rng = Random(7)
    for _ in range(100):
        secret = rng.randrange(13)
        share = issuer13.issue_shares(fe(secret), m=2, n=3, epoch=0, rng=rng)[0]
        subs = issuer13.split_subshares(share, count=4, rng=rng)
        assert sum(s.value.value for s in subs) % 13 == share.y.value
        assert combine_subshares(subs, 4, issuer13).value == share.y.value


def test_subshare_count_must_be_at_least_two(issuer13):
    share = issuer13.issue_shares(fe(5), m=2, n=3, epoch=0, rng=Random(0))[0]
    with pytest.raises(ValueError):
        issuer13.split_subshares(share, count=1, rng=Random(0))


def test_combine_subshares_requires_all(issuer13):
    share = issuer13.issue_shares(fe(5), m=2, n=3, epoch=0, rng=Random(8))[0]
    subs = issuer13.split_subshares(share, count=3, rng=Random(8))
    with pytest.raises(ReconstructionError):
        combine_subshares(subs[:2], 3, issuer13)


def test_split_rejects_a_share_of_another_field(issuer13):
    share = issuer13.issue_shares(fe(5), m=2, n=3, epoch=0, rng=Random(0))[0]
    with pytest.raises(ValueError):
        ShareIssuer(b"test-key-17", modulus=17).split_subshares(share, 2, Random(0))


def test_combine_subshares_rejects_mixed_fields(issuer13):
    issuer17 = ShareIssuer(b"test-key-17", modulus=17)
    share13 = issuer13.issue_shares(fe(5), m=2, n=3, epoch=0, rng=Random(9))[0]
    share17 = issuer17.issue_shares(fe(5, 17), m=2, n=3, epoch=0, rng=Random(9))[0]
    subs13 = issuer13.split_subshares(share13, 2, Random(9))
    subs17 = issuer17.split_subshares(share17, 2, Random(9))
    with pytest.raises(ReconstructionError):
        combine_subshares([subs13[0], subs17[1]], 2)


def test_partial_subshares_leave_parent_uniform():
    # Exhaustive at p=7: seeing all but one subshare says nothing about the
    # parent value, because the missing piece ranges over the whole field.
    p = 7
    issuer = ShareIssuer(b"sub7", modulus=7)
    for count in (2, 3):
        counts = {}
        for parent_y in range(p):
            share = Share(
                holder=1,
                x=FieldElement(1, p),
                y=FieldElement(parent_y, p),
                epoch=0,
                tag=oracle_tag(b"sub7", "share", 7, 0, 1, parent_y),
            )
            for firsts in product(range(p), repeat=count - 1):
                subs = issuer.split_subshares(share, count, ScriptRandom(list(firsts)))
                for drop in range(count):
                    obs = tuple(s.value.value for i, s in enumerate(subs) if i != drop)
                    key = (count, drop, obs)
                    per_parent = counts.setdefault(key, {})
                    per_parent[parent_y] = per_parent.get(parent_y, 0) + 1
        for per_parent in counts.values():
            assert len(per_parent) == p
            assert len(set(per_parent.values())) == 1


# --- exhaustive verifiers ----------------------------------------------------


def test_exhaustive_round_trip_checker():
    assert exhaustive_round_trip_check(p=7, n=3) == {1: 0, 2: 0, 3: 0}


@pytest.mark.parametrize("p, n", [(5, 3), (5, 4), (7, 3), (7, 6)])
def test_round_trip_reconstructions_counts_the_checker(p, n, monkeypatch):
    import ratshare.shamir as shamir

    calls = []
    real = shamir.reconstruct
    monkeypatch.setattr(shamir, "reconstruct", lambda *a, **k: calls.append(1) or real(*a, **k))
    exhaustive_round_trip_check(p=p, n=n)
    assert len(calls) == round_trip_reconstructions(p, n)


def test_round_trip_check_counts_wrong_reconstructions(monkeypatch):
    import ratshare.shamir as shamir

    real = shamir.reconstruct

    def off_by_one_above_threshold(shares, m, issuer=None):
        value = real(shares, m, issuer)
        return fe((value.value + 1) % value.modulus, value.modulus) if len(shares) > m else value

    monkeypatch.setattr(shamir, "reconstruct", off_by_one_above_threshold)
    p, n = 5, 3
    expected = {m: p**m * sum(comb(n, k) for k in range(m + 1, n + 1)) for m in (1, 2, 3)}
    assert expected == {1: 20, 2: 25, 3: 0}
    assert exhaustive_round_trip_check(p=p, n=n) == expected


def test_exhaustive_hiding_checker():
    assert exhaustive_hiding_check(p=7, m=2, n=3) == {1: True}
    assert exhaustive_hiding_check(p=7, m=3, n=3) == {1: True, 2: True}


def hiding_oracle(p: int, m: int, n: int) -> dict[int, bool]:
    """Per subset size below m: every observation has each secret equally often."""
    results = {}
    for size in range(1, m):
        uniform = True
        for subset in combinations(range(1, n + 1), size):
            counts: dict[tuple[int, ...], dict[int, int]] = {}
            for poly in product(range(p), repeat=m):
                obs = tuple(sum(c * x**j for j, c in enumerate(poly)) % p for x in subset)
                per_secret = counts.setdefault(obs, {})
                per_secret[poly[0]] = per_secret.get(poly[0], 0) + 1
            uniform = uniform and all(
                len(per_secret) == p and len(set(per_secret.values())) == 1
                for per_secret in counts.values()
            )
        results[size] = uniform
    return results


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("p", range(2, 14))
def test_hiding_check_matches_counting_oracle(p, m):
    results = {n: exhaustive_hiding_check(p=p, m=m, n=n) for n in range(m, 6)}
    for n, result in results.items():
        assert result == hiding_oracle(p, m, n), n
    # Below p every x is a unit mod a prime; at n = 5 a composite p
    # (4..12) has some x sharing a factor with it, whose value leaks.
    uniform_at_five = all(results[5].values())
    if not is_prime(p):
        assert not uniform_at_five
    elif p > 5:
        assert uniform_at_five


def test_single_player_view_uniform_over_polynomials():
    # For each fixed secret, one player's share value over all slopes is a
    # permutation of the field.
    p = 7
    for secret in range(p):
        for player in (1, 2, 3):
            seen = sorted((secret + a * player) % p for a in range(p))
            assert seen == list(range(p))
