"""Field elements, share issuance, reconstruction, tags, subshares."""

import dataclasses
import gc
import weakref
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from itertools import combinations, product
from math import comb
from random import Random

import pytest
from hypothesis import given, strategies as st

from ratshare.shamir import (
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


# The most pieces a test splits one share into.
PIECES = 5


def slots(points=range(1, 13)) -> list:
    """A share slot per point, then the piece slots (point, 1..PIECES) of each."""
    points = list(points)
    return points + [(x, k) for x in points for k in range(1, PIECES + 1)]


def opened(issuer, epoch, points=range(1, 13)):
    """`issuer` with `epoch` open for `slots(points)`."""
    issuer.open_epoch(epoch, slots(points))
    return issuer


@pytest.fixture
def issuer13():
    return opened(ShareIssuer(b"test-key-13", modulus=13), 0)


def issue(issuer, secret, m, n, epoch, rng):
    """`issue_shares` at the points 1..n of a degree-(m-1) polynomial
    `draw_coefficients` draws from `rng`, in `epoch`, opened anew."""
    coefficients = issuer.draw_coefficients(m, rng)
    opened(issuer, epoch)
    return issuer.issue_shares(secret, epoch, coefficients, range(1, n + 1))


def point(share: Share) -> tuple:
    """The point (holder, y, epoch) of `share`, as `split_subshares` takes it."""
    return share.holder, share.y.value, share.epoch


class KeyOracle:
    """The keys an issuer under `key` holds, re-derived without `ShareIssuer`.

    Call `open` as the issuer's `open_epoch` is called.  Each epoch's keys
    are one `getrandbits` of k = p.bit_length() bits per key from
    `Random(key)`, read as k-bit chunks from the low end: a, then each
    slot's b.  A chunk out of range ([1, p) for a, [0, p) for a b) is
    replaced in turn by fresh k-bit draws until it fits.
    """

    def __init__(self, key: bytes, p: int):
        self.stream, self.p = Random(key), p
        self.epoch, self.a, self.b = None, None, {}

    def open(self, epoch: int, slot_list) -> None:
        slot_list = list(slot_list)
        k = self.p.bit_length()
        word = self.stream.getrandbits(k * (len(slot_list) + 1))
        keys = []
        for i in range(len(slot_list) + 1):
            key = (word >> (k * i)) % 2**k
            while not (1 if i == 0 else 0) <= key < self.p:
                key = self.stream.getrandbits(k)
            keys.append(key)
        self.epoch, self.a, self.b = epoch, keys[0], dict(zip(slot_list, keys[1:]))

    def tag(self, item) -> int | None:
        """The tag the rule gives `item`'s slot and value, or None if its
        slot is not open."""
        if isinstance(item, Share):
            slot, v = item.holder, item.y.value
        else:
            slot, v = (item.parent_holder, item.index), item.value.value
        b = self.b.get(slot)
        return None if b is None else (self.a * v + b) % self.p

    def accepts(self, item) -> bool:
        """The rule's verdict on an item whose fields are all ints: of the
        open epoch, with a value in [0, p), its slot open and its tag the
        rule's."""
        v = item.y.value if isinstance(item, Share) else item.value.value
        return (item.epoch == self.epoch and 0 <= v < self.p
                and self.tag(item) is not None and item.tag == self.tag(item))


def oracle_for(key: bytes, p: int, *epochs: int) -> KeyOracle:
    """A `KeyOracle` that has opened `epochs` for `slots()`, as `opened` does."""
    oracle = KeyOracle(key, p)
    for epoch in epochs:
        oracle.open(epoch, slots())
    return oracle


# The fields a tag covers, with a field element read as its value.
TAGGED_FIELDS = {
    Share: ("epoch", "holder", "y"),
    Subshare: ("epoch", "parent_holder", "index", "value"),
}


def rebuilt(item, **fields):
    """`item` with `fields` replaced, set past the constructors' checks."""
    new = object.__new__(type(item))
    for f in dataclasses.fields(item):
        object.__setattr__(new, f.name, fields.get(f.name, getattr(item, f.name)))
    return new


def with_field(item: Share | Subshare, field: str, value) -> Share | Subshare:
    """`item` with one field, or its field element's value, set to `value` unchecked."""
    if field in ("y", "value"):
        return rebuilt(item, **{field: rebuilt(getattr(item, field), value=value)})
    return rebuilt(item, **{field: value})


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
    issuer = opened(ShareIssuer(b"k", modulus=13), 0)
    with pytest.raises(ValueError, match="is not an int in"):
        issue(issuer, FieldElement(2.5, 13), 3, 3, 0, Random(0))
    # Nor does a coefficient that is not an int, though the issuer builds
    # its y values without the constructor's check.
    for coefficient in (1.5, 2.0):
        with pytest.raises(ValueError, match="is not an int"):
            issuer.issue_shares(fe(2), 0, [coefficient], (1, 2, 3))


def test_share_holder_is_an_int_point_of_the_field(issuer13):
    share = issue(issuer13, fe(5), m=2, n=3, epoch=0, rng=Random(0))[0]
    for holder in (13, -1, True, 1.0):
        with pytest.raises(ValueError, match="is not an int in"):
            Share(holder=holder, y=fe(1), epoch=0, tag=0)
        with pytest.raises(ValueError, match="is not an int in"):
            dataclasses.replace(share, holder=holder)
    assert Share(holder=0, y=fe(1), epoch=0, tag=0).holder == 0
    assert dataclasses.replace(share, holder=12).holder == 12


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
    shares = issue(issuer13, fe(5), m=1, n=3, epoch=0, rng=Random(0))
    assert [s.y.value for s in shares] == [5, 5, 5]


def test_forced_coefficient_evaluation(issuer13):
    # f(x) = 5 + 3x mod 13 at x = 1, 2, 3.
    shares = issuer13.issue_shares(fe(5), 0, [3], (1, 2, 3))
    assert [(s.holder, s.y.value) for s in shares] == [(1, 8), (2, 11), (3, 1)]


def test_issue_takes_points_of_the_issuers_field(issuer13):
    with pytest.raises(ValueError, match="secret modulus does not match"):
        issue(issuer13, fe(5, 7), m=2, n=3, epoch=0, rng=Random(0))
    # A point is an int in [1, p): the point 0 is the secret.
    for holder in (0, 13, -1, True, 1.0):
        with pytest.raises(ValueError, match=r"is not a point in 1\.\.12$"):
            issuer13.issue_shares(fe(5), 0, [3], (1, holder))
    with pytest.raises(ValueError, match=r"^holder 7 is not a point in 1\.\.6$"):
        issue(ShareIssuer(b"k", modulus=7), fe(5, 7), m=2, n=8, epoch=0, rng=Random(0))


# --- reconstruction --------------------------------------------------------


def test_hand_lagrange(issuer13):
    shares = issuer13.issue_shares(fe(5), 0, [3], (1, 2, 3))
    # 8*2*(2-1)^-1 + 11*1*(1-2)^-1 = 16 - 11 = 5 mod 13
    assert reconstruct(shares[:2], m=2).value == 5


def test_single_share_threshold_one(issuer13):
    shares = issue(issuer13, fe(9), m=1, n=3, epoch=0, rng=Random(1))
    assert reconstruct([shares[0]], m=1).value == 9


def test_round_trip_gf7_exhaustive():
    issuer = ShareIssuer(b"k7", modulus=7)
    rng = Random(2)
    for s in range(7):
        shares = issue(issuer, FieldElement(s, 7), m=2, n=3, epoch=0, rng=rng)
        for subset in combinations(shares, 2):
            assert reconstruct(list(subset), 2).value == s


def test_round_trip_random_secrets_gf101():
    issuer = ShareIssuer(b"k101", modulus=101)
    rng = Random(3)
    for _ in range(100):
        s = rng.randrange(101)
        shares = issue(issuer, FieldElement(s, 101), m=3, n=3, epoch=0, rng=rng)
        assert reconstruct(shares, 3).value == s


def test_reconstruct_uses_first_m_in_x_order(issuer13):
    shares = issuer13.issue_shares(fe(5), 0, [3], (1, 2, 3))
    shuffled = [shares[2], shares[0], shares[1]]
    assert reconstruct(shuffled, 2).value == 5


def test_reconstruct_errors(issuer13):
    shares = issue(issuer13, fe(5), m=3, n=3, epoch=0, rng=Random(0))
    with pytest.raises(ReconstructionError):
        reconstruct(shares[:2], 3)
    with pytest.raises(ReconstructionError):
        reconstruct([shares[0], shares[0], shares[1]], 3)
    other = issue(issuer13, fe(5), m=3, n=3, epoch=1, rng=Random(0))
    with pytest.raises(ReconstructionError):
        reconstruct([other[0], shares[1], shares[2]], 3)
    # A threshold below 1 is refused, not read as "interpolate from none"
    # (m = 0) or as a slice from the end (m = -1).
    for m in (0, -1):
        with pytest.raises(ReconstructionError):
            reconstruct(shares, m)
    with pytest.raises(ReconstructionError):
        reconstruct([], 0)


def _share(x, epoch=0, p=13, y=1, tag=0):
    return Share(holder=x, y=FieldElement(y, p), epoch=epoch, tag=tag)


def _forged(item):
    return dataclasses.replace(item, tag=item.tag + 1)


# Each case breaks two rules (or one rule twice) and expects the message
# of the rule checked first: threshold, count, epochs, field, duplicate x.
# A forged tag is not among the rules: tags are checked where shares
# arrive, so the `*-over-tag` cases pin the shape rule alone.
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
}


@pytest.mark.parametrize("case", list(RECONSTRUCT_PRECEDENCE))
def test_reconstruct_reports_the_first_broken_rule(case, issuer13):
    shares = issue(issuer13, fe(5), m=2, n=3, epoch=0, rng=Random(0))
    build, m, message = RECONSTRUCT_PRECEDENCE[case]
    with pytest.raises(ReconstructionError) as exc:
        reconstruct(build(shares), m)
    assert str(exc.value) == message


def _sub(parent=1, index=1, epoch=0, p=13, tag=0):
    return Subshare(parent_holder=parent, index=index, value=FieldElement(1, p), epoch=epoch,
                    tag=tag)


# As above for subshares: count, parents or epochs, field, indices.
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
}


@pytest.mark.parametrize("case", list(COMBINE_PRECEDENCE))
def test_combine_subshares_reports_the_first_broken_rule(case, issuer13):
    share = issue(issuer13, fe(5), m=2, n=3, epoch=0, rng=Random(0))[0]
    subs = issuer13.split_subshares(point(share), 3, Random(1))
    build, count, message = COMBINE_PRECEDENCE[case]
    with pytest.raises(ReconstructionError) as exc:
        combine_subshares(build(subs), count)
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
            Share(holder=x, y=FieldElement(y, p), epoch=3, tag=0) for x, y in zip(xs, ys)
        ]
        expected = lagrange_oracle(sorted(zip(xs, ys))[:m], p)
        assert reconstruct(shares, m) == FieldElement(expected, p)


# --- tags ------------------------------------------------------------------


def test_fresh_tags_verify(issuer13):
    for share in issue(issuer13, fe(7), m=2, n=3, epoch=4, rng=Random(4)):
        assert issuer13.verify_tag(share)


def test_mutated_share_fails_verification(issuer13):
    share = issue(issuer13, fe(7), m=2, n=3, epoch=4, rng=Random(4))[0]
    oracle = oracle_for(b"test-key-13", 13, 0, 4)
    assert not issuer13.verify_tag(dataclasses.replace(share, y=fe((share.y.value + 1) % 13)))
    assert not issuer13.verify_tag(dataclasses.replace(share, epoch=5))
    # The holder is the evaluation point: a share relabelled after issue
    # lands in another slot, and passes exactly when the two slots' masks
    # agree.
    relabelled = dataclasses.replace(share, holder=2)
    assert issuer13.verify_tag(relabelled) == (oracle.b[1] == oracle.b[2])
    assert not issuer13.verify_tag(dataclasses.replace(share, holder=0))


@given(
    field=st.sampled_from(["epoch", "holder", "y"]),
    delta=st.integers(min_value=1, max_value=12),
    secret=st.integers(min_value=0, max_value=12),
)
def test_tag_soundness_under_mutation(field, delta, secret):
    issuer = ShareIssuer(b"prop-key", modulus=13)
    share = issue(issuer, fe(secret), m=2, n=3, epoch=2, rng=Random(5))[0]
    if field == "epoch":
        mutant = dataclasses.replace(share, epoch=share.epoch + delta)
    elif field == "holder":
        mutant = dataclasses.replace(share, holder=(share.holder + delta) % 13)
    else:
        mutant = dataclasses.replace(share, y=fe((share.y.value + delta) % 13))
    # A changed epoch or value never verifies (a != 0); a changed holder
    # verifies exactly when its slot is open with the tag the rule gives.
    oracle = oracle_for(b"prop-key", 13, 2)
    assert issuer.verify_tag(mutant) == (field == "holder" and oracle.accepts(mutant))


@given(
    key_len=st.sampled_from([0, 1, 16, 63, 64, 65, 200]),
    data=st.data(),
)
def test_tags_are_the_documented_linear_rule(key_len, data):
    # Over one to three epochs, every tag is (a*v + b) mod p for the keys
    # `KeyOracle` re-derives from the key, an int.  Issuing and splitting
    # twice in an epoch gives the same tags, and neither draws a key.
    key = data.draw(st.binary(min_size=key_len, max_size=key_len), label="key")
    issuer, oracle = ShareIssuer(key, modulus=101), KeyOracle(key, 101)
    for _ in range(data.draw(st.integers(1, 3), label="epochs")):
        epoch = data.draw(st.integers(min_value=0, max_value=2**64 - 1), label="epoch")
        issuer.open_epoch(epoch, slots(range(1, 101)))
        oracle.open(epoch, slots(range(1, 101)))
        keys = issuer._keys.getstate()
        secret = fe(data.draw(st.integers(0, 100)), 101)
        coefficients = data.draw(st.lists(st.integers(0, 100), max_size=3), label="coefficients")
        holders = data.draw(st.lists(st.integers(1, 100), min_size=1, max_size=4), label="holders")
        count = data.draw(st.integers(2, PIECES), label="count")
        tags = []
        for _ in range(2):
            shares = issuer.issue_shares(secret, epoch, coefficients, holders)
            subs = issuer.split_subshares(point(shares[0]), count, Random(epoch))
            for item in [*shares, *subs]:
                assert type(item.tag) is int and item.tag == oracle.tag(item)
                assert issuer.verify_tag(item)
            tags.append([item.tag for item in [*shares, *subs]])
        assert tags[0] == tags[1]
        assert issuer._keys.getstate() == keys


def test_other_key_rejects(issuer13):
    share = issue(issuer13, fe(7), m=2, n=3, epoch=0, rng=Random(6))[0]
    other = opened(ShareIssuer(b"other-key", modulus=13), 0)
    assert other.verify_tag(share) == oracle_for(b"other-key", 13, 0).accepts(share)
    # Keeping the tag, each key pair passes exactly one value of the slot
    # (a != 0): the issued one under the issuer's own keys.
    candidates = [dataclasses.replace(share, y=fe(y)) for y in range(13)]
    assert [c for c in candidates if issuer13.verify_tag(c)] == [share]
    assert len([c for c in candidates if other.verify_tag(c)]) == 1


def test_a_slots_tag_is_not_forged_from_two_others():
    # From the tags of slots 1 and 3 a forger who took one mask for every
    # slot would solve for a and b, and tag any value in slot 2.  Slot 2's
    # own b leaves that forgery to the rule: it passes only if b_2 is the
    # mask the forger solved for.
    p = DEFAULT_PRIME
    issuer, oracle = ShareIssuer(b"masks", modulus=p), KeyOracle(b"masks", p)
    issuer.open_epoch(0, (1, 2, 3))
    oracle.open(0, (1, 2, 3))
    one, two, three = issuer.issue_shares(FieldElement(5, p), 0, [7], (1, 2, 3))
    a = (one.tag - three.tag) * pow(one.y.value - three.y.value, -1, p) % p
    b = (one.tag - a * one.y.value) % p
    y = (two.y.value + 1) % p
    forged = dataclasses.replace(two, y=FieldElement(y, p), tag=(a * y + b) % p)
    assert issuer.verify_tag(forged) == oracle.accepts(forged)
    assert not oracle.accepts(forged)


PRIMES = (13, 101, 2**31 - 1)


@given(
    key=st.binary(min_size=1, max_size=80),
    p=st.sampled_from(PRIMES),
    n=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_tags_and_verification_agree_with_a_linear_oracle(key, p, n, data):
    issuer, oracle = ShareIssuer(key, modulus=p), KeyOracle(key, p)
    m = data.draw(st.integers(min_value=1, max_value=n))
    epoch = data.draw(st.integers(min_value=0, max_value=10**6))
    secret = data.draw(st.integers(min_value=0, max_value=p - 1))
    rng = Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    coefficients = issuer.draw_coefficients(m, rng)
    issuer.open_epoch(epoch, slots(range(1, n + 1)))
    oracle.open(epoch, slots(range(1, n + 1)))
    shares = issuer.issue_shares(FieldElement(secret, p), epoch, coefficients, range(1, n + 1))
    items = list(shares)
    for share in shares[: data.draw(st.integers(min_value=0, max_value=n))]:
        items += issuer.split_subshares(point(share), data.draw(st.integers(2, PIECES)), rng)
    for item in items:
        assert item.tag == oracle.tag(item)
        assert issuer.verify_tag(item)

    # Each single-field change verifies exactly as the rule allows: never
    # for a changed value, tag or epoch, and for an item moved to another
    # slot only if that slot's mask gives the same tag.
    item = data.draw(st.sampled_from(items))
    if isinstance(item, Share):
        field = data.draw(st.sampled_from(["epoch", "holder", "y", "tag"]))
    else:
        field = data.draw(st.sampled_from(["epoch", "parent_holder", "index", "value", "tag"]))
    delta = data.draw(st.integers(min_value=1, max_value=p - 1))
    if field == "tag":
        mutant = dataclasses.replace(item, tag=(item.tag + delta) % p)
    else:
        old = getattr(item, field)
        if isinstance(old, FieldElement):
            new = fe((old.value + delta) % p, p)
        elif field == "holder":  # a point of the field
            new = (old + delta) % p
        else:
            new = old + delta
        mutant = dataclasses.replace(item, **{field: new})
    assert issuer.verify_tag(mutant) == oracle.accepts(mutant)
    if field in ("epoch", "y", "value", "tag"):
        assert not oracle.accepts(mutant)


def test_remembered_tags_are_bounded_and_kept_for_one_epoch():
    # The issuer keeps the keys of the open epoch alone: each epoch's items
    # verify while it is open, and none of them once another opens.
    issuer = ShareIssuer(b"bound", modulus=DEFAULT_PRIME)
    rng = Random(0)
    first = None
    for epoch in range(1_000):
        secret = FieldElement(rng.randrange(DEFAULT_PRIME), DEFAULT_PRIME)
        issuer.open_epoch(epoch, [1, 2, 3, (1, 1), (1, 2)])
        shares = issuer.issue_shares(secret, epoch, issuer.draw_coefficients(2, rng), (1, 2, 3))
        items = shares + issuer.split_subshares(point(shares[0]), 2, rng)
        assert all(issuer.verify_tag(item) for item in items)
        assert issuer._word.bit_length() <= 31 * 6  # a and five b, 31 bits each
        first = first or items
    assert not any(issuer.verify_tag(item) for item in first)


class One(IntEnum):
    ONE = 1


# Each equals an int the issuer tags, and all but 2**70 hash like it: True,
# 1.0, One.ONE and Decimal(1) equal 1, and -0.0 equals 0.  Decimal(1) and
# One.ONE also print as 1.  2**70 is 10 mod 13 and past 2**64.
ODD_VALUES = (True, 1.0, One.ONE, Decimal(1), -0.0, 2**70)


def _int_items(issuer13, n):
    """A share and a subshare of GF(13) whose fields are the int n wherever
    the issuer tags it: n mod 13 as a field value, and as a point unless
    that is 0; n as an epoch or an index if it is a count, else 1."""
    epoch = n if 0 <= n < 2**64 else 1
    index = n if 0 < n < 2**64 else 1
    x, v = n % 13 or 1, n % 13
    opened(issuer13, epoch)
    share = issuer13.issue_shares(fe(v), epoch, [0], (x,))[0]
    # The first `index` pieces take the value v, the last what is left.
    subs = issuer13.split_subshares((x, v, epoch), index + 1, ScriptRandom([v] * index))
    return share, subs[index - 1]


def test_an_odd_field_never_verifies_against_the_int_items_tag(issuer13):
    # A value that is not an exact int can equal, and hash like, the int
    # the issuer tagged.  In any field a tag covers, or as the tag itself,
    # it fails.
    for odd in ODD_VALUES:
        for item in _int_items(issuer13, int(odd)):
            for field in TAGGED_FIELDS[type(item)]:
                assert not issuer13.verify_tag(with_field(item, field, odd)), (odd, field)
            assert issuer13.verify_tag(item)
            tag = item.tag
            odd_tags = [float(tag), Decimal(tag)] + ([bool(tag), One(1)] if tag == 1 else [])
            for odd_tag in odd_tags + ([False, -0.0] if tag == 0 else []):
                assert not issuer13.verify_tag(rebuilt(item, tag=odd_tag)), (odd, odd_tag)


def test_a_field_outside_what_the_issuer_tags_fails(issuer13):
    # Nothing raises, even for a value too long for `str` to print (over
    # 4,300 digits).  A value moved by p fails too, though a*(v+p) = a*v.
    share = issue(issuer13, fe(7), m=2, n=3, epoch=1, rng=Random(0))[0]
    sub = issuer13.split_subshares(point(share), 3, Random(1))[0]
    huge = 10**5000
    y, value = share.y.value, sub.value.value
    outside = {
        "epoch": (-1, 0, 2, 2**64, huge), "holder": (0, 13, 14, -1, huge),
        "y": (13, -1, huge, y + 13, y - 13),
        "parent_holder": (0, 13, 14, -1, huge), "index": (0, -1, PIECES + 1, 2**64, huge),
        "value": (13, -1, huge, value + 13, value - 13),
    }
    for item in (share, sub):
        for field in TAGGED_FIELDS[type(item)]:
            for v in outside[field]:
                assert not issuer13.verify_tag(with_field(item, field, v)), (field, v)


def test_the_issuer_refuses_what_it_could_not_verify(issuer13):
    # Epoch 1 is open.  An epoch equal to it but not an exact int is refused
    # as every epoch that is not open is.
    opened(issuer13, 1)
    for epoch in (True, 1.0, One.ONE, Decimal(1), -1, 0, 2, 2**64):
        with pytest.raises(ValueError, match="^epoch is not the issuer's open epoch$"):
            issuer13.issue_shares(fe(3), epoch, [1], (1, 2))
        with pytest.raises(ValueError, match="^epoch is not the issuer's open epoch$"):
            issuer13.split_subshares((1, 3, epoch), 2, Random(0))
    for parent in (True, 1.0, One.ONE, 0, 13):
        with pytest.raises(ValueError, match="is not a point"):
            issuer13.split_subshares((parent, 3, 1), 2, Random(0))
    for y in (1.0, Decimal(1), True):
        with pytest.raises(ValueError, match="is not an int"):
            issuer13.split_subshares((1, y, 1), 2, Random(0))
    # So is a point, or a piece, with no slot in the open epoch.
    opened(issuer13, 2, points=(1, 2))
    with pytest.raises(ValueError, match="^holder 3 has no slot in the open epoch$"):
        issuer13.issue_shares(fe(3), 2, [1], (1, 3))
    with pytest.raises(ValueError, match="^holder 3's 2 pieces have no slots$"):
        issuer13.split_subshares((3, 3, 2), 2, Random(0))
    with pytest.raises(ValueError, match=f"^holder 1's {PIECES + 1} pieces have no slots$"):
        issuer13.split_subshares((1, 3, 2), PIECES + 1, Random(0))


def test_a_holder_too_long_to_print_is_refused_by_its_size(issuer13):
    # `repr` of an int past 4,300 digits raises, so the refusal gives the
    # holder's size instead.
    huge = 10**5000
    message = rf"^holder <int of {huge.bit_length()} bits> is not a point in 1\.\.12$"
    with pytest.raises(ValueError, match=message):
        issuer13.issue_shares(fe(3), 0, [1], (huge,))
    with pytest.raises(ValueError, match=message):
        issuer13.split_subshares((huge, 3, 0), 2, Random(0))


@given(
    p=st.sampled_from((13, 101)),
    epoch=st.one_of(st.just(3), st.integers(-5, 2**65), st.booleans(),
                    st.floats(allow_nan=False), st.sampled_from((One.ONE, Decimal(3)))),
    holders=st.lists(st.one_of(st.integers(-2, 110), st.booleans(), st.just(One.ONE)),
                     min_size=1, max_size=4),
    y=st.one_of(st.integers(-200, 200), st.booleans(), st.just(2.0)),
    count=st.integers(2, 4),
)
def test_every_item_the_issuer_returns_verifies(p, epoch, holders, y, count):
    issuer = opened(ShareIssuer(b"every", modulus=p), 3, range(1, p))

    def made(make, *args):
        try:
            return make(*args)
        except ValueError:
            return None

    shares = made(issuer.issue_shares, fe(1, p), epoch, [y], holders)
    pieces = made(issuer.split_subshares, (holders[0], y, epoch), count, Random(0))
    for item in (shares or []) + (pieces or []):
        assert issuer.verify_tag(item)
    epoch_ok = type(epoch) is int and epoch == 3
    points = [type(h) is int and 0 < h < p for h in holders]
    # Issuing takes y as a coefficient, which reduces to an int if it is a bool.
    assert (shares is not None) == (epoch_ok and all(points) and type(y) in (int, bool))
    assert (pieces is not None) == (epoch_ok and points[0] and type(y) is int)


def test_an_item_changed_in_place_after_issue_fails_its_tag(issuer13):
    # A frozen dataclass still yields to object.__setattr__: verification
    # must read the item's fields on every call, not remember the item.  An
    # item moved to another slot passes exactly as the rule says, and a
    # tag or element of the wrong type fails without raising.
    shares = issue(issuer13, fe(7), m=2, n=3, epoch=1, rng=Random(0))
    subs = issuer13.split_subshares(point(shares[0]), 3, Random(1))
    oracle = oracle_for(b"test-key-13", 13, 0, 1)
    changes = [
        (shares[0], "y", fe(8)), (shares[1], "holder", 3), (shares[2], "epoch", 2),
        (shares[2], "epoch", 1.0), (subs[0], "value", fe(0)), (subs[1], "index", 3),
        (subs[2], "parent_holder", 2), (subs[2], "epoch", True),
        (shares[0], "holder", One.ONE), (subs[0], "index", Decimal(1)),
        (shares[0], "tag", None), (shares[1], "tag", str(shares[1].tag)),
        (shares[0], "y", 3), (subs[0], "value", None), (subs[1], "tag", b""),
    ]
    for item, field, value in changes:
        assert issuer13.verify_tag(item)
        old = getattr(item, field)
        object.__setattr__(item, field, value)
        moved = field in ("holder", "parent_holder", "index") and type(value) is int
        assert issuer13.verify_tag(item) == (moved and oracle.accepts(item)), (field, value)
        object.__setattr__(item, field, old)
        assert issuer13.verify_tag(item)


class _SubclassedShare(Share):
    pass


def test_verify_tag_formats_each_item_by_its_type(issuer13):
    shares = issue(issuer13, fe(7), m=2, n=3, epoch=1, rng=Random(0))
    oracle = oracle_for(b"test-key-13", 13, 0, 1)
    # A subshare is tagged in its own slot (parent, index): carrying the
    # tag its value would have as its parent's share, it passes only where
    # the two slots' masks agree.
    for share in shares:
        for sub in issuer13.split_subshares(point(share), PIECES, Random(1)):
            assert issuer13.verify_tag(sub)
            as_share = (oracle.a * sub.value.value + oracle.b[sub.parent_holder]) % 13
            assert issuer13.verify_tag(dataclasses.replace(sub, tag=as_share)) == (
                as_share == sub.tag)
    # A subclass of Share is verified as the share it extends.
    share = shares[0]
    subclassed = _SubclassedShare(share.holder, share.y, share.epoch, share.tag)
    assert issuer13.verify_tag(subclassed)
    assert not issuer13.verify_tag(dataclasses.replace(subclassed, epoch=2))


def test_an_issuer_is_freed_without_the_garbage_collector():
    # The engine builds an issuer per run: nothing it holds may refer back
    # to it.
    gc.disable()
    try:
        issuer = ShareIssuer(b"cycle", modulus=13)
        assert issuer.verify_tag(issue(issuer, fe(3), 2, 3, 0, Random(0))[0])
        refs = weakref.ref(issuer), weakref.ref(issuer._keys)
        del issuer
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def _public(item):
    """The same fields put through the public constructors."""
    return type(item)(**{
        f.name: _public(v) if dataclasses.is_dataclass(v) else v
        for f in dataclasses.fields(item)
        for v in [getattr(item, f.name)]
    })


def test_issuer_built_items_are_the_public_items(issuer13):
    shares = opened(issuer13, 4).issue_shares(fe(5), 4, [3], (1, 2, 3))
    subs = issuer13.split_subshares(point(shares[1]), 3, Random(1))
    built = [
        *shares, *subs, *(s.y for s in shares), *(s.value for s in subs),
        reconstruct(shares, 2), combine_subshares(subs, 3),
    ]
    for item in built:
        public = _public(item)
        assert item == public and public == item
        assert hash(item) == hash(public)
        assert repr(item) == repr(public)
        assert dataclasses.replace(item) == item
        # Slot-backed, as the public items are, and frozen in every field.
        assert not hasattr(item, "__dict__") and not hasattr(public, "__dict__")
        for f in dataclasses.fields(item):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(item, f.name, getattr(item, f.name))
    # Public construction still checks: a replaced value or holder out of
    # range fails, for each kind of built item.
    for element in (built[-1], built[-2], shares[0].y, subs[0].value):
        with pytest.raises(ValueError, match="is not an int in"):
            dataclasses.replace(element, value=13)
    with pytest.raises(ValueError, match="is not an int in"):
        dataclasses.replace(shares[0], holder=13)


# --- subshares --------------------------------------------------------------


def test_subshare_additive_complement(issuer13):
    share = issue(issuer13, fe(9, 13), m=1, n=3, epoch=0, rng=Random(0))[0]
    assert share.y.value == 9
    subs = issuer13.split_subshares(point(share), count=2, rng=ScriptRandom([4]))
    assert [s.value.value for s in subs] == [4, 5]
    assert all(issuer13.verify_tag(s) for s in subs)


def test_subshare_sum_matches_parent(issuer13):
    rng = Random(7)
    for _ in range(100):
        secret = rng.randrange(13)
        share = issue(issuer13, fe(secret), m=2, n=3, epoch=0, rng=rng)[0]
        subs = issuer13.split_subshares(point(share), count=4, rng=rng)
        assert sum(s.value.value for s in subs) % 13 == share.y.value
        assert combine_subshares(subs, 4).value == share.y.value


def test_subshare_count_must_be_at_least_two(issuer13):
    share = issue(issuer13, fe(5), m=2, n=3, epoch=0, rng=Random(0))[0]
    with pytest.raises(ValueError):
        issuer13.split_subshares(point(share), count=1, rng=Random(0))


def test_combine_subshares_requires_all(issuer13):
    share = issue(issuer13, fe(5), m=2, n=3, epoch=0, rng=Random(8))[0]
    subs = issuer13.split_subshares(point(share), count=3, rng=Random(8))
    with pytest.raises(ReconstructionError):
        combine_subshares(subs[:2], 3)


def test_combine_subshares_rejects_mixed_fields(issuer13):
    issuer17 = ShareIssuer(b"test-key-17", modulus=17)
    share13 = issue(issuer13, fe(5), m=2, n=3, epoch=0, rng=Random(9))[0]
    share17 = issue(issuer17, fe(5, 17), m=2, n=3, epoch=0, rng=Random(9))[0]
    subs13 = issuer13.split_subshares(point(share13), 2, Random(9))
    subs17 = issuer17.split_subshares(point(share17), 2, Random(9))
    with pytest.raises(ReconstructionError):
        combine_subshares([subs13[0], subs17[1]], 2)


def test_partial_subshares_leave_parent_uniform():
    # Exhaustive at p=7: seeing all but one subshare says nothing about the
    # parent value, because the missing piece ranges over the whole field.
    p = 7
    issuer = opened(ShareIssuer(b"sub7", modulus=7), 0)
    for count in (2, 3):
        counts = {}
        for parent_y in range(p):
            share = Share(
                holder=1,
                y=FieldElement(parent_y, p),
                epoch=0,
                tag=0,
            )
            for firsts in product(range(p), repeat=count - 1):
                subs = issuer.split_subshares(point(share), count, ScriptRandom(list(firsts)))
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

    def off_by_one_above_threshold(shares, m):
        value = real(shares, m)
        return fe((value.value + 1) % value.modulus, value.modulus) if len(shares) > m else value

    monkeypatch.setattr(shamir, "reconstruct", off_by_one_above_threshold)
    p, n = 5, 3
    expected = {m: p**m * sum(comb(n, k) for k in range(m + 1, n + 1)) for m in (1, 2, 3)}
    assert expected == {1: 20, 2: 25, 3: 0}
    assert exhaustive_round_trip_check(p=p, n=n) == expected


def test_round_trip_refuses_a_share_whose_tag_fails(monkeypatch):
    # The round trip checks each issued share once, as its holder would on
    # receipt, so a share issued with a bad tag stops it.
    real = ShareIssuer.issue_shares

    def first_tag_zeroed(self, *args, **kwargs):
        shares = real(self, *args, **kwargs)
        shares[0] = dataclasses.replace(shares[0], tag=(shares[0].tag + 1) % shares[0].y.modulus)
        return shares

    monkeypatch.setattr(ShareIssuer, "issue_shares", first_tag_zeroed)
    with pytest.raises(ReconstructionError, match="^tag verification failed for holder 1$"):
        exhaustive_round_trip_check(p=5, n=3)


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
