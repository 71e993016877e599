"""Prime-field Shamir sharing with issuer-authenticated shares.

A secret s is shared by sampling a uniform polynomial f of degree m-1
over GF(p) with f(0) = s; player i holds the point (i, f(i)).  Any m
distinct points recover f(0) by Lagrange interpolation, while fewer
leave the secret information-theoretically hidden.  A trusted issuer
tags every share (and every additive subshare) with a keyed MAC so
holders cannot substitute forged values.  The MAC is HMAC-SHA256 (RFC
2104), computed from the inner and outer pad states that each issuer
builds once from its key.  A tag is a pure function of its message, so
each issuer's MAC is itself a bounded cache (its 256 most recent
messages) that issuing, splitting and verifying all call: a point issued
again, or an item verified, while its message is cached computes no
MAC.  The cache is keyed by the message, not by an item's fields,
because 1 == True == 1.0, nor by the item, which `object.__setattr__`
can still change.  Each kind of message has one definition, a module
function of the modulus, the epoch and the item's fields (`_share_msg`,
`_subshare_msg`), that every caller builds in full; verification builds
it on every call.

A share's evaluation point is its holder, so the tag covers who holds
it: a share relabelled after issue fails its tag.  The Lagrange weights
at zero are cached per point set and field.  A tag is checked where an
item arrives; reconstruction checks its items' shape in one pass and
combines them.  Items are frozen, slot-backed dataclasses.  The values an
issuer or a reconstruction has just reduced mod an already checked
modulus, and the holders an issuer has checked as points of its field,
are set into their items' slots directly, without the public
constructors' checks; every other item is checked.

The exhaustive small-field verifiers (reconstruction round-trip and
hiding-posterior uniformity) live here so the command-line `hiding`
report and the test suite share one implementation of the enumeration.
The hiding check evaluates each polynomial once, as one array over all
polynomials and evaluation points.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb
from operator import attrgetter, mul
from random import Random

import numpy as np

DEFAULT_PRIME = 2**31 - 1
# Miller-Rabin with these bases is exact for every n < 2**64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_checked_moduli: set[int] = set()
# Distinct (x-set, field) pairs whose Lagrange weights are kept.  A
# `hiding` run at n = 3 uses 7, and one at the largest accepted n (6, at
# p = 7) uses 41.
_LAGRANGE_CACHE_SIZE = 256
# HMAC-SHA256's block size in bytes, and the inner and outer key pads as
# byte translation tables (RFC 2104).
_BLOCK = 64
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))
# How many of its most recent messages' MACs an issuer keeps.  The largest
# `hiding` run accepted has n * p = 93 distinct points (p = 31, n = 3), and
# an engine epoch tags the 2(n-1) split pieces of a 2-of-n epoch, and for
# m-of-n one share per designated player whose share is sent.
_MAC_CACHE_SIZE = 256


class ReconstructionError(ValueError):
    """A share set cannot be combined into a secret."""


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at 2**64 and above."""
    if p >= 2**64:
        raise ValueError(f"primality is only decided below 2**64, got {p}")
    if p < 2:
        return False
    for w in _WITNESSES:
        if p % w == 0:
            return p == w
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s, d odd
    d = (p - 1) >> s
    for w in _WITNESSES:
        x = pow(w, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def _check_modulus(p: int) -> None:
    if p in _checked_moduli:
        return
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    _checked_moduli.add(p)


@dataclass(frozen=True, slots=True)
class FieldElement:
    """A checked element of GF(p), p prime; the arithmetic runs on ints."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus not in _checked_moduli:
            _check_modulus(self.modulus)
        if type(self.value) is not int or not 0 <= self.value < self.modulus:
            raise ValueError(f"value {self.value!r} is not an int in [0, {self.modulus})")


@dataclass(frozen=True, slots=True)
class Share:
    """An authenticated point (holder, y) of one sharing epoch.

    The holder's player id is the evaluation point, an int in [0, p) for
    y's modulus p, and the tag covers it.
    """

    holder: int
    y: FieldElement
    epoch: int
    tag: bytes

    def __post_init__(self) -> None:
        p = self.y.modulus
        if type(self.holder) is not int or not 0 <= self.holder < p:
            raise ValueError(f"holder {self.holder!r} is not an int in [0, {p})")


@dataclass(frozen=True, slots=True)
class Subshare:
    """One additive piece of a parent share's y value."""

    parent_holder: int
    index: int
    value: FieldElement
    epoch: int
    tag: bytes


# Trusted builds: each sets an item's fields on a new instance through
# the slots' member descriptors, the way the frozen dataclass `__init__`
# does through `object.__setattr__`, but skips `__init__` and
# `__post_init__`.  They are only for values reduced mod a modulus that a
# FieldElement already checked (and holders checked to lie in [1, p)),
# so the result equals, hashes and compares like the public construction
# of the same fields, and stays frozen.

_new = object.__new__
_set_value, _set_modulus = FieldElement.value.__set__, FieldElement.modulus.__set__
_set_holder, _set_y = Share.holder.__set__, Share.y.__set__
_set_epoch, _set_tag = Share.epoch.__set__, Share.tag.__set__
_set_parent, _set_index = Subshare.parent_holder.__set__, Subshare.index.__set__
_set_sub_value, _set_sub_epoch = Subshare.value.__set__, Subshare.epoch.__set__
_set_sub_tag = Subshare.tag.__set__


def _element(value: int, modulus: int) -> FieldElement:
    item = _new(FieldElement)
    _set_value(item, value)
    _set_modulus(item, modulus)
    return item


def _share(holder: int, y: FieldElement, epoch: int, tag: bytes) -> Share:
    item = _new(Share)
    _set_holder(item, holder)
    _set_y(item, y)
    _set_epoch(item, epoch)
    _set_tag(item, tag)
    return item


def _subshare(parent: int, index: int, value: FieldElement, epoch: int, tag: bytes) -> Subshare:
    item = _new(Subshare)
    _set_parent(item, parent)
    _set_index(item, index)
    _set_sub_value(item, value)
    _set_sub_epoch(item, epoch)
    _set_sub_tag(item, tag)
    return item


def _keyed_mac(key: bytes):
    """HMAC-SHA256 under `key` (RFC 2104), as a cache of its most recent
    messages.

    The inner and outer hash states after the padded key are built once,
    and every tag copies both.  The closure holds only those two states,
    so an issuer and its MAC form no reference cycle.
    """
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    inner_state = hashlib.sha256(key.translate(_IPAD))
    outer_state = hashlib.sha256(key.translate(_OPAD))

    @lru_cache(maxsize=_MAC_CACHE_SIZE)
    def mac(msg: str) -> bytes:
        inner = inner_state.copy()
        inner.update(msg.encode())
        outer = outer_state.copy()
        outer.update(inner.digest())
        return outer.digest()

    return mac


# The MAC message of an item is "|"-joined: its kind, the modulus p, the
# epoch (and a subshare's parent), then the item's own fields.  These two
# functions are its only definition.


def _share_msg(p: int, epoch: int, holder: int, y: int) -> str:
    return f"share|{p!s}|{epoch!s}|{holder!s}|{y!s}"


def _subshare_msg(p: int, epoch: int, parent: int, index: int, value: int) -> str:
    return f"subshare|{p!s}|{epoch!s}|{parent!s}|{index!s}|{value!s}"


def require_points(n: int, p: int) -> None:
    """Refuse shares at the points 1..n of GF(p) unless n < p: the point p is
    0 mod p, where the polynomial is the secret."""
    if n >= p:
        raise ValueError(f"need n < p, got n={n}, p={p}")


def _polynomial(secret: FieldElement, coefficients: list[int], p: int) -> list[int]:
    """The coefficients of f with f(0) = `secret` and a_1.. = `coefficients`,
    reduced mod p, highest degree first for Horner's rule."""
    poly = [secret.value] + [c % p for c in coefficients]
    # The y values are built unchecked, so every coefficient must reduce to
    # an int for them to be ints in [0, p).
    for c in poly:
        if type(c) is not int:
            raise ValueError(f"coefficient {c!r} is not an int")
    poly.reverse()
    return poly


class ShareIssuer:
    """Trusted issuer: creates, tags, and verifies shares.

    Conceptually the issuer signs shares so holders cannot forge them; at
    desk scale a keyed MAC (HMAC-SHA256) gives simulated players the same
    integrity guarantee, with verification going through the issuer.
    """

    def __init__(self, key: bytes, modulus: int = DEFAULT_PRIME):
        _check_modulus(modulus)
        self._mac = _keyed_mac(key)
        self.modulus = modulus

    def issue_shares(
        self, secret: FieldElement, epoch: int, coefficients: list[int], holders
    ) -> list[Share]:
        """Issue tagged shares of `secret` to `holders`, int points in [1, p)
        of the issuer's field GF(p): the point 0 is the secret.

        The coefficients a_1.. are given, drawn earlier by `draw_coefficients`
        or pinned by a caller, so issuing draws nothing; the threshold is
        len(coefficients) + 1.  An engine epoch issues one holder's share at
        a time, as it is sent; `hiding` issues every holder's.
        """
        p = self.modulus
        if secret.modulus != p:
            raise ValueError("secret modulus does not match issuer modulus")
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        for i in holders:
            if type(i) is not int or not 0 < i < p:
                raise ValueError(f"holder {i!r} is not a point in 1..{p - 1}")
        poly = _polynomial(secret, coefficients, p)
        mac = self._mac
        shares = []
        append = shares.append
        # Horner's rule as in `evaluate`, inline: `hiding` issues thousands
        # of three-point polynomials, and calling `evaluate` per issue read
        # a median pair ratio of 1.038 on it.
        for i in holders:
            y = 0
            for c in poly:
                y = (y * i + c) % p
            tag = mac(_share_msg(p, epoch, i, y))
            append(_share(i, _element(y, p), epoch, tag))
        return shares

    def evaluate(self, secret: FieldElement, coefficients: list[int], points) -> list[int]:
        """The values at `points` of the polynomial with f(0) = `secret`, a
        value of the issuer's field, and coefficients a_1.. = `coefficients`:
        the y values `issue_shares` tags, and the values a 2-of-n epoch
        splits without building a share."""
        p = self.modulus
        poly = _polynomial(secret, coefficients, p)
        ys = []
        for x in points:
            y = 0
            for c in poly:
                y = (y * x + c) % p
            ys.append(y)
        return ys

    def draw_coefficients(self, m: int, rng: Random) -> list[int]:
        """The coefficients a_1..a_{m-1} of a fresh degree-(m-1) polynomial,
        uniform over the field: the one place a polynomial is drawn."""
        p = self.modulus
        return [rng.randrange(p) for _ in range(m - 1)]

    def verify_tag(self, item: Share | Subshare) -> bool:
        """True iff the tag matches the issuer's keyed code over the fields."""
        if isinstance(item, Share):
            msg = _share_msg(self.modulus, item.epoch, item.holder, item.y.value)
        else:
            msg = _subshare_msg(self.modulus, item.epoch, item.parent_holder, item.index,
                                item.value.value)
        return hmac.compare_digest(item.tag, self._mac(msg))

    def split_subshares(self, point: tuple, count: int, rng: Random) -> list[Subshare]:
        """Split the y value of the point (holder, y, epoch) into `count`
        additive subshares summing to it.

        y must be an int in [0, p) of the issuer's field, as `evaluate`
        gives it: a 2-of-n epoch splits its holders' values without building
        their shares, and tags only the pieces.  All but the last value are
        uniform; each piece carries its own tag (the tag substitutes for a
        proof that the split was done honestly).
        """
        if count < 2:
            raise ValueError(f"subshare count must be >= 2, got {count}")
        p = self.modulus
        parent, y, epoch = point
        values = [rng.randrange(p) for _ in range(count - 1)]
        values.append((y - sum(values)) % p)
        mac = self._mac
        subshares = []
        append = subshares.append
        for k, v in enumerate(values, start=1):
            tag = mac(_subshare_msg(p, epoch, parent, k, v))
            append(_subshare(parent, k, _element(v, p), epoch, tag))
        return subshares


@lru_cache(maxsize=_LAGRANGE_CACHE_SIZE)
def _lagrange_at_zero(xs: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Weights w with f(0) = sum(w[i] * f(xs[i])) mod p, for deg f < len(xs).

    The xs must be distinct mod p.  The weights depend on p as well as on
    the xs, so both make the cache key.
    """
    weights = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if i != j:
                num = num * -xj % p
                den = den * (xi - xj) % p
        weights.append(num * pow(den, p - 2, p) % p)
    return tuple(weights)


def reconstruct(shares: list[Share] | set[Share] | tuple[Share, ...], m: int) -> FieldElement:
    """Recover f(0) from at least m shares of one epoch.

    Uses exactly the first m shares in increasing holder order so transcripts
    reproduce.  Tags are checked where shares arrive, not here.
    """
    if m < 1:
        raise ReconstructionError(f"threshold must be >= 1, got {m}")
    shares = sorted(shares, key=attrgetter("holder"))
    if len(shares) < m:
        raise ReconstructionError(f"need at least {m} shares, got {len(shares)}")
    # One pass gathers what the checks need; they still fail in the order
    # epochs, field, duplicate holder.  Sorted by holder, a repeat is
    # adjacent.
    first = shares[0]
    epoch, p = first.epoch, first.y.modulus
    mixed_epochs = mixed_fields = duplicate = False
    xs = []
    ys = []
    prev = None
    for s in shares:
        x, y = s.holder, s.y
        if s.epoch != epoch:
            mixed_epochs = True
        if y.modulus != p:
            mixed_fields = True
        if x == prev:
            duplicate = True
        prev = x
        xs.append(x)
        ys.append(y.value)
    if mixed_epochs:
        raise ReconstructionError(f"shares span epochs {sorted({s.epoch for s in shares})}")
    if mixed_fields:
        raise ReconstructionError("shares span different fields")
    if duplicate:
        raise ReconstructionError("duplicate x coordinates")
    # The weights are m long, so only the first m y values are summed.
    weights = _lagrange_at_zero(tuple(xs[:m]), p)
    return _element(sum(map(mul, ys, weights)) % p, p)


def combine_subshares(subshares: list[Subshare], count: int) -> FieldElement:
    """Recover a parent share's y value from all `count` of its subshares;
    checks fail in the order count, parents or epochs, field, indices.
    Tags are checked where subshares arrive, not here."""
    if len(subshares) != count:
        raise ReconstructionError(f"need all {count} subshares, got {len(subshares)}")
    if len({(s.parent_holder, s.epoch) for s in subshares}) != 1:
        raise ReconstructionError("subshares from mixed parents or epochs")
    fields = {s.value.modulus for s in subshares}
    if len(fields) != 1:
        raise ReconstructionError("subshares span different fields")
    if {s.index for s in subshares} != set(range(1, count + 1)):
        raise ReconstructionError("subshare indices are not 1..count")
    (p,) = fields
    return _element(sum(s.value.value for s in subshares) % p, p)


# --- exhaustive small-field verifiers ---------------------------------------


_ROUND_TRIP_THRESHOLDS = (1, 2, 3)


def round_trip_reconstructions(p: int, n: int) -> int:
    """How many reconstructions `exhaustive_round_trip_check` makes.

    Per threshold m: p**m polynomials, each recovered from every subset
    of size m..n.
    """
    return sum(p**m * sum(comb(n, k) for k in range(m, n + 1)) for m in _ROUND_TRIP_THRESHOLDS)


def exhaustive_round_trip_check(p: int = 7, n: int = 3) -> dict[int, int]:
    """Count reconstruction failures over every polynomial and k-subset.

    For each threshold m in 1..3, every secret and every coefficient
    vector is shared at the points 1..n (n < p), each share's tag checked
    once as its holder would on receipt (a failure raises), and every
    subset of size m..n reconstructed.  Returns failures per threshold
    (all zero for a correct implementation).
    """
    issuer = ShareIssuer(b"round-trip-check", modulus=p)
    require_points(n, p)
    points = range(1, n + 1)
    verify = issuer.verify_tag
    failures = {}
    for m in _ROUND_TRIP_THRESHOLDS:
        bad = 0
        for secret in range(p):
            s = FieldElement(secret, p)
            for coeffs in product(range(p), repeat=m - 1):
                shares = issuer.issue_shares(s, 0, list(coeffs), points)
                for share in shares:
                    if not verify(share):
                        raise ReconstructionError(
                            f"tag verification failed for holder {share.holder}")
                for k in range(m, n + 1):
                    for subset in combinations(shares, k):
                        if reconstruct(list(subset), m).value != secret:
                            bad += 1
        failures[m] = bad
    return failures


def exhaustive_hiding_check(p: int = 7, m: int = 2, n: int = 3) -> dict[int, bool]:
    """Verify the posterior over secrets is exactly uniform below threshold.

    For every subset of fewer than m players and every observable value
    tuple, each secret must be consistent with the observation equally
    often (counting over all degree-(m-1) polynomials).  Returns, per
    subset size, whether uniformity held for every subset of that size.
    """
    if m < 2:
        return {}  # no subset is smaller than a threshold of 1
    # Row k holds the coefficients of one polynomial, secret first; every
    # polynomial is evaluated once, at x = 1..n.  Each term is reduced mod
    # p before it is summed, so the int64 sums stay below m * p.
    coeffs = np.indices((p,) * m, dtype=np.int64).reshape(m, -1).T
    powers = np.array([[pow(x, j, p) for x in range(1, n + 1)] for j in range(m)], dtype=np.int64)
    values = (coeffs[:, :, None] * powers % p).sum(axis=1) % p
    secrets = coeffs[:, 0]

    def uniform(subset: tuple[int, ...]) -> bool:
        # Count (observation, secret) pairs: one row per observation, one
        # column per secret.  Uniform iff each observed row is constant
        # (hence holds every secret, equally often).
        observed = values[:, list(subset)] @ p ** np.arange(len(subset), dtype=np.int64)
        counts = np.bincount(observed * p + secrets, minlength=p ** (len(subset) + 1))
        counts = counts.reshape(-1, p)
        counts = counts[counts.any(axis=1)]
        return bool((counts.min(axis=1) == counts.max(axis=1)).all())

    return {
        size: all(uniform(subset) for subset in combinations(range(n), size))
        for size in range(1, m)
    }
