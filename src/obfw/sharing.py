"""The two linear secret-sharing schemes and their operation set.

Shamir (t, n)-threshold sharing and n-of-n additive sharing, each with
share/reveal/add/add-const/cmul, plus the two interactive multiplication
protocols: resharing-based degree reduction for Shamir (and the fan-in
tree product built on it) and the three-party blinded-product protocol for
additive shares, and pseudo-random secret sharing, which turns dealt keys
into fresh Shamir sharings with no message between the parties.  All
dealing turns uniform draws into shares through `share_columns`; the
per-secret `shamir_share` and `additive_share`, whose forced randomness
reproduces golden test vectors, are its reference.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Generator, Iterator, Sequence

from .errors import BadParams
from .field import (
    PrimeField,
    interpolate_at_zero,
    lagrange_zero_coefficients,
    random_polynomial,
)
from .net import PROTO_ADDITIVE_MULT3, PROTO_SHAMIR_MULT, group_zp, recv, run_session, send
from .rng import RandomSource, child_columns


class SharingError(Exception):
    pass


class InsufficientShares(SharingError):
    pass


class ParamMismatch(SharingError):
    pass


class BadPartyCount(SharingError):
    pass


# ---------------------------------------------------------------------------
# Shamir scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShamirParams:
    p: int
    t: int
    n: int

    def __post_init__(self):
        if self.t < 0 or self.n < self.t + 1:
            raise BadParams("need n >= t+1")
        if self.n >= self.p:
            raise BadParams("need n < p")

    def field(self) -> PrimeField:
        return PrimeField(self.p)

    def supports_mult(self) -> bool:
        return self.n >= 2 * self.t + 1


@dataclass(frozen=True)
class ShamirShare:
    index: int
    value: int
    params: ShamirParams

    def _match(self, other: "ShamirShare") -> None:
        if self.params != other.params:
            raise ParamMismatch("shares from different schemes")
        if self.index != other.index:
            raise ParamMismatch("shares belong to different parties")


def shamir_share(secret: int, params: ShamirParams, rng: RandomSource,
                 coeffs: Sequence[int] | None = None) -> list[ShamirShare]:
    """Evaluate a fresh degree-<=t polynomial with constant `secret` at 1..n.

    `coeffs` forces the non-constant coefficients (highest power first), a
    test hook for reproducing golden share vectors.
    """
    field = params.field()
    poly = random_polynomial(field, params.t, secret, rng, forced_coeffs=coeffs)
    return [ShamirShare(i, poly.evaluate(i), params) for i in range(1, params.n + 1)]


def shamir_reveal(shares: Sequence[ShamirShare]) -> int:
    if not shares:
        raise InsufficientShares("no shares given")
    params = shares[0].params
    for s in shares:
        if s.params != params:
            raise ParamMismatch("mixed scheme parameters")
    if len(shares) < params.t + 1:
        raise InsufficientShares(f"need {params.t + 1} shares, got {len(shares)}")
    field = params.field()
    return interpolate_at_zero(field, [(s.index, s.value) for s in shares])


def shamir_add(a: ShamirShare, b: ShamirShare) -> ShamirShare:
    a._match(b)
    return ShamirShare(a.index, (a.value + b.value) % a.params.p, a.params)


def shamir_add_const(a: ShamirShare, c: int) -> ShamirShare:
    # A public constant is the constant polynomial: every party adds it.
    return ShamirShare(a.index, (a.value + c) % a.params.p, a.params)


def shamir_cmul(a: ShamirShare, c: int) -> ShamirShare:
    return ShamirShare(a.index, a.value * c % a.params.p, a.params)


# ---------------------------------------------------------------------------
# Additive scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdditiveParams:
    modulus: int
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise BadParams("need at least 2 parties")
        if self.modulus < 2:
            raise BadParams("modulus too small")


@dataclass(frozen=True)
class AdditiveShare:
    index: int
    value: int
    params: AdditiveParams

    def _match(self, other: "AdditiveShare") -> None:
        if self.params != other.params:
            raise ParamMismatch("shares from different schemes")
        if self.index != other.index:
            raise ParamMismatch("shares belong to different parties")


def additive_share(secret: int, params: AdditiveParams, rng: RandomSource,
                   randoms: Sequence[int] | None = None) -> list[AdditiveShare]:
    """First m-1 shares uniform (or forced), the last closes the sum."""
    N, m = params.modulus, params.m
    if randoms is not None:
        if len(randoms) != m - 1:
            raise BadParams("need exactly m-1 forced randoms")
        head = [r % N for r in randoms]
    else:
        head = [rng.randbelow(N) for _ in range(m - 1)]
    last = (secret - sum(head)) % N
    values = head + [last]
    return [AdditiveShare(i + 1, v, params) for i, v in enumerate(values)]


def share_columns(secrets: Sequence[int], draws: Sequence[Sequence[int]],
                  modulus: int, m: int, shamir: bool) -> list[list[int]]:
    """Deal each secret among m parties: column i holds party i+1's shares.

    `draws` are columns of uniform values below `modulus`, one per secret.
    Shamir: draw column j holds the coefficient of x^(j+1), and each
    polynomial is evaluated at x = 1..m.  Additive: the draw columns are
    shares 1..m-1, and share m closes the sum.
    """
    if not shamir:
        last = secrets
        for col in draws:
            last = [a - c for a, c in zip(last, col)]
        return [*draws, [a % modulus for a in last]]
    if not draws:
        return [[a % modulus for a in secrets] for _ in range(m)]
    *inner, outer = draws
    cols = []
    for x in range(1, m + 1):
        acc, power = secrets, 1
        for col in inner:
            power = power * x % modulus
            acc = [a + power * c for a, c in zip(acc, col)]
        # The last coefficient's pass also reduces.
        power = power * x % modulus
        cols.append([(a + power * c) % modulus for a, c in zip(acc, outer)])
    return cols


def additive_reveal(shares: Sequence[AdditiveShare]) -> int:
    if not shares:
        raise InsufficientShares("no shares given")
    params = shares[0].params
    for s in shares:
        if s.params != params:
            raise ParamMismatch("mixed scheme parameters")
    if len(shares) != params.m or len({s.index for s in shares}) != params.m:
        raise InsufficientShares("all m shares are required")
    return sum(s.value for s in shares) % params.modulus


def additive_add(a: AdditiveShare, b: AdditiveShare) -> AdditiveShare:
    a._match(b)
    return AdditiveShare(a.index, (a.value + b.value) % a.params.modulus, a.params)


def additive_add_const(a: AdditiveShare, c: int) -> AdditiveShare:
    # Party 1 alone absorbs the constant, or the sum would gain m*c.
    if a.index != 1:
        return a
    return AdditiveShare(a.index, (a.value + c) % a.params.modulus, a.params)


def additive_cmul(a: AdditiveShare, c: int) -> AdditiveShare:
    return AdditiveShare(a.index, a.value * c % a.params.modulus, a.params)


def additive_collapse(shares: Sequence[AdditiveShare]) -> int:
    """Delta that P2 absorbs when parties 3..m fold their shares into it."""
    if not shares:
        raise ParamMismatch("collapse needs at least one share")
    params = shares[0].params
    if params.m < 3:
        raise ParamMismatch("collapse is defined for m >= 3")
    return sum(s.value for s in shares) % params.modulus


def additive_expand(value: int, modulus: int, m: int,
                    rng: RandomSource) -> tuple[int, list[int]]:
    """Split one residual share into (own remainder, m-2 redistribution pieces)."""
    if m < 3:
        raise ParamMismatch("expand is defined for m >= 3")
    draws = [[r] for r in rng.randbelow_many(modulus, m - 2)]
    *pieces, (own,) = share_columns([value], draws, modulus, m - 1, shamir=False)
    return own, [piece for (piece,) in pieces]


# ---------------------------------------------------------------------------
# Degree-reduction Shamir multiplication (protocol 1)
# ---------------------------------------------------------------------------

def shamir_mult_party(me: int, params: ShamirParams,
                      a_values: Sequence[int], b_values: Sequence[int],
                      rng: RandomSource, step: int = 1,
                      forced_h: Sequence[Sequence[int]] | None = None
                      ) -> Generator:
    """One resharing round multiplying element-wise vectors of shares.

    Every party reshares its local products through fresh degree-t
    polynomials and recombines received evaluations with the first row of
    the inverse Vandermonde matrix.  Batched: all vector positions travel
    in a single envelope per peer, so k parallel products still cost one
    round.  Returns the party's product share vector.
    """
    if not params.supports_mult():
        raise BadParams("multiplication needs n >= 2t+1")
    n, t = params.n, params.t
    zp = group_zp(params.p)
    k = len(a_values)
    products = [a * b % params.p for a, b in zip(a_values, b_values)]
    if forced_h is not None and any(len(row) != t for row in forced_h):
        raise ValueError("forced coefficient count must equal degree")
    # Product pos's coefficients, lowest power first, are flat[pos*t:(pos+1)*t].
    flat = (rng.randbelow_many(params.p, k * t) if forced_h is None
            else [c for row in forced_h for c in reversed(row)])
    coeffs = [flat[j::t] for j in range(t)]
    evals = share_columns(products, coeffs, params.p, n, shamir=True)

    for j in range(1, n + 1):
        if j == me:
            continue
        yield from send(j, step, [(zp, evals[j - 1])])
    rows = list(evals)          # row j-1 becomes party j's evaluation at me
    for j in range(1, n + 1):
        if j == me:
            continue
        (rows[j - 1],) = yield from recv(j, step, [(zp, k)])

    weights = lagrange_zero_coefficients(params.field(), list(range(1, n + 1)))
    return [sum(map(operator.mul, weights, col)) % params.p
            for col in zip(*rows)]


def run_shamir_mult(a_shares: Sequence[ShamirShare], b_shares: Sequence[ShamirShare],
                    rng: RandomSource,
                    forced_h: dict[int, Sequence[int]] | None = None):
    """Drive one multiplication over the simulator; returns (shares, net)."""
    params = a_shares[0].params
    programs = {}
    for a, b in zip(sorted(a_shares, key=lambda s: s.index),
                    sorted(b_shares, key=lambda s: s.index)):
        if a.index != b.index or a.params != b.params:
            raise ParamMismatch("a/b share vectors misaligned")
        force = [forced_h[a.index]] if forced_h and a.index in forced_h else None
        programs[a.index] = shamir_mult_party(
            a.index, params, [a.value], [b.value],
            rng.child(f"mult/{a.index}"), forced_h=force)
    net = run_session(programs, protocol_id=PROTO_SHAMIR_MULT)
    shares = [ShamirShare(i, net.results[i][0], params) for i in sorted(net.results)]
    return shares, net


@functools.cache
def _tree_rounds(lengths: tuple[int, ...]) -> tuple[tuple, ...]:
    """Each round of tree_products on columns of these lengths: where its
    factors sit in the values, and the next values in `prods + values`."""
    rounds = []
    while max(lengths, default=1) > 1:
        nprods = sum(n // 2 for n in lengths)
        left, right, nxt = [], [], []
        for n, start in zip(lengths, itertools.accumulate(lengths, initial=0)):
            nxt += range(len(left), len(left) + n // 2)
            left += range(start, start + n - 1, 2)
            right += range(start + 1, start + n, 2)
            nxt += [nprods + start + n - 1] * (n & 1)   # an odd last value
        rounds.append((left, right, nxt))
        lengths = tuple((n + 1) // 2 for n in lengths)
    return tuple(rounds)


def tree_products(me: int, params: ShamirParams, columns: list[list[int]],
                  rng: RandomSource, steps: Iterator[int]) -> Generator:
    """Each column's product via a pairwise tree: every column advances one
    level per round (an odd last value is carried up), so k values take
    ceil(log2 k) rounds.  Each round takes its step id from `steps`."""
    cur = [v for col in columns for v in col]
    for left, right, nxt in _tree_rounds(tuple(map(len, columns))):
        prods = yield from shamir_mult_party(
            me, params, list(map(cur.__getitem__, left)),
            list(map(cur.__getitem__, right)), rng, step=next(steps))
        cur = list(map((prods + cur).__getitem__, nxt))
    return cur


def mult_fanin_party(me: int, params: ShamirParams, values: Sequence[int],
                     rng: RandomSource) -> Generator:
    """Product of k shared values via a pairwise tree, ceil(log2 k) rounds."""
    (product,) = yield from tree_products(me, params, [list(values)], rng,
                                          itertools.count(1))
    return product


# ---------------------------------------------------------------------------
# Pseudo-random secret sharing (Cramer, Damgard and Ishai, TCC 2005)
# ---------------------------------------------------------------------------

def prss_sets(params: ShamirParams) -> list[tuple[int, ...]]:
    """The party sets that hold one PRSS key each: every set of n - t
    parties, in a fixed order, so that any t parties miss exactly one key."""
    return list(itertools.combinations(range(1, params.n + 1),
                                       params.n - params.t))


@functools.cache
def _prss_weights(params: ShamirParams,
                  me: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(A, (f_A(me) * me^l for l = 0..t)) for each key set A that holds
    `me`, in `prss_sets` order: f_A is the degree-t polynomial with
    f_A(0) = 1 that vanishes at the t parties outside A."""
    p = params.p
    out = []
    for members in prss_sets(params):
        if me not in members:
            continue
        f = 1
        for j in range(1, params.n + 1):
            if j not in members:
                f = f * (j - me) * pow(j, -1, p) % p
        out.append((members, tuple(f * pow(me, l, p) % p
                                   for l in range(params.t + 1))))
    return tuple(out)


@dataclass(frozen=True)
class PrssPlan:
    """What party `me` needs of its keys for every PRSS label: each key
    followed by "/", the path prefix of its stream, in `prss_sets` order;
    `r_weights`, the column of f_A(me) over those key sets; and
    `z_weights`, the columns of f_A(me) * me^l for l = 1..t, one after
    another."""
    prefixes: tuple[bytes, ...]
    r_weights: tuple[int, ...]
    z_weights: tuple[int, ...]


def prss_plan(me: int, params: ShamirParams,
              keys: dict[tuple[int, ...], bytes]) -> PrssPlan:
    """Party `me`'s plan of `keys` (key set -> 32-byte key)."""
    sets = _prss_weights(params, me)
    r_weights, *z_columns = zip(*(weights for _, weights in sets))
    return PrssPlan(tuple(keys[members] + b"/" for members, _ in sets),
                    r_weights, tuple(itertools.chain(*z_columns)))


def prss_pairs(me: int, params: ShamirParams, keys: dict[tuple[int, ...], bytes],
               label: str, count: int) -> list[tuple[int, int]]:
    """`count` pairs (r, z), party `me`'s shares of a random degree-t
    sharing and of a random degree-2t sharing of 0, from `keys` (key set ->
    32-byte key) and `label`; no party talks to another.

    Each key set A draws t+1 values s_0..s_t per pair from one stream, its
    key's child at `label`.  Then r(x) = sum over A of s_0 f_A(x) and
    z(x) = sum over A of (s_1 x + ... + s_t x^t) f_A(x), and party i needs
    only the keys of the sets that hold it, as f_A(i) = 0 for the others.
    Any t parties miss the key of the set that excludes them all, so r(0)
    is uniform to them.
    """
    return plan_pairs(prss_plan(me, params, keys), params, label, count)


def plan_pairs(plan: PrssPlan, params: ShamirParams, label: str,
               count: int) -> list[tuple[int, int]]:
    """`prss_pairs` of the keys that `plan` was made of: the streams of all
    keys are drawn in one pass, and each pair weighs its draw columns in
    two sums."""
    p, width = params.p, params.t + 1
    tag = label.encode()
    cols = child_columns([prefix + tag for prefix in plan.prefixes], p,
                         count * width)
    mul, chain = operator.mul, itertools.chain.from_iterable
    r_weights, z_weights = plan.r_weights, plan.z_weights
    return [(sum(map(mul, r_weights, cols[j])) % p,
             sum(map(mul, z_weights, chain(cols[j + 1:j + width]))) % p)
            for j in range(0, count * width, width)]


# ---------------------------------------------------------------------------
# Three-party additive multiplication (protocol 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mult3Randoms:
    """The r/s blinding pairs for the two peers plus the cycle value t.

    Party j sends (r_to[k], s_to[k]) to party k and t_cycle to the next
    party in the 1->2->3->1 cycle.
    """
    r_to: dict[int, int]
    s_to: dict[int, int]
    t_cycle: int


def _mult3_randoms(me: int, modulus: int, rng: RandomSource) -> Mult3Randoms:
    others = [k for k in (1, 2, 3) if k != me]
    v = rng.randbelow_many(modulus, 5)      # r to each peer, s to each, t
    return Mult3Randoms(dict(zip(others, v[:2])), dict(zip(others, v[2:4])), v[4])


def additive_mult3_party(me: int, params: AdditiveParams, u: int, v: int,
                         rng: RandomSource,
                         forced: Mult3Randoms | None = None) -> Generator:
    """Blinded-product protocol for exactly three parties.

    Round 1 exchanges the blinding values, round 2 the blinded shares;
    the cross terms then cancel so the three outputs sum to u*v.
    """
    if params.m != 3:
        raise BadPartyCount("additive multiplication is a 3-party protocol")
    N = params.modulus
    zp = group_zp(N)
    nxt = me % 3 + 1
    prv = (me - 2) % 3 + 1
    my = forced if forced is not None else _mult3_randoms(me, N, rng)

    # Round 1: r/s to each peer, t to the next party in the cycle.
    yield from send(nxt, 1, [(zp, [my.r_to[nxt], my.s_to[nxt], my.t_cycle])])
    yield from send(prv, 1, [(zp, [my.r_to[prv], my.s_to[prv]])])
    (from_nxt,) = yield from recv(nxt, 1, [(zp, 2)])
    (from_prv,) = yield from recv(prv, 1, [(zp, 3)])
    r_nxt, s_nxt = from_nxt
    r_prv, s_prv, t_prv = from_prv

    # Round 2: blinded share pairs.  The value sent to `dest` is blinded by
    # the randomness received from the third party.
    a_to_nxt = (u + r_prv) % N
    b_to_nxt = (v + s_prv) % N
    a_to_prv = (u + r_nxt) % N
    b_to_prv = (v + s_nxt) % N
    yield from send(nxt, 2, [(zp, [a_to_nxt, b_to_nxt])])
    yield from send(prv, 2, [(zp, [a_to_prv, b_to_prv])])
    (got_nxt,) = yield from recv(nxt, 2, [(zp, 2)])
    (got_prv,) = yield from recv(prv, 2, [(zp, 2)])
    a_nxt, b_nxt = got_nxt
    a_prv, b_prv = got_prv

    c = (u * (b_nxt + b_prv) + v * (a_nxt + a_prv)
         - a_to_nxt * b_nxt - b_to_nxt * a_nxt
         + my.r_to[nxt] * my.s_to[prv] + my.s_to[nxt] * my.r_to[prv]
         - my.t_cycle + t_prv) % N
    return (c + u * v) % N


def run_additive_mult3(u_shares: Sequence[AdditiveShare],
                       v_shares: Sequence[AdditiveShare],
                       rng: RandomSource,
                       forced: dict[int, Mult3Randoms] | None = None):
    params = u_shares[0].params
    if params.m != 3 or len(u_shares) != 3 or len(v_shares) != 3:
        raise BadPartyCount("additive multiplication is a 3-party protocol")
    programs = {}
    for u, v in zip(sorted(u_shares, key=lambda s: s.index),
                    sorted(v_shares, key=lambda s: s.index)):
        programs[u.index] = additive_mult3_party(
            u.index, params, u.value, v.value, rng.child(f"mult3/{u.index}"),
            forced=forced.get(u.index) if forced else None)
    net = run_session(programs, protocol_id=PROTO_ADDITIVE_MULT3)
    shares = [AdditiveShare(i, net.results[i], params) for i in sorted(net.results)]
    return shares, net
