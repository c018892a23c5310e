"""The two linear secret-sharing schemes and their operation set.

Shamir (t, n)-threshold sharing and n-of-n additive sharing, each with
share/reveal/add/add-const/cmul, plus the two interactive multiplication
protocols: resharing-based degree reduction for Shamir (and the fan-in
tree product built on it) and the three-party blinded-product protocol for
additive shares.  Share constructors accept forced randomness so golden
test vectors reproduce exactly.
"""
from __future__ import annotations

import itertools
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
from .rng import RandomSource


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

    def field(self) -> PrimeField:
        return PrimeField(self.modulus)


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
    pieces = [rng.randbelow(modulus) for _ in range(m - 2)]
    own = (value - sum(pieces)) % modulus
    return own, pieces


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
    field = params.field()
    n = params.n
    zp = group_zp(params.p)
    k = len(a_values)
    polys = []
    for pos in range(k):
        q = a_values[pos] * b_values[pos] % params.p
        forced = forced_h[pos] if forced_h is not None else None
        polys.append(random_polynomial(field, params.t, q, rng, forced_coeffs=forced))

    for j in range(1, n + 1):
        if j == me:
            continue
        yield from send(j, step, [(zp, [poly.evaluate(j) for poly in polys])])
    rows: dict[int, list[int]] = {me: [poly.evaluate(me) for poly in polys]}
    for j in range(1, n + 1):
        if j == me:
            continue
        (vals,) = yield from recv(j, step, [(zp, k)])
        rows[j] = vals

    weights = lagrange_zero_coefficients(field, list(range(1, n + 1)))
    out = []
    for pos in range(k):
        acc = 0
        for j in range(1, n + 1):
            acc = (acc + weights[j - 1] * rows[j][pos]) % params.p
        out.append(acc)
    return out


def run_shamir_mult(a_shares: Sequence[ShamirShare], b_shares: Sequence[ShamirShare],
                    rng: RandomSource, session_id: int = 0,
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
    net = run_session(programs, session_id=session_id, protocol_id=PROTO_SHAMIR_MULT)
    shares = [ShamirShare(i, net.results[i][0], params) for i in sorted(net.results)]
    return shares, net


def tree_products(me: int, params: ShamirParams, columns: list[list[int]],
                  rng: RandomSource, steps: Iterator[int]) -> Generator:
    """Each column's product via a pairwise tree: every column advances one
    level per round (an odd last value is carried up), so k values take
    ceil(log2 k) rounds.  Each round takes its step id from `steps`."""
    layers = [list(col) for col in columns]
    while any(len(l) > 1 for l in layers):
        ax, bx = [], []
        for layer in layers:
            ax += layer[0:len(layer) - 1:2]
            bx += layer[1::2]
        prods = yield from shamir_mult_party(me, params, ax, bx, rng,
                                             step=next(steps))
        pos = 0
        for ci, layer in enumerate(layers):
            half = len(layer) // 2
            layers[ci] = prods[pos:pos + half] + layer[2 * half:]
            pos += half
    return [l[0] for l in layers]


def mult_fanin_party(me: int, params: ShamirParams, values: Sequence[int],
                     rng: RandomSource) -> Generator:
    """Product of k shared values via a pairwise tree, ceil(log2 k) rounds."""
    (product,) = yield from tree_products(me, params, [list(values)], rng,
                                          itertools.count(1))
    return product


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
    return Mult3Randoms(
        r_to={k: rng.randbelow(modulus) for k in others},
        s_to={k: rng.randbelow(modulus) for k in others},
        t_cycle=rng.randbelow(modulus),
    )


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
                       rng: RandomSource, session_id: int = 0,
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
    net = run_session(programs, session_id=session_id,
                      protocol_id=PROTO_ADDITIVE_MULT3)
    shares = [AdditiveShare(i, net.results[i], params) for i in sorted(net.results)]
    return shares, net
