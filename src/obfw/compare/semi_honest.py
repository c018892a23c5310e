"""Asymmetric three-party comparison and its two variants.

Protocol roles: P1 holds a, P2 holds b, P3 is a helper that re-shares
masked values between groups and locates the zero slot of the blinded
difference vector.  The low-round variant replaces the last two group
swaps with a single wider resharing; the shared-inputs variant collapses
an m-party bitwise sharing onto P1/P2, runs the same core, and expands
the result back out.

Step ids mirror the algorithm's step numbers 1..11.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from typing import Generator

from ..field import PrimeField, lagrange_zero_coefficients
from ..net import (
    PROTO_SC_LOW_ROUNDS,
    PROTO_SC_SEMI_HONEST,
    PROTO_SC_SHARED_INPUTS,
    Transcript,
    group_shift,
    group_z2,
    group_zn2,
    group_zn_compare,
    recv,
    run_session,
    send,
)
from ..rng import RandomSource
from .params import ComparisonParams, bits_lsb, circular_shift, circular_unshift


class ProtocolInvariantError(Exception):
    pass


@dataclass
class TapRecorder:
    """Test-build debug taps: parties deposit share vectors, tests combine."""
    contributions: dict = dc_field(default_factory=lambda: defaultdict(dict))
    moduli: dict = dc_field(default_factory=dict)
    plain: dict = dc_field(default_factory=dict)

    def put(self, name: str, party: int, values, modulus: int) -> None:
        self.contributions[name][party] = list(values) if not isinstance(values, int) else values
        self.moduli[name] = modulus

    def put_plain(self, name: str, value) -> None:
        self.plain[name] = value

    def vector(self, name: str) -> list[int]:
        parts = self.contributions[name]
        mod = self.moduli[name]
        vecs = list(parts.values())
        return [sum(col) % mod for col in zip(*vecs)]

    def scalar(self, name: str) -> int:
        parts = self.contributions[name]
        return sum(parts.values()) % self.moduli[name]

    def shamir_vector(self, name: str) -> list[int]:
        """Combine Shamir contributions (keyed by party index) per position."""
        parts = self.contributions[name]
        field = PrimeField(self.moduli[name])
        indices = sorted(parts)
        weights = lagrange_zero_coefficients(field, indices)
        vecs = [parts[i] for i in indices]
        return [sum(w * col[pos] for w, col in zip(weights, vecs)) % field.p
                for pos in range(len(vecs[0]))]

    def shamir_scalar(self, name: str) -> int:
        parts = self.contributions[name]
        field = PrimeField(self.moduli[name])
        indices = sorted(parts)
        weights = lagrange_zero_coefficients(field, indices)
        return sum(w * parts[i] for w, i in zip(weights, indices)) % field.p


def _share_bit(v: int, rng: RandomSource) -> tuple[int, int]:
    r = rng.randbelow(2)
    return r, (v - r) % 2


def _share_mod(v: int, modulus: int, rng: RandomSource) -> tuple[int, int]:
    r = rng.randbelow(modulus)
    return r, (v - r) % modulus


def _groups(params: ComparisonParams):
    return (group_z2(), group_zn2(params.N2, params.lbits),
            group_zn_compare(params.N, params.lbits), group_shift(params.lbits))


# ---------------------------------------------------------------------------
# Core P1/P2 arithmetic shared by all variants
# ---------------------------------------------------------------------------

def _gamma_pipeline(e_shares: list[int], n2: int, is_p1: bool, tau: list[int],
                    pi: int, taps: TapRecorder | None, me: int):
    """Steps 5(c)-(i): double prefix sum, decrement, blind, shift."""
    width = len(e_shares)
    gp = [0] * width
    gp[width - 1] = e_shares[width - 1]
    for i in range(width - 2, -1, -1):
        gp[i] = (gp[i + 1] + e_shares[i]) % n2
    g = [0] * width
    g[width - 1] = gp[width - 1]
    for i in range(width - 2, -1, -1):
        g[i] = (gp[i + 1] + gp[i]) % n2
    if taps is not None:
        taps.put("gamma_prime", me, gp, n2)
        taps.put("gamma", me, g, n2)
    if is_p1:
        g = [(x - 1) % n2 for x in g]
    u = [x * tau[i] % n2 for i, x in enumerate(g)]
    if taps is not None:
        taps.put("u", me, u, n2)
    v = circular_shift(u, pi)
    if taps is not None:
        taps.put("v", me, v, n2)
    return v


def _finalize_f(sa_share: int, hp_shares: list[int], modulus: int,
                is_p1: bool, taps: TapRecorder | None, me: int) -> int:
    """Steps 9(c)-(f): popcount difference mapped into {0, 1}."""
    spa = sum(hp_shares) % modulus
    f = (sa_share - spa) % modulus
    if is_p1:
        f = (f + 1) % modulus
    f = f * pow(2, -1, modulus) % modulus
    if taps is not None:
        taps.put("s_a", me, sa_share, modulus)
        taps.put("s_a_prime", me, spa, modulus)
    return f


# ---------------------------------------------------------------------------
# Algorithm 4 / 5 party programs
# ---------------------------------------------------------------------------

def p1_program(params: ComparisonParams, a: int, rng: RandomSource,
               variant: str = "alg4", force_pi: int | None = None,
               taps: TapRecorder | None = None) -> Generator:
    z2, zn2, zn, zpi = _groups(params)
    W = params.lbits + 1
    N2, N = params.N2, params.N
    params.check_input(a)

    alpha = 2 * a + 1
    abits = bits_lsb(alpha, W)
    s_a = sum(abits)
    r = [rng.randbelow(2) for _ in range(W)]
    rp = [rng.randbelow(2) for _ in range(W)]
    rpp = rng.randbelow(2)
    tau = [1 + rng.randbelow(N2 - 1) for _ in range(W)]
    pi = force_pi if force_pi is not None else rng.randbelow(W)
    if taps is not None:
        taps.put_plain("pi", pi)

    a_mine, a_theirs = zip(*[_share_bit(bit, rng) for bit in abits])
    sa_group = zn2 if variant == "alg4" else zn
    sa_mod = N2 if variant == "alg4" else N
    sa_mine, sa_theirs = _share_mod(s_a, sa_mod, rng)

    yield from send(2, 1, [(z2, list(a_theirs)), (sa_group, [sa_theirs]),
                           (z2, r), (z2, rp), (z2, [rpp]),
                           (zn2, tau), (zpi, [pi])])
    (b_mine,) = yield from recv(2, 2, [(z2, W)])

    e = [(x + y) % 2 for x, y in zip(a_mine, b_mine)]
    e = [(1 - x) % 2 if r[i] else x for i, x in enumerate(e)]
    yield from send(3, 3, [(z2, e)])

    (e_n2,) = yield from recv(3, 4, [(zn2, W)])
    e_n2 = [(1 - x) % N2 if r[i] else x for i, x in enumerate(e_n2)]
    if taps is not None:
        taps.put("e", 1, e_n2, N2)
    v = _gamma_pipeline(e_n2, N2, True, tau, pi, taps, 1)
    yield from send(3, 5, [(zn2, v)])

    (h_sh,) = yield from recv(3, 6, [(z2, W)])
    if taps is not None:
        taps.put("h_shifted", 1, h_sh, 2)
    h = circular_unshift(h_sh, pi)
    if taps is not None:
        taps.put("h", 1, h, 2)
    hp = [(hb - ab) % 2 for hb, ab in zip(h, a_mine)]
    hp = [(1 - x) % 2 if rp[i] else x for i, x in enumerate(hp)]
    yield from send(3, 7, [(z2, hp)])

    hp_group = zn2 if variant == "alg4" else zn
    hp_mod = N2 if variant == "alg4" else N
    (hp_w,) = yield from recv(3, 8, [(hp_group, W)])
    hp_w = [(1 - x) % hp_mod if rp[i] else x for i, x in enumerate(hp_w)]
    if taps is not None:
        taps.put("h_prime", 1, hp_w, hp_mod)
    f = _finalize_f(sa_mine, hp_w, hp_mod, True, taps, 1)

    if variant == "alg5":
        return f  # already a Z_N share; protocol ends after step 9

    f = (1 - f) % N2 if rpp else f
    yield from send(3, 9, [(zn2, [f])])
    ((f_n,),) = yield from recv(3, 10, [(zn, 1)])
    f_n = (1 - f_n) % N if rpp else f_n
    return f_n


def p2_program(params: ComparisonParams, b: int, rng: RandomSource,
               variant: str = "alg4", taps: TapRecorder | None = None) -> Generator:
    z2, zn2, zn, zpi = _groups(params)
    W = params.lbits + 1
    N2, N = params.N2, params.N
    params.check_input(b)

    sa_group = zn2 if variant == "alg4" else zn
    (a_mine, (sa_mine,), r, rp, (rpp,), tau, (pi,)) = yield from recv(
        1, 1, [(z2, W), (sa_group, 1), (z2, W), (z2, W), (z2, 1),
               (zn2, W), (zpi, 1)])

    beta = 2 * b
    bbits = bits_lsb(beta, W)
    b_mine, b_theirs = zip(*[_share_bit(bit, rng) for bit in bbits])
    yield from send(1, 2, [(z2, list(b_theirs))])

    e = [(x + y) % 2 for x, y in zip(a_mine, b_mine)]
    yield from send(3, 3, [(z2, e)])

    (e_n2,) = yield from recv(3, 4, [(zn2, W)])
    e_n2 = [(-x) % N2 if r[i] else x for i, x in enumerate(e_n2)]
    if taps is not None:
        taps.put("e", 2, e_n2, N2)
    v = _gamma_pipeline(e_n2, N2, False, tau, pi, taps, 2)
    yield from send(3, 5, [(zn2, v)])

    (h_sh,) = yield from recv(3, 6, [(z2, W)])
    if taps is not None:
        taps.put("h_shifted", 2, h_sh, 2)
    h = circular_unshift(h_sh, pi)
    if taps is not None:
        taps.put("h", 2, h, 2)
    hp = [(hb - ab) % 2 for hb, ab in zip(h, a_mine)]
    yield from send(3, 7, [(z2, hp)])

    hp_mod = N2 if variant == "alg4" else N
    hp_group = zn2 if variant == "alg4" else zn
    (hp_w,) = yield from recv(3, 8, [(hp_group, W)])
    hp_w = [(-x) % hp_mod if rp[i] else x for i, x in enumerate(hp_w)]
    if taps is not None:
        taps.put("h_prime", 2, hp_w, hp_mod)
    f = _finalize_f(sa_mine, hp_w, hp_mod, False, taps, 2)

    if variant == "alg5":
        return f

    f = (-f) % N2 if rpp else f
    yield from send(3, 9, [(zn2, [f])])
    ((f_n,),) = yield from recv(3, 10, [(zn, 1)])
    f_n = (-f_n) % N if rpp else f_n
    return f_n


def p3_program(params: ComparisonParams, rng: RandomSource,
               variant: str = "alg4",
               taps: TapRecorder | None = None) -> Generator:
    z2, zn2, zn, _ = _groups(params)
    W = params.lbits + 1
    N2, N = params.N2, params.N

    (e1,) = yield from recv(1, 3, [(z2, W)])
    (e2,) = yield from recv(2, 3, [(z2, W)])
    e_masked = [(x + y) % 2 for x, y in zip(e1, e2)]
    if taps is not None:
        taps.put_plain("p3_e_masked", list(e_masked))
    resh = [_share_mod(v, N2, rng) for v in e_masked]
    yield from send(1, 4, [(zn2, [p[0] for p in resh])])
    yield from send(2, 4, [(zn2, [p[1] for p in resh])])

    (v1,) = yield from recv(1, 5, [(zn2, W)])
    (v2,) = yield from recv(2, 5, [(zn2, W)])
    v = [(x + y) % N2 for x, y in zip(v1, v2)]
    zeros = [i for i, x in enumerate(v) if x == 0]
    if len(zeros) != 1:
        raise ProtocolInvariantError(f"blinded vector has {len(zeros)} zeros")
    if taps is not None:
        taps.put_plain("p3_v", list(v))
        taps.put_plain("p3_zero_index", zeros[0])
    h_bits = [1 if i == zeros[0] else 0 for i in range(W)]
    h_pairs = [_share_bit(bit, rng) for bit in h_bits]
    yield from send(1, 6, [(z2, [p[0] for p in h_pairs])])
    yield from send(2, 6, [(z2, [p[1] for p in h_pairs])])

    (hp1,) = yield from recv(1, 7, [(z2, W)])
    (hp2,) = yield from recv(2, 7, [(z2, W)])
    hp_masked = [(x + y) % 2 for x, y in zip(hp1, hp2)]
    if taps is not None:
        taps.put_plain("p3_hp_masked", list(hp_masked))
    wide_mod = N2 if variant == "alg4" else N
    wide_group = zn2 if variant == "alg4" else zn
    resh2 = [_share_mod(vv, wide_mod, rng) for vv in hp_masked]
    yield from send(1, 8, [(wide_group, [p[0] for p in resh2])])
    yield from send(2, 8, [(wide_group, [p[1] for p in resh2])])

    if variant == "alg5":
        return None

    ((f1,),) = yield from recv(1, 9, [(zn2, 1)])
    ((f2,),) = yield from recv(2, 9, [(zn2, 1)])
    f_masked = (f1 + f2) % N2
    if f_masked not in (0, 1):
        raise ProtocolInvariantError("masked comparison bit outside {0,1}")
    if taps is not None:
        taps.put_plain("p3_f_masked", f_masked)
    fa, fb = _share_mod(f_masked, N, rng)
    yield from send(1, 10, [(zn, [fa])])
    yield from send(2, 10, [(zn, [fb])])
    return None


# ---------------------------------------------------------------------------
# Algorithm 6: shared, bit-decomposed inputs among m parties
# ---------------------------------------------------------------------------

def share_bits_among(value: int, lbits: int, m: int, rng: RandomSource) -> list[list[int]]:
    """m-party additive Z2 sharing of each input bit; index 0 = party 1."""
    vectors = [[0] * lbits for _ in range(m)]
    for i, bit in enumerate(bits_lsb(value, lbits)):
        acc = 0
        for party in range(m - 1):
            s = rng.randbelow(2)
            vectors[party][i] = s
            acc ^= s
        vectors[m - 1][i] = bit ^ acc
    return vectors


def p1_shared_program(params: ComparisonParams, m: int,
                      a_bits: list[int], b_bits: list[int], rng: RandomSource,
                      force_pi: int | None = None,
                      taps: TapRecorder | None = None) -> Generator:
    z2, zn2, zn, zpi = _groups(params)
    W = params.lbits + 1
    N2, N = params.N2, params.N

    a_vec = [0] + list(a_bits)   # alpha low bit comes from P2's share
    b_vec = [0] + list(b_bits)
    q = [rng.randbelow(2) for _ in range(W)]
    r = [rng.randbelow(2) for _ in range(W)]
    rp = [rng.randbelow(2) for _ in range(W)]
    rpp = rng.randbelow(2)
    tau = [1 + rng.randbelow(N2 - 1) for _ in range(W)]
    pi = force_pi if force_pi is not None else rng.randbelow(W)
    rho1 = rng.randbelow(N)
    if taps is not None:
        taps.put_plain("pi", pi)

    a_masked = [(1 - x) % 2 if q[i] else x for i, x in enumerate(a_vec)]
    yield from send(2, 1, [(z2, q), (z2, r), (z2, rp), (z2, [rpp]),
                           (zn2, tau), (zpi, [pi]), (zn, [rho1])])
    yield from send(3, 1, [(z2, a_masked)])

    e = [(x + y) % 2 for x, y in zip(a_vec, b_vec)]
    e = [(1 - x) % 2 if r[i] else x for i, x in enumerate(e)]
    yield from send(3, 3, [(z2, e)])
    ((rho2,),) = yield from recv(2, 2, [(zn, 1)])

    (e_n2, a_n2) = yield from recv(3, 4, [(zn2, W), (zn2, W)])
    e_n2 = [(1 - x) % N2 if r[i] else x for i, x in enumerate(e_n2)]
    a_n2 = [(1 - x) % N2 if q[i] else x for i, x in enumerate(a_n2)]
    if taps is not None:
        taps.put("e", 1, e_n2, N2)
        taps.put("a_n2", 1, a_n2, N2)
    sa_mine = sum(a_n2) % N2
    v = _gamma_pipeline(e_n2, N2, True, tau, pi, taps, 1)
    yield from send(3, 5, [(zn2, v)])

    (h_sh,) = yield from recv(3, 6, [(z2, W)])
    h = circular_unshift(h_sh, pi)
    hp = [(hb - ab) % 2 for hb, ab in zip(h, a_vec)]
    hp = [(1 - x) % 2 if rp[i] else x for i, x in enumerate(hp)]
    yield from send(3, 7, [(z2, hp)])

    (hp_w,) = yield from recv(3, 8, [(zn2, W)])
    hp_w = [(1 - x) % N2 if rp[i] else x for i, x in enumerate(hp_w)]
    if taps is not None:
        taps.put("h_prime", 1, hp_w, N2)
    f = _finalize_f(sa_mine, hp_w, N2, True, taps, 1)
    f = (1 - f) % N2 if rpp else f
    yield from send(3, 9, [(zn2, [f])])
    ((f_n,),) = yield from recv(3, 10, [(zn, 1)])
    f_n = (1 - f_n) % N if rpp else f_n

    # Residual re-randomization, then redistribution to parties 3..m.
    f_n = (f_n + rho2 - rho1) % N
    pieces = [rng.randbelow(N) for _ in range(m - 2)]
    own = (f_n - sum(pieces)) % N
    for k in range(3, m + 1):
        yield from send(k, 11, [(zn, [pieces[k - 3]])])
    return own


def p2_shared_program(params: ComparisonParams, m: int,
                      a_bits: list[int], b_bits: list[int], rng: RandomSource,
                      taps: TapRecorder | None = None) -> Generator:
    z2, zn2, zn, zpi = _groups(params)
    W = params.lbits + 1
    N2, N = params.N2, params.N
    L = params.lbits

    (q, r, rp, (rpp,), tau, (pi,), (rho1,)) = yield from recv(
        1, 1, [(z2, W), (z2, W), (z2, W), (z2, 1), (zn2, W), (zpi, 1), (zn, 1)])
    a_coll = list(a_bits)
    b_coll = list(b_bits)
    for k in range(3, m + 1):
        (ak, bk) = yield from recv(k, 1, [(z2, L), (z2, L)])
        a_coll = [(x + y) % 2 for x, y in zip(a_coll, ak)]
        b_coll = [(x + y) % 2 for x, y in zip(b_coll, bk)]
    a_vec = [1] + a_coll
    b_vec = [0] + b_coll

    rho2 = rng.randbelow(N)
    yield from send(1, 2, [(zn, [rho2])])
    yield from send(3, 2, [(z2, a_vec)])

    e = [(x + y) % 2 for x, y in zip(a_vec, b_vec)]
    yield from send(3, 3, [(z2, e)])

    (e_n2, a_n2) = yield from recv(3, 4, [(zn2, W), (zn2, W)])
    e_n2 = [(-x) % N2 if r[i] else x for i, x in enumerate(e_n2)]
    a_n2 = [(-x) % N2 if q[i] else x for i, x in enumerate(a_n2)]
    if taps is not None:
        taps.put("e", 2, e_n2, N2)
        taps.put("a_n2", 2, a_n2, N2)
    sa_mine = sum(a_n2) % N2
    v = _gamma_pipeline(e_n2, N2, False, tau, pi, taps, 2)
    yield from send(3, 5, [(zn2, v)])

    (h_sh,) = yield from recv(3, 6, [(z2, W)])
    h = circular_unshift(h_sh, pi)
    hp = [(hb - ab) % 2 for hb, ab in zip(h, a_vec)]
    yield from send(3, 7, [(z2, hp)])

    (hp_w,) = yield from recv(3, 8, [(zn2, W)])
    hp_w = [(-x) % N2 if rp[i] else x for i, x in enumerate(hp_w)]
    if taps is not None:
        taps.put("h_prime", 2, hp_w, N2)
    f = _finalize_f(sa_mine, hp_w, N2, False, taps, 2)
    f = (-f) % N2 if rpp else f
    yield from send(3, 9, [(zn2, [f])])
    ((f_n,),) = yield from recv(3, 10, [(zn, 1)])
    f_n = (-f_n) % N if rpp else f_n

    f_n = (f_n + rho1 - rho2) % N
    pieces = [rng.randbelow(N) for _ in range(m - 2)]
    own = (f_n - sum(pieces)) % N
    for k in range(3, m + 1):
        yield from send(k, 11, [(zn, [pieces[k - 3]])])
    return own


def p3_shared_program(params: ComparisonParams, m: int,
                      a_bits: list[int], b_bits: list[int],
                      rng: RandomSource) -> Generator:
    """Helper role plus its own shareholder duties (collapse and expand)."""
    z2, zn2, zn, _ = _groups(params)
    W = params.lbits + 1
    N2, N = params.N2, params.N
    L = params.lbits

    yield from send(2, 1, [(z2, list(a_bits)), (z2, list(b_bits))])

    (a1_masked,) = yield from recv(1, 1, [(z2, W)])
    (a2,) = yield from recv(2, 2, [(z2, W)])
    a_masked = [(x + y) % 2 for x, y in zip(a1_masked, a2)]

    (e1,) = yield from recv(1, 3, [(z2, W)])
    (e2,) = yield from recv(2, 3, [(z2, W)])
    e_masked = [(x + y) % 2 for x, y in zip(e1, e2)]

    resh_e = [_share_mod(v, N2, rng) for v in e_masked]
    resh_a = [_share_mod(v, N2, rng) for v in a_masked]
    yield from send(1, 4, [(zn2, [p[0] for p in resh_e]), (zn2, [p[0] for p in resh_a])])
    yield from send(2, 4, [(zn2, [p[1] for p in resh_e]), (zn2, [p[1] for p in resh_a])])

    (v1,) = yield from recv(1, 5, [(zn2, W)])
    (v2,) = yield from recv(2, 5, [(zn2, W)])
    v = [(x + y) % N2 for x, y in zip(v1, v2)]
    zeros = [i for i, x in enumerate(v) if x == 0]
    if len(zeros) != 1:
        raise ProtocolInvariantError(f"blinded vector has {len(zeros)} zeros")
    h_pairs = [_share_bit(1 if i == zeros[0] else 0, rng) for i in range(W)]
    yield from send(1, 6, [(z2, [p[0] for p in h_pairs])])
    yield from send(2, 6, [(z2, [p[1] for p in h_pairs])])

    (hp1,) = yield from recv(1, 7, [(z2, W)])
    (hp2,) = yield from recv(2, 7, [(z2, W)])
    hp_masked = [(x + y) % 2 for x, y in zip(hp1, hp2)]
    resh2 = [_share_mod(v_, N2, rng) for v_ in hp_masked]
    yield from send(1, 8, [(zn2, [p[0] for p in resh2])])
    yield from send(2, 8, [(zn2, [p[1] for p in resh2])])

    ((f1,),) = yield from recv(1, 9, [(zn2, 1)])
    ((f2,),) = yield from recv(2, 9, [(zn2, 1)])
    f_masked = (f1 + f2) % N2
    fa, fb = _share_mod(f_masked, N, rng)
    yield from send(1, 10, [(zn, [fa])])
    yield from send(2, 10, [(zn, [fb])])

    ((p1_piece,),) = yield from recv(1, 11, [(zn, 1)])
    ((p2_piece,),) = yield from recv(2, 11, [(zn, 1)])
    return (p1_piece + p2_piece) % N


def pk_shared_program(params: ComparisonParams, a_bits: list[int],
                      b_bits: list[int]) -> Generator:
    """Parties 4..m: fold input shares into P2, receive a result share."""
    z2, _, zn, _ = _groups(params)
    N = params.N
    yield from send(2, 1, [(z2, list(a_bits)), (z2, list(b_bits))])
    ((p1_piece,),) = yield from recv(1, 11, [(zn, 1)])
    ((p2_piece,),) = yield from recv(2, 11, [(zn, 1)])
    return (p1_piece + p2_piece) % N


# ---------------------------------------------------------------------------
# Session runners
# ---------------------------------------------------------------------------

@dataclass
class CompareOutcome:
    f: int
    shares: dict[int, int]
    transcript: Transcript
    taps: TapRecorder | None = None

    @property
    def a_ge_b(self) -> bool:
        return self.f == 1


def build_programs(a: int, b: int, params: ComparisonParams, seed,
                   variant: str = "alg4", force_pi: int | None = None,
                   taps: TapRecorder | None = None) -> dict[int, Generator]:
    rng = RandomSource(seed)
    return {
        1: p1_program(params, a, rng.child("p1"), variant, force_pi, taps),
        2: p2_program(params, b, rng.child("p2"), variant, taps),
        3: p3_program(params, rng.child("p3"), variant, taps),
    }


def run_semi_honest(a: int, b: int, lbits: int, seed=0, variant: str = "alg4",
                    force_pi: int | None = None, with_taps: bool = False,
                    session_id: int = 0) -> CompareOutcome:
    params = ComparisonParams.for_bitwidth(lbits)
    taps = TapRecorder() if with_taps else None
    programs = build_programs(a, b, params, seed, variant, force_pi, taps)
    proto = PROTO_SC_SEMI_HONEST if variant == "alg4" else PROTO_SC_LOW_ROUNDS
    net = run_session(programs, session_id=session_id, protocol_id=proto)
    shares = {1: net.results[1], 2: net.results[2]}
    f = (shares[1] + shares[2]) % params.N
    if taps is not None:
        taps.put_plain("f", f)
    return CompareOutcome(f, shares, net.transcript, taps)


def build_shared_programs(a: int, b: int, params: ComparisonParams, m: int,
                          seed, force_pi: int | None = None,
                          taps: TapRecorder | None = None) -> dict[int, Generator]:
    rng = RandomSource(seed)
    a_vecs = share_bits_among(a, params.lbits, m, rng.child("in/a"))
    b_vecs = share_bits_among(b, params.lbits, m, rng.child("in/b"))
    progs: dict[int, Generator] = {
        1: p1_shared_program(params, m, a_vecs[0], b_vecs[0],
                             rng.child("p1"), force_pi, taps),
        2: p2_shared_program(params, m, a_vecs[1], b_vecs[1],
                             rng.child("p2"), taps),
        3: p3_shared_program(params, m, a_vecs[2], b_vecs[2], rng.child("p3")),
    }
    for k in range(4, m + 1):
        progs[k] = pk_shared_program(params, a_vecs[k - 1], b_vecs[k - 1])
    return progs


def run_shared_inputs(a: int, b: int, lbits: int, m: int = 3, seed=0,
                      force_pi: int | None = None, with_taps: bool = False,
                      session_id: int = 0) -> CompareOutcome:
    if m < 3:
        raise ValueError("shared-input comparison needs m >= 3")
    params = ComparisonParams.for_bitwidth(lbits)
    taps = TapRecorder() if with_taps else None
    programs = build_shared_programs(a, b, params, m, seed, force_pi, taps)
    net = run_session(programs, session_id=session_id,
                      protocol_id=PROTO_SC_SHARED_INPUTS)
    shares = dict(net.results)
    f = sum(shares.values()) % params.N
    if taps is not None:
        taps.put_plain("f", f)
    return CompareOutcome(f, shares, net.transcript, taps)
