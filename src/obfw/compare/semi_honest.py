"""Asymmetric three-party comparison and its two variants.

Protocol roles: P1 holds a, P2 holds b, P3 is a helper that re-shares
masked values between groups and locates the zero slot of the blinded
difference vector.  The low-round variant replaces the last two group
swaps with a single wider resharing; the shared-inputs variant collapses
an m-party bitwise sharing onto P1/P2, runs the same core, and expands
the result back out.  Steps 3-10 run in one core per role, `_side_core`
for P1 and P2 and `_helper_core` for P3; each role program adds only its
own steps 1-2 (deal or collapse) and step 11 (expand).

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
from ..sharing import additive_expand, share_columns
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


def _share_mod(values: list[int], modulus: int, rng: RandomSource) -> list[list[int]]:
    """Two-party additive shares of each value: P1's column, P2's column."""
    draws = [rng.randbelow_many(modulus, len(values))]
    return share_columns(values, draws, modulus, 2, shamir=False)


def _flip(vec, mask: list[int], c: int, modulus: int) -> list[int]:
    """Map each masked position x to (c - x) mod modulus."""
    return [(c - x) % modulus if bit else x for x, bit in zip(vec, mask)]


def _groups(params: ComparisonParams):
    return (group_z2(), group_zn2(params.N2, params.lbits),
            group_zn_compare(params.N, params.lbits), group_shift(params.lbits))


def _wide(params: ComparisonParams, variant: str):
    """Group and modulus of the s_a share and of h' (steps 1 and 8)."""
    if variant == "alg4":
        return group_zn2(params.N2, params.lbits), params.N2
    return group_zn_compare(params.N, params.lbits), params.N


def _no_tap(*_) -> None:
    pass


def _mask_schema(params: ComparisonParams) -> list:
    """Wire layout of P1's step-1 masks for P2: flip vectors r and r', flip
    bit r'', step-5 multipliers tau and the circular shift pi."""
    z2, zn2, _, zpi = _groups(params)
    W = params.lbits + 1
    return [(z2, W), (z2, W), (z2, 1), (zn2, W), (zpi, 1)]


def _draw_masks(params: ComparisonParams, rng: RandomSource,
                force_pi: int | None, taps: TapRecorder | None) -> list:
    """P1's step-1 masks, as the values `_mask_schema` lays out."""
    W = params.lbits + 1
    flips = rng.randbelow_many(2, 2 * W + 1)
    r, rp, rpp = flips[:W], flips[W:2 * W], flips[2 * W]
    tau = [1 + v for v in rng.randbelow_many(params.N2 - 1, W)]
    pi = force_pi if force_pi is not None else rng.randbelow(W)
    if taps is not None:
        taps.put_plain("pi", pi)
    return [r, rp, [rpp], tau, [pi]]


def _mask_segments(params: ComparisonParams, masks: list) -> list:
    return [(g, v) for (g, _), v in zip(_mask_schema(params), masks)]


# ---------------------------------------------------------------------------
# Steps 3-10: one core per role, shared by all variants
# ---------------------------------------------------------------------------

def _gamma_pipeline(e_shares: list[int], n2: int, c: int, tau: list[int],
                    pi: int, put, me: int):
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
    put("gamma_prime", me, gp, n2)
    put("gamma", me, g, n2)
    u = [(x - c) * t % n2 for x, t in zip(g, tau)]
    put("u", me, u, n2)
    v = circular_shift(u, pi)
    put("v", me, v, n2)
    return v


def _side_core(me: int, params: ComparisonParams, a_vec, b_vec, masks: list,
               sa: int | None, variant: str, taps: TapRecorder | None,
               q: list[int] | None = None) -> Generator:
    """Steps 3-10 for P1 (me = 1) or P2 (me = 2); returns the [f]_N share.

    P1 and P2 hold additive shares, so a masked position x becomes
    (c - x) mod q with c = 1 for P1 and c = 0 for P2; on Z2 the c = 0 map
    leaves P2's bits as they are.  Given alg6's flip vector `q`, the step-4
    message also carries the helper's re-sharing of the collapsed alpha
    bits, and their sum replaces the step-1 share `sa`.
    """
    z2, zn2, zn, _ = _groups(params)
    W = params.lbits + 1
    N2, N = params.N2, params.N
    r, rp, (rpp,), tau, (pi,) = masks
    c = 1 if me == 1 else 0
    put = taps.put if taps is not None else _no_tap

    e = _flip([(x + y) % 2 for x, y in zip(a_vec, b_vec)], r, c, 2)
    yield from send(3, 3, [(z2, e)])

    if q is None:
        (e_n2,) = yield from recv(3, 4, [(zn2, W)])
    else:
        (e_n2, a_n2) = yield from recv(3, 4, [(zn2, W), (zn2, W)])
        a_n2 = _flip(a_n2, q, c, N2)
        put("a_n2", me, a_n2, N2)
        sa = sum(a_n2) % N2
    e_n2 = _flip(e_n2, r, c, N2)
    put("e", me, e_n2, N2)
    v = _gamma_pipeline(e_n2, N2, c, tau, pi, put, me)
    yield from send(3, 5, [(zn2, v)])

    (h_sh,) = yield from recv(3, 6, [(z2, W)])
    put("h_shifted", me, h_sh, 2)
    h = circular_unshift(h_sh, pi)
    put("h", me, h, 2)
    hp = _flip([(hb - ab) % 2 for hb, ab in zip(h, a_vec)], rp, c, 2)
    yield from send(3, 7, [(z2, hp)])

    # Steps 9(c)-(f): popcount difference mapped into {0, 1}.
    wide, wide_mod = _wide(params, variant)
    (hp_w,) = yield from recv(3, 8, [(wide, W)])
    hp_w = _flip(hp_w, rp, c, wide_mod)
    put("h_prime", me, hp_w, wide_mod)
    spa = sum(hp_w) % wide_mod
    put("s_a", me, sa, wide_mod)
    put("s_a_prime", me, spa, wide_mod)
    f = (sa - spa + c) * pow(2, -1, wide_mod) % wide_mod
    if variant == "alg5":
        return f  # already a Z_N share; protocol ends after step 9

    f = (c - f) % N2 if rpp else f
    yield from send(3, 9, [(zn2, [f])])
    ((f_n,),) = yield from recv(3, 10, [(zn, 1)])
    return (c - f_n) % N if rpp else f_n


def _recv_open(step: int, group, width: int, modulus: int) -> Generator:
    """Receive P1's and P2's shares of one vector and add them up."""
    (x1,) = yield from recv(1, step, [(group, width)])
    (x2,) = yield from recv(2, step, [(group, width)])
    return [(x + y) % modulus for x, y in zip(x1, x2)]


def _send_pairs(step: int, segments: list) -> Generator:
    """Send P1's share column of each segment to P1 and P2's to P2."""
    for to in (1, 2):
        yield from send(to, step, [(g, cols[to - 1]) for g, cols in segments])


def _helper_core(params: ComparisonParams, rng: RandomSource, variant: str,
                 taps: TapRecorder | None,
                 a_masked: list[int] | None = None) -> Generator:
    """Steps 3-10 for the helper P3.  For alg6 the step-4 message also
    re-shares the collapsed, q-masked alpha bits `a_masked`."""
    z2, zn2, zn, _ = _groups(params)
    W = params.lbits + 1
    N2, N = params.N2, params.N
    note = taps.put_plain if taps is not None else _no_tap

    e_masked = yield from _recv_open(3, z2, W, 2)
    note("p3_e_masked", e_masked)
    resh = [(zn2, _share_mod(e_masked, N2, rng))]
    if a_masked is not None:
        resh.append((zn2, _share_mod(a_masked, N2, rng)))
    yield from _send_pairs(4, resh)

    v = yield from _recv_open(5, zn2, W, N2)
    zeros = [i for i, x in enumerate(v) if x == 0]
    if len(zeros) != 1:
        raise ProtocolInvariantError(f"blinded vector has {len(zeros)} zeros")
    note("p3_v", v)
    note("p3_zero_index", zeros[0])
    h_shares = _share_mod([int(i == zeros[0]) for i in range(W)], 2, rng)
    yield from _send_pairs(6, [(z2, h_shares)])

    hp_masked = yield from _recv_open(7, z2, W, 2)
    note("p3_hp_masked", hp_masked)
    wide, wide_mod = _wide(params, variant)
    yield from _send_pairs(8, [(wide, _share_mod(hp_masked, wide_mod, rng))])

    if variant == "alg5":
        return None

    (f_masked,) = yield from _recv_open(9, zn2, 1, N2)
    if f_masked not in (0, 1):
        raise ProtocolInvariantError("masked comparison bit outside {0,1}")
    note("p3_f_masked", f_masked)
    yield from _send_pairs(10, [(zn, _share_mod([f_masked], N, rng))])


# ---------------------------------------------------------------------------
# Algorithm 4 / 5 party programs: steps 1-2 (deal) around the cores
# ---------------------------------------------------------------------------

def p1_program(params: ComparisonParams, a: int, rng: RandomSource,
               variant: str = "alg4", force_pi: int | None = None,
               taps: TapRecorder | None = None) -> Generator:
    z2 = group_z2()
    W = params.lbits + 1
    params.check_input(a)

    abits = bits_lsb(2 * a + 1, W)
    masks = _draw_masks(params, rng, force_pi, taps)
    a_mine, a_theirs = _share_mod(abits, 2, rng)
    sa_group, sa_mod = _wide(params, variant)
    (sa_mine,), sa_theirs = _share_mod([sum(abits)], sa_mod, rng)

    yield from send(2, 1, [(z2, a_theirs), (sa_group, sa_theirs),
                           *_mask_segments(params, masks)])
    (b_mine,) = yield from recv(2, 2, [(z2, W)])
    return (yield from _side_core(1, params, a_mine, b_mine, masks, sa_mine,
                                  variant, taps))


def p2_program(params: ComparisonParams, b: int, rng: RandomSource,
               variant: str = "alg4", taps: TapRecorder | None = None) -> Generator:
    z2 = group_z2()
    W = params.lbits + 1
    params.check_input(b)

    sa_group, _ = _wide(params, variant)
    (a_mine, (sa_mine,), *masks) = yield from recv(
        1, 1, [(z2, W), (sa_group, 1), *_mask_schema(params)])

    b_mine, b_theirs = _share_mod(bits_lsb(2 * b, W), 2, rng)
    yield from send(1, 2, [(z2, b_theirs)])
    return (yield from _side_core(2, params, a_mine, b_mine,
                                  masks, sa_mine, variant, taps))


def p3_program(params: ComparisonParams, rng: RandomSource,
               variant: str = "alg4",
               taps: TapRecorder | None = None) -> Generator:
    yield from _helper_core(params, rng, variant, taps)


# ---------------------------------------------------------------------------
# Algorithm 6: shared, bit-decomposed inputs among m parties.  Steps 1-2
# collapse the m-party sharing onto P1/P2, step 11 expands the result.
# ---------------------------------------------------------------------------

def share_bits_among(value: int, lbits: int, m: int, rng: RandomSource) -> list[list[int]]:
    """m-party additive Z2 sharing of each input bit; index 0 = party 1."""
    flat = rng.randbelow_many(2, lbits * (m - 1))
    draws = [flat[party::m - 1] for party in range(m - 1)]
    return share_columns(bits_lsb(value, lbits), draws, 2, m, shamir=False)


def _expand(params: ComparisonParams, m: int, f_n: int,
            rng: RandomSource) -> Generator:
    """Step 11 at P1/P2: hand parties 3..m a random piece each, keep the rest."""
    zn = group_zn_compare(params.N, params.lbits)
    own, pieces = additive_expand(f_n, params.N, m, rng)
    for k, piece in enumerate(pieces, start=3):
        yield from send(k, 11, [(zn, [piece])])
    return own


def _collect(params: ComparisonParams) -> Generator:
    """Step 11 at parties 3..m: add up the pieces from P1 and P2."""
    zn = group_zn_compare(params.N, params.lbits)
    ((p1_piece,),) = yield from recv(1, 11, [(zn, 1)])
    ((p2_piece,),) = yield from recv(2, 11, [(zn, 1)])
    return (p1_piece + p2_piece) % params.N


def p1_shared_program(params: ComparisonParams, m: int,
                      a_bits: list[int], b_bits: list[int], rng: RandomSource,
                      force_pi: int | None = None,
                      taps: TapRecorder | None = None) -> Generator:
    z2, _, zn, _ = _groups(params)
    W = params.lbits + 1

    a_vec = [0] + list(a_bits)   # alpha low bit comes from P2's share
    b_vec = [0] + list(b_bits)
    q = rng.randbelow_many(2, W)
    masks = _draw_masks(params, rng, force_pi, taps)
    rho1 = rng.randbelow(params.N)

    yield from send(2, 1, [(z2, q), *_mask_segments(params, masks), (zn, [rho1])])
    yield from send(3, 1, [(z2, _flip(a_vec, q, 1, 2))])
    f_n = yield from _side_core(1, params, a_vec, b_vec, masks, None, "alg4",
                                taps, q)

    # Residual re-randomization, then redistribution to parties 3..m.
    ((rho2,),) = yield from recv(2, 2, [(zn, 1)])
    return (yield from _expand(params, m, (f_n + rho2 - rho1) % params.N, rng))


def p2_shared_program(params: ComparisonParams, m: int,
                      a_bits: list[int], b_bits: list[int], rng: RandomSource,
                      taps: TapRecorder | None = None) -> Generator:
    z2, _, zn, _ = _groups(params)
    W = params.lbits + 1
    L = params.lbits

    (q, *masks, (rho1,)) = yield from recv(
        1, 1, [(z2, W), *_mask_schema(params), (zn, 1)])
    a_coll = list(a_bits)
    b_coll = list(b_bits)
    for k in range(3, m + 1):
        (ak, bk) = yield from recv(k, 1, [(z2, L), (z2, L)])
        a_coll = [(x + y) % 2 for x, y in zip(a_coll, ak)]
        b_coll = [(x + y) % 2 for x, y in zip(b_coll, bk)]
    a_vec = [1] + a_coll
    b_vec = [0] + b_coll

    rho2 = rng.randbelow(params.N)
    yield from send(1, 2, [(zn, [rho2])])
    yield from send(3, 2, [(z2, a_vec)])
    f_n = yield from _side_core(2, params, a_vec, b_vec, masks,
                                None, "alg4", taps, q)
    return (yield from _expand(params, m, (f_n + rho1 - rho2) % params.N, rng))


def p3_shared_program(params: ComparisonParams, m: int,
                      a_bits: list[int], b_bits: list[int],
                      rng: RandomSource) -> Generator:
    """Helper role plus its own shareholder duties (collapse and expand)."""
    z2 = group_z2()
    W = params.lbits + 1

    yield from send(2, 1, [(z2, list(a_bits)), (z2, list(b_bits))])
    (a1_masked,) = yield from recv(1, 1, [(z2, W)])
    (a2,) = yield from recv(2, 2, [(z2, W)])
    a_masked = [(x + y) % 2 for x, y in zip(a1_masked, a2)]
    yield from _helper_core(params, rng, "alg4", None, a_masked)
    return (yield from _collect(params))


def pk_shared_program(params: ComparisonParams, a_bits: list[int],
                      b_bits: list[int]) -> Generator:
    """Parties 4..m: fold input shares into P2, receive a result share."""
    yield from send(2, 1, [(group_z2(), list(a_bits)), (group_z2(), list(b_bits))])
    return (yield from _collect(params))


# ---------------------------------------------------------------------------
# Session runners
# ---------------------------------------------------------------------------

@dataclass
class CompareOutcome:
    f: int
    shares: dict[int, int]
    transcript: Transcript
    taps: TapRecorder | None = None


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
                    force_pi: int | None = None,
                    with_taps: bool = False) -> CompareOutcome:
    params = ComparisonParams.for_bitwidth(lbits)
    taps = TapRecorder() if with_taps else None
    programs = build_programs(a, b, params, seed, variant, force_pi, taps)
    proto = PROTO_SC_SEMI_HONEST if variant == "alg4" else PROTO_SC_LOW_ROUNDS
    net = run_session(programs, protocol_id=proto)
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
                      force_pi: int | None = None,
                      with_taps: bool = False) -> CompareOutcome:
    if m < 3:
        raise ValueError("shared-input comparison needs m >= 3")
    params = ComparisonParams.for_bitwidth(lbits)
    taps = TapRecorder() if with_taps else None
    programs = build_shared_programs(a, b, params, m, seed, force_pi, taps)
    net = run_session(programs, protocol_id=PROTO_SC_SHARED_INPUTS)
    shares = dict(net.results)
    f = sum(shares.values()) % params.N
    if taps is not None:
        taps.put_plain("f", f)
    return CompareOutcome(f, shares, net.transcript, taps)
