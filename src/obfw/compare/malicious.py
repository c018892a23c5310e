"""Symmetric comparison over Shamir-shared bits (the malicious-model form).

All m = 2t+1 parties hold Shamir shares of each input bit.  xor is the
arithmetic gadget x + y - 2xy, so every xor costs one multiplication
round; the most-significant-difference mask comes from products down the
columns of the pairwise-xor triangle.  Unbounded fan-in products are
realized as a pairwise tree of depth ceil(log2 k) rather than the
constant-round primitive, so round counts are reported with that caveat.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Generator, Iterator, Sequence

from ..net import PROTO_SC_MALICIOUS, Transcript, run_session
from ..rng import RandomSource
from ..sharing import (
    ShamirParams,
    ShamirShare,
    mult_fanin_party,
    shamir_mult_party,
    shamir_reveal,
    share_columns,
    tree_products,
)
from .params import ComparisonParams, bits_lsb
from .semi_honest import TapRecorder


def _xor_batch(me: int, sp: ShamirParams, xs: Sequence[int], ys: Sequence[int],
               rng: RandomSource, steps: Iterator[int]) -> Generator:
    """Element-wise xor of {0,1} sharings: x + y - 2xy, one mult round."""
    prods = yield from shamir_mult_party(me, sp, list(xs), list(ys), rng,
                                         step=next(steps))
    return [(x + y - 2 * p) % sp.p for x, y, p in zip(xs, ys, prods)]


@functools.cache
def _triangle(W: int) -> tuple:
    """The xor triangle of W bits, laid out once: its cells (i, k), k < i, in
    row order (cell (i, k) at i(i-1)/2 + k), getters of the e_i and e_k that
    each cell xors, and one getter per column k < W - 1 over `tri + e`."""
    coords = [(i, k) for i in range(1, W) for k in range(i)]
    columns = [operator.itemgetter(len(coords) + k, *[i * (i - 1) // 2 + k
                                                      for i in range(k + 1, W)])
               for k in range(W - 1)]
    return (tuple(coords), operator.itemgetter(*[i for i, _ in coords]),
            operator.itemgetter(*[k for _, k in coords]), tuple(columns))


def malicious_party(me: int, sp: ShamirParams, lbits: int,
                    a_bit_shares: Sequence[int], b_bit_shares: Sequence[int],
                    rng: RandomSource, taps: TapRecorder | None = None
                    ) -> Generator:
    """One party's run; returns its Shamir share of the comparison bit."""
    p = sp.p
    W = lbits + 1
    steps = itertools.count(1)

    # Round 1 locals: alpha = 2a+1 and beta = 2b via an index shift; the
    # fresh low bits are public constants, shared as constant polynomials.
    a_vec = [1] + list(a_bit_shares)
    b_vec = [0] + list(b_bit_shares)
    s_a = sum(a_vec) % p

    e = yield from _xor_batch(me, sp, a_vec, b_vec, rng.child("e"), steps)
    if taps is not None:
        taps.put("e", me, e, p)

    # Triangle E[i][k] = xor(e_i, e_k) for k < i, batched in one round.
    coords, pick_i, pick_k, pick_columns = _triangle(W)
    tri = yield from _xor_batch(me, sp, pick_i(e), pick_k(e), rng.child("tri"),
                                steps)
    if taps is not None:
        taps.put("E", me, tri, p)
        taps.put_plain("E_coords", list(coords))

    # Column k collects e_k and every xor against more significant bits;
    # its product is 1 exactly at the most significant difference.
    cells = tri + e
    columns = [pick(cells) for pick in pick_columns]
    v_low = yield from tree_products(me, sp, columns, rng.child("prod"), steps)
    v = v_low + [e[W - 1]]
    if taps is not None:
        taps.put("v", me, v, p)

    h = yield from _xor_batch(me, sp, a_vec, v, rng.child("h"), steps)
    if taps is not None:
        taps.put("h", me, h, p)

    s_a_prime = sum(h) % p
    f = (s_a - s_a_prime + 1) % p
    f = f * pow(2, -1, p) % p
    if taps is not None:
        taps.put("s_a", me, s_a, p)
        taps.put("s_a_prime", me, s_a_prime, p)
    return f


def run_mult_fanin(value_shares: list[list[ShamirShare]], seed=0):
    """Drive a fan-in product of k shared values; returns (shares, net).

    `value_shares` is a list of k share vectors, each sorted by party.
    """
    sp = value_shares[0][0].params
    n = sp.n
    rng = RandomSource(seed)
    programs = {
        j: mult_fanin_party(j, sp, [vec[j - 1].value for vec in value_shares],
                            rng.child(f"fanin/{j}"))
        for j in range(1, n + 1)
    }
    net = run_session(programs, protocol_id=PROTO_SC_MALICIOUS)
    shares = [ShamirShare(j, net.results[j], sp) for j in sorted(net.results)]
    return shares, net


@dataclass
class MaliciousOutcome:
    f: int
    shares: list[ShamirShare]
    transcript: Transcript
    taps: TapRecorder | None = None


def run_malicious(a: int, b: int, lbits: int, t: int = 1, seed=0,
                  with_taps: bool = False) -> MaliciousOutcome:
    params = ComparisonParams.for_bitwidth(lbits)
    params.check_input(a)
    params.check_input(b)
    n = 2 * t + 1
    sp = ShamirParams(params.N, t, n)
    rng = RandomSource(seed)
    taps = TapRecorder() if with_taps else None

    a_cols, b_cols = [
        share_columns(bits_lsb(v, lbits), rng.child_draws(
            [f"{name}/{i}" for i in range(lbits)], sp.p, t), sp.p, n, shamir=True)
        for name, v in (("a", a), ("b", b))]

    programs = {
        j: malicious_party(j, sp, lbits, a_cols[j - 1], b_cols[j - 1],
                           rng.child(f"party/{j}"), taps)
        for j in range(1, n + 1)
    }
    net = run_session(programs, protocol_id=PROTO_SC_MALICIOUS)
    shares = [ShamirShare(j, net.results[j], sp) for j in sorted(net.results)]
    f = shamir_reveal(shares)
    if taps is not None:
        taps.put_plain("f", f)
    return MaliciousOutcome(f, shares, net.transcript, taps)
