"""Comparison-domain parameters, the plaintext reduction, and shifts.

The reduction: compare a >= b by doubling the inputs (alpha = 2a+1,
beta = 2b, guaranteeing a difference), locating the most significant
differing bit, flipping exactly that bit of alpha, and comparing popcounts
before and after the flip.  The popcount difference is +/-1 and its sign
is the comparison result.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from ..field import is_probable_prime
from ..net import ceil_log2


class DomainOverflow(Exception):
    pass


def bits_lsb(value: int, width: int) -> list[int]:
    return [(value >> i) & 1 for i in range(width)]


def smallest_prime_above(n: int) -> int:
    c = n + 1
    while not is_probable_prime(c):
        c += 1
    return c


def select_n2(lbits: int) -> int:
    """Smallest prime strictly inside (2^(ceil(log2 l)+1), 2^(ceil(log2 l)+2)).

    Bertrand's postulate guarantees one exists; the interval floor already
    exceeds 2l+1, the largest value the repeated prefix sums can reach.
    """
    if lbits < 4:
        raise ValueError("bit width below 4 leaves no room for the N2 interval")
    lo = 1 << (ceil_log2(lbits) + 1)
    hi = 1 << (ceil_log2(lbits) + 2)
    p = smallest_prime_above(lo)
    assert p < hi, "Bertrand interval must contain a prime"
    return p


@dataclass(frozen=True)
class ComparisonParams:
    lbits: int
    N: int
    N2: int

    @classmethod
    @functools.cache
    def for_bitwidth(cls, lbits: int) -> "ComparisonParams":
        """Parameters for l-bit inputs, searched for once per bit width."""
        return cls(lbits=lbits, N=smallest_prime_above(1 << lbits),
                   N2=select_n2(lbits))

    def check_input(self, value: int) -> None:
        if not 0 <= value < (1 << self.lbits):
            raise DomainOverflow(f"{value} outside [0, 2^{self.lbits})")


def circular_shift(vec: list, amount: int) -> list:
    """Right rotation: the element at position i moves to (i+amount) mod len."""
    n = len(vec)
    if n == 0:
        return []
    amount %= n
    out = [None] * n
    for i, v in enumerate(vec):
        out[(i + amount) % n] = v
    return out


def circular_unshift(vec: list, amount: int) -> list:
    return circular_shift(vec, -amount)


@dataclass(frozen=True)
class Claim1Trace:
    alpha: int
    beta: int
    e_bits: list[int]
    h_bits: list[int]
    h_prime_bits: list[int]
    s_alpha: int
    s_alpha_prime: int
    f: int


def claim1_trace(a: int, b: int, lbits: int) -> Claim1Trace:
    """Plaintext reference for the reduction, exposing intermediates."""
    if not (0 <= a < (1 << lbits) and 0 <= b < (1 << lbits)):
        raise DomainOverflow("inputs exceed the declared bit width")
    alpha = 2 * a + 1
    beta = 2 * b
    width = lbits + 1
    abits = bits_lsb(alpha, width)
    e = [x ^ y for x, y in zip(abits, bits_lsb(beta, width))]
    msb = max(i for i, bit in enumerate(e) if bit)  # e != 0: bit 0 differs
    h = [1 if i == msb else 0 for i in range(width)]
    hp = [(hb - ab) % 2 for hb, ab in zip(h, abits)]
    s_alpha = sum(abits)
    s_alpha_prime = sum(hp)
    f = (s_alpha - s_alpha_prime + 1) // 2
    return Claim1Trace(alpha, beta, e, h, hp, s_alpha, s_alpha_prime, f)


def claim1_oracle(a: int, b: int, lbits: int) -> int:
    """1 iff a >= b, via the popcount reduction."""
    return claim1_trace(a, b, lbits).f
