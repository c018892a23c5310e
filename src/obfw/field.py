"""Prime-field arithmetic, Lagrange interpolation and Reed-Solomon
decoding under one error budget (`locate`).

All values are plain Python integers reduced into [0, p); a PrimeField
instance carries the modulus and provides the arithmetic.  Polynomials are
coefficient vectors, index i holding the coefficient of x^i.  The zero
polynomial has degree -1 by convention, so degree checks on an all-zero
sharing come out clean.

Interpolation is linear in the y values.  For each (modulus, x tuple) the
process builds the inverse Vandermonde matrix once: `interpolate` is its
product with the y vector, the Lagrange zero weights and the resharing
reduction row are its row 0, and the inverses of the zero weights are
cached beside them.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .rng import RandomSource


class FieldError(Exception):
    pass


class ZeroInverse(FieldError):
    pass


class DuplicateIndex(FieldError):
    pass


class InsufficientPoints(FieldError):
    pass


class NotPrime(FieldError):
    pass


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with 40 random bases (deterministic for small n)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = RandomSource(n)
    for _ in range(40):
        a = 2 + rng.randbelow(n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Modulus -> result of is_probable_prime.  The test is deterministic in the
# modulus, so two threads racing on a new modulus at worst both run it.
_PRIMALITY: dict[int, bool] = {}


class PrimeField:
    """Arithmetic mod a prime p.

    Construction verifies primality: the first time for each modulus it
    runs `is_probable_prime`, afterwards it reuses that verdict, so a
    composite modulus raises NotPrime on every construction.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        prime = _PRIMALITY.get(p)
        if prime is None:
            prime = _PRIMALITY[p] = is_probable_prime(p)
        if not prime:
            raise NotPrime(f"{p} failed the primality check")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return pow(a, -1, self.p)

class Polynomial:
    """Dense polynomial over a prime field, coefficients ascending."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[int]):
        self.field = field
        cs = [c % field.p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.field.p
        return acc

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self) -> int:
        return hash((self.field.p, tuple(self.coeffs)))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            out[i] = c
        for i, c in enumerate(other.coeffs):
            out[i] = (out[i] + c) % self.field.p
        return Polynomial(self.field, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coeffs or not other.coeffs:
            return Polynomial(self.field, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        p = self.field.p
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return Polynomial(self.field, out)

    def scale(self, c: int) -> "Polynomial":
        return Polynomial(self.field, [c * a for a in self.coeffs])

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.degree < 0:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _divmod(self.field, self.coeffs, other.coeffs)
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def __repr__(self) -> str:
        return f"Polynomial({self.field.p}, {self.coeffs})"


def _divmod(field: PrimeField, a: list[int],
            b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of coefficient lists, `b` without leading
    zeros; the remainder is shorter than `b`.  The running remainder is
    reduced mod p only where it is read."""
    p = field.p
    rem = list(a)
    db = len(b) - 1
    inv_lead = field.inv(b[-1])
    quot = [0] * max(0, len(rem) - db)
    for k in range(len(quot) - 1, -1, -1):
        q = quot[k] = rem[k + db] * inv_lead % p
        rem[k:k + db] = [r - q * c for r, c in zip(rem[k:k + db], b)]
    rem = [r % p for r in rem[:db]]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def random_polynomial(field: PrimeField, degree: int, constant: int,
                      rng: RandomSource,
                      forced_coeffs: Sequence[int] | None = None) -> Polynomial:
    """Degree-<=degree polynomial with fixed constant term.

    `forced_coeffs` is a test hook for golden vectors: it lists the
    non-constant coefficients from the highest power down.
    """
    if forced_coeffs is not None:
        if len(forced_coeffs) != degree:
            raise ValueError("forced coefficient count must equal degree")
        rest = [c % field.p for c in reversed(forced_coeffs)]
    else:
        rest = rng.randbelow_many(field.p, degree)
    return Polynomial(field, [constant % field.p] + rest)


def _check_distinct_nonzero(field: PrimeField, xs: Sequence[int],
                            require_nonzero: bool = True) -> None:
    seen = set()
    for x in xs:
        x %= field.p
        if require_nonzero and x == 0:
            raise DuplicateIndex("index 0 is reserved for the secret")
        if x in seen:
            raise DuplicateIndex(f"duplicate evaluation index {x}")
        seen.add(x)


@functools.cache
def inverse_vandermonde(field: PrimeField,
                        xs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Inverse of the Vandermonde matrix on distinct xs: row k holds the
    weights of coefficient k, so f_k = sum_j row_k[j] * f(x_j).

    Column j is the Lagrange basis polynomial of x_j.  An invalid tuple
    raises before anything is cached, so every call with it raises again.
    """
    _check_distinct_nonzero(field, xs, require_nonzero=False)
    p = field.p
    cols = []
    for j, xj in enumerate(xs):
        basis = Polynomial(field, [1])
        den = 1
        for k, xk in enumerate(xs):
            if k == j:
                continue
            basis = basis * Polynomial(field, [-xk, 1])
            den = den * (xj - xk) % p
        cols.append(basis.scale(field.inv(den)).coeffs)    # monic: n long
    return tuple(zip(*cols))


@functools.cache
def _zero_weights(field: PrimeField, indices: tuple[int, ...]) -> tuple[int, ...]:
    _check_distinct_nonzero(field, indices)
    return inverse_vandermonde(field, indices)[0] if indices else ()


def lagrange_zero_coefficients(field: PrimeField, indices: Sequence[int]) -> list[int]:
    """Weights L_j with f(0) = sum L_j * f(x_j) for distinct nonzero x_j.

    Computed once per (modulus, index tuple) and process; each call gets
    its own list.
    """
    return list(_zero_weights(field, tuple(indices)))


@functools.cache
def lagrange_zero_inverses(field: PrimeField,
                           indices: tuple[int, ...]) -> tuple[int, ...]:
    """1 / L_j for each weight of `lagrange_zero_coefficients`, computed
    once per (modulus, index tuple).  On distinct nonzero indices no L_j
    is 0, so each has an inverse."""
    return tuple(field.inv(w) for w in _zero_weights(field, indices))


def interpolate(field: PrimeField, points: Sequence[tuple[int, int]]) -> Polynomial:
    """Full Lagrange interpolation; result degree < len(points).

    One product of the cached inverse Vandermonde table on the x values
    with the y values.
    """
    ys = [y for _, y in points]
    table = inverse_vandermonde(field, tuple(x for x, _ in points))
    return Polynomial(field, [sum(map(operator.mul, row, ys)) for row in table])


def interpolate_at_zero(field: PrimeField, points: Sequence[tuple[int, int]]) -> int:
    """f(0) without building the whole polynomial."""
    weights = _zero_weights(field, tuple(x for x, _ in points))
    return sum(map(operator.mul, weights, (y for _, y in points))) % field.p


@dataclass(frozen=True)
class BWResult:
    polynomial: Polynomial
    bad_indices: frozenset[int]


def berlekamp_welch(field: PrimeField, points: Sequence[tuple[int, int]],
                    t: int, max_errors: int) -> BWResult | None:
    """Decode points as a Reed-Solomon word for a degree-<=t polynomial.

    Returns the recovered polynomial plus the x-coordinates it disagrees
    with, or None when no degree-<=t polynomial matches all but
    `max_errors` points.  Within that budget the polynomial is unique.

    Points on one polynomial of degree <= t cost one interpolation, from
    the cached inverse Vandermonde table of their xs.  Any other word goes
    through Gao's algorithm ("A new algorithm for decoding Reed-Solomon
    codes", 2003): the remainder sequence of prod(X - x_i) and the
    polynomial through every point, stopped below degree (n+t+1)/2, leaves
    r = f*v with v the error locator.  It decodes the words that
    Berlekamp-Welch (US patent 4,633,470) decodes, with no linear system.
    The name stays while the benchmark's tracer patches functions by name
    and the tests call it.
    """
    n = len(points)
    if n < t + 1 + 2 * max_errors:
        raise InsufficientPoints(
            f"need >= t+1+2e = {t + 1 + 2 * max_errors} points, got {n}")
    p = field.p
    f = interpolate(field, points)
    if f.degree <= t:
        return BWResult(f, frozenset())
    f = _gao(field, tuple(x for x, _ in points), f.coeffs, t)
    if f is None:
        return None
    bad = frozenset([x for x, y in points if f.evaluate(x) != y % p])
    return BWResult(f, bad) if len(bad) <= max_errors else None


def locate(field: PrimeField, points: Sequence[tuple[int, int]], degree: int,
           colluders: int) -> BWResult | None:
    """`berlekamp_welch` on `points` at `degree`, with the largest error
    budget e at which, while at most `colluders` points lie, a decoding
    is the honest polynomial and names only lying points:
    e = max(0, min((n-degree-1)//2, n-degree-colluders-1)).

    Past (n-degree-1)//2 a decoding need not be unique.  Past
    n-degree-colluders-1 the colluders can win it: moving their points
    onto g = f + c*prod(X - x_h), over `degree` honest x_h, puts g of
    degree <= `degree` within n-degree-colluders points of the word, and
    no g != f comes closer, as g meets f in at most `degree` of the
    n-colluders honest points.  So any decoding within e is f, and every
    point it disagrees with lies.
    """
    n = len(points)
    e = max(0, min((n - degree - 1) // 2, n - degree - colluders - 1))
    return berlekamp_welch(field, points, degree, e)


@functools.cache
def _vanishing(field: PrimeField, xs: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients of prod(X - x) over `xs`."""
    return tuple(functools.reduce(
        operator.mul, [Polynomial(field, [-x, 1]) for x in xs]).coeffs)


def _gao(field: PrimeField, xs: tuple[int, ...], r1: list[int],
         t: int) -> Polynomial | None:
    """The degree-<=t polynomial that Gao's algorithm decodes from the
    polynomial r1 through n points at `xs`, or None."""
    p = field.p
    r0 = _vanishing(field, xs)
    v0, v1 = [], [1]
    while 2 * len(r1) > len(xs) + t + 2:     # deg r1 >= (n+t+1)/2
        q, r = _divmod(field, r0, r1)
        qv = [0] * (len(q) + len(v1) - 1)    # longer than v0
        for i, a in enumerate(q):
            for j, b in enumerate(v1):
                qv[i + j] += a * b
        for i, c in enumerate(v0):
            qv[i] -= c
        r0, r1 = r1, r
        v0, v1 = v1, [-c % p for c in qv]       # v0 - q*v1
    f, rem = _divmod(field, r1, v1)
    if rem or len(f) > t + 1:
        return None
    return Polynomial(field, f)
