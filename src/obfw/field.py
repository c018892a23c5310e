"""Prime-field arithmetic, Lagrange interpolation, degree detection,
Vandermonde degree-reduction rows and Berlekamp-Welch decoding.

All values are plain Python integers reduced into [0, p); a PrimeField
instance carries the modulus and provides the arithmetic.  Polynomials are
coefficient vectors, index i holding the coefficient of x^i.  The zero
polynomial has degree -1 by convention, so degree checks on an all-zero
sharing come out clean.
"""
from __future__ import annotations

import functools
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

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    def uniform(self, rng: RandomSource) -> int:
        return rng.randbelow(self.p)

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

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            out[i] = c
        for i, c in enumerate(other.coeffs):
            out[i] = (out[i] - c) % self.field.p
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
        p = self.field.p
        rem = list(self.coeffs)
        quot = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        inv_lead = self.field.inv(other.coeffs[-1])
        for k in range(len(quot) - 1, -1, -1):
            top = rem[k + other.degree]
            if top == 0:
                continue
            q = top * inv_lead % p
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] = (rem[k + j] - q * b) % p
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def __repr__(self) -> str:
        return f"Polynomial({self.field.p}, {self.coeffs})"


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
        rest = [field.uniform(rng) for _ in range(degree)]
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
def _zero_weights(field: PrimeField, indices: tuple[int, ...]) -> tuple[int, ...]:
    # Invalid index tuples raise before anything is cached, so every call
    # with one raises again.
    _check_distinct_nonzero(field, indices)
    p = field.p
    out = []
    for j, xj in enumerate(indices):
        num = 1
        den = 1
        for k, xk in enumerate(indices):
            if k == j:
                continue
            num = num * (-xk) % p
            den = den * (xj - xk) % p
        out.append(num * field.inv(den) % p)
    return tuple(out)


def lagrange_zero_coefficients(field: PrimeField, indices: Sequence[int]) -> list[int]:
    """Weights L_j with f(0) = sum L_j * f(x_j) for distinct nonzero x_j.

    Computed once per (modulus, index tuple) and process; each call gets
    its own list.
    """
    return list(_zero_weights(field, tuple(indices)))


def interpolate(field: PrimeField, points: Sequence[tuple[int, int]]) -> Polynomial:
    """Full Lagrange interpolation; result degree < len(points)."""
    _check_distinct_nonzero(field, [x for x, _ in points], require_nonzero=False)
    p = field.p
    result = Polynomial(field, [])
    for j, (xj, yj) in enumerate(points):
        if yj % p == 0:
            continue
        basis = Polynomial(field, [1])
        den = 1
        for k, (xk, _) in enumerate(points):
            if k == j:
                continue
            basis = basis * Polynomial(field, [-xk, 1])
            den = den * (xj - xk) % p
        result = result + basis.scale(yj * field.inv(den) % p)
    return result


def interpolate_at_zero(field: PrimeField, points: Sequence[tuple[int, int]]) -> int:
    """f(0) without building the whole polynomial."""
    coeffs = _zero_weights(field, tuple(x for x, _ in points))
    acc = 0
    for c, (_, y) in zip(coeffs, points):
        acc = (acc + c * y) % field.p
    return acc


@dataclass(frozen=True)
class DegreeCheck:
    polynomial: Polynomial
    threshold: int

    @property
    def clean(self) -> bool:
        return self.polynomial.degree <= self.threshold


def detect_degree(field: PrimeField, points: Sequence[tuple[int, int]],
                  t: int) -> DegreeCheck:
    """Interpolate all points and compare the degree against t.

    Requires at least 2t+1 points so that a degree-t sharing and a
    degree-2t manipulation are distinguishable.
    """
    if len(points) < 2 * t + 1:
        raise InsufficientPoints(f"need >= {2 * t + 1} points, got {len(points)}")
    return DegreeCheck(interpolate(field, points), t)


def _gauss_jordan_inverse(field: PrimeField, m: list[list[int]]) -> list[list[int]]:
    n = len(m)
    p = field.p
    aug = [row[:] + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p != 0), None)
        assert pivot is not None, "Vandermonde matrix over distinct indices is invertible"
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = field.inv(aug[col][col])
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] % p != 0:
                factor = aug[r][col]
                aug[r] = [(a - factor * b) % p for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def vandermonde_reduction_row(field: PrimeField, n: int) -> list[int]:
    """First row of the inverse of the n x n Vandermonde matrix on 1..n.

    These are the recombination weights of the resharing degree
    reduction; n must be odd (n = 2t+1) and below the modulus.
    """
    if n % 2 != 1:
        raise ValueError("reduction row is defined for n = 2t+1 (odd)")
    if n >= field.p:
        raise ValueError("party count must be below the field modulus")
    vm = [[pow(i, k, field.p) for k in range(n)] for i in range(1, n + 1)]
    return _gauss_jordan_inverse(field, vm)[0]


@dataclass(frozen=True)
class BWResult:
    polynomial: Polynomial
    bad_indices: frozenset[int]


def berlekamp_welch(field: PrimeField, points: Sequence[tuple[int, int]],
                    t: int, max_errors: int) -> BWResult | None:
    """Decode points as a Reed-Solomon word for a degree-<=t polynomial.

    Returns the recovered polynomial plus the x-coordinates it disagrees
    with, or None when no degree-<=t polynomial matches all but
    `max_errors` points.
    """
    n = len(points)
    if n < t + 1 + 2 * max_errors:
        raise InsufficientPoints(
            f"need >= t+1+2e = {t + 1 + 2 * max_errors} points, got {n}")
    p = field.p
    _check_distinct_nonzero(field, [x for x, _ in points], require_nonzero=False)

    for e in range(max_errors, -1, -1):
        # Unknowns: E(x) monic of degree e (e coefficients) and Q(x) of
        # degree <= e+t (e+t+1 coefficients); constraint Q(x_i) = y_i E(x_i).
        ncols = e + (e + t + 1)
        rows = []
        for x, y in points:
            xe = pow(x, e, p)
            row = []
            xp = 1
            for _ in range(e):          # E coefficients (below the monic term)
                row.append(y * xp % p)
                xp = xp * x % p
            xp = 1
            for _ in range(e + t + 1):  # Q coefficients, negated side
                row.append(-xp % p)
                xp = xp * x % p
            rows.append((row, -y * xe % p))
        sol = _solve_linear(field, rows, ncols)
        if sol is None:
            continue
        E = Polynomial(field, sol[:e] + [1])
        Q = Polynomial(field, sol[e:])
        f, rem = Q.divmod(E)
        if rem.degree >= 0 or f.degree > t:
            continue
        bad = frozenset(x for x, y in points if f.evaluate(x) != y % p)
        if len(bad) <= max_errors:
            return BWResult(f, bad)
    return None


def _solve_linear(field: PrimeField, rows: list[tuple[list[int], int]],
                  ncols: int) -> list[int] | None:
    """Any solution of the system (free variables set to zero), or None."""
    p = field.p
    mat = [row[:] + [rhs] for row, rhs in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] % p != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [v * inv % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p != 0:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    for i in range(r, len(mat)):
        if mat[i][ncols] % p != 0:
            return None
    sol = [0] * ncols
    for i, c in enumerate(pivots):
        sol[c] = mat[i][ncols]
    return sol
