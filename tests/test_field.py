"""Field arithmetic, interpolation, degree detection and BW decoding."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from obfw.field import (
    BWResult,
    DuplicateIndex,
    InsufficientPoints,
    NotPrime,
    Polynomial,
    PrimeField,
    ZeroInverse,
    berlekamp_welch,
    detect_degree,
    interpolate,
    inverse_vandermonde,
    is_probable_prime,
    lagrange_zero_coefficients,
    lagrange_zero_inverses,
    random_polynomial,
)
from obfw.rng import RandomSource

F11 = PrimeField(11)
F101 = PrimeField(101)
F251 = PrimeField(251)
F_M31 = PrimeField(2 ** 31 - 1)


class TestPrimality:
    def test_small_primes_whitelisted(self):
        for p in (11, 101, 251):
            assert is_probable_prime(p)

    def test_composites_rejected(self):
        for n in (1, 0, 4, 91, 100, 561, 41041):  # incl. Carmichael numbers
            assert not is_probable_prime(n)

    def test_field_requires_prime(self):
        # The verdict is kept per modulus: a composite fails every time.
        for _ in range(2):
            with pytest.raises(NotPrime):
                PrimeField(91)


class TestModInverse:
    def test_two_mod_eleven(self):
        assert F11.inv(2) == 6

    def test_identity(self):
        for field in (F11, F101, F251):
            assert field.inv(1) == 1

    def test_known_inverse_pair(self):
        # the coefficient 91 pairs with inverse 10
        assert F101.inv(91) == 10

    def test_zero_raises(self):
        with pytest.raises(ZeroInverse):
            F101.inv(0)

    @given(st.integers(min_value=1, max_value=250))
    def test_inverse_property(self, a):
        assert F251.mul(a, F251.inv(a)) == 1


class TestLagrangeZeroCoefficients:
    def test_z101_five_indices(self):
        assert lagrange_zero_coefficients(F101, [1, 2, 3, 4, 5]) == [5, 91, 10, 96, 1]

    def test_z251_three_indices(self):
        assert lagrange_zero_coefficients(F251, [1, 2, 3]) == [3, 248, 1]

    def test_single_point(self):
        for field in (F11, F101, F251):
            assert lagrange_zero_coefficients(field, [1]) == [1]

    def test_duplicate_raises(self):
        for _ in range(2):
            with pytest.raises(DuplicateIndex):
                lagrange_zero_coefficients(F101, [1, 2, 2])

    def test_zero_index_raises(self):
        for indices in ([0, 1], [0, 1], [1, 101], [1, 101]):  # 101 = 0 mod 101
            with pytest.raises(DuplicateIndex):
                lagrange_zero_coefficients(F101, indices)

    def test_caller_mutation_does_not_reach_the_next_call(self):
        first = lagrange_zero_coefficients(F101, [1, 2, 3, 4, 5])
        first[0] = 0
        first.append(7)
        assert lagrange_zero_coefficients(F101, [1, 2, 3, 4, 5]) == [5, 91, 10, 96, 1]

    def test_moduli_sharing_an_index_tuple_get_their_own_weights(self):
        assert lagrange_zero_coefficients(F251, (1, 2, 3)) == [3, 248, 1]
        assert lagrange_zero_coefficients(F101, (1, 2, 3)) == [3, 98, 1]
        assert lagrange_zero_coefficients(F11, (1, 2, 3)) == [3, 8, 1]

    @settings(max_examples=50)
    @given(st.data())
    def test_dot_product_reconstructs(self, data):
        rng = RandomSource(data.draw(st.integers(0, 2**32)))
        deg = data.draw(st.integers(0, 4))
        secret = data.draw(st.integers(0, 100))
        poly = random_polynomial(F101, deg, secret, rng)
        idx = list(range(1, deg + 2))
        coeffs = lagrange_zero_coefficients(F101, idx)
        acc = sum(c * poly.evaluate(x) for c, x in zip(coeffs, idx)) % 101
        assert acc == secret


class TestInterpolate:
    def test_phase1_zero_polynomial(self):
        poly = interpolate(F101, [(1, 42), (2, 5), (3, 100), (4, 75), (5, 23)])
        assert poly.coeffs == [0, 74, 51, 92, 27]  # 27x^4+92x^3+51x^2+74x

    def test_degree_two_shares(self):
        poly = interpolate(F101, [(1, 62), (2, 10), (3, 56), (4, 99), (5, 38)])
        assert poly.coeffs == [10, 3, 49]  # 49x^2+3x+10

    def test_single_point_constant(self):
        assert interpolate(F101, [(1, 7)]).coeffs == [7]

    def test_duplicate_x_raises(self):
        with pytest.raises(DuplicateIndex):
            interpolate(F101, [(1, 3), (1, 4)])

    @settings(max_examples=60)
    @given(st.data())
    def test_round_trip(self, data):
        rng = RandomSource(data.draw(st.integers(0, 2**32)))
        deg = data.draw(st.integers(0, 5))
        poly = random_polynomial(F251, deg, data.draw(st.integers(0, 250)), rng)
        xs = data.draw(st.permutations(list(range(1, 12))))[:deg + 1]
        got = interpolate(F251, [(x, poly.evaluate(x)) for x in xs])
        assert got == poly


def _basis_interpolate(field, points):
    """Oracle: the sum of y_j times the Lagrange basis polynomial of x_j."""
    p = field.p
    result = Polynomial(field, [])
    for j, (xj, yj) in enumerate(points):
        basis = Polynomial(field, [1])
        den = 1
        for k, (xk, _) in enumerate(points):
            if k != j:
                basis = basis * Polynomial(field, [-xk, 1])
                den = den * (xj - xk) % p
        result = result + basis.scale(yj * pow(den, p - 2, p))
    return result


@st.composite
def _field_and_xs(draw):
    """F251 or 2^31-1 with 1-7 distinct x values, 0 allowed."""
    field = draw(st.sampled_from([F251, F_M31]))
    xs = draw(st.lists(st.integers(0, field.p - 1), min_size=1, max_size=7,
                       unique=True))
    return field, tuple(xs)


class TestInverseVandermonde:
    @settings(max_examples=80)
    @given(_field_and_xs())
    def test_inverts_the_vandermonde_matrix(self, case):
        field, xs = case
        p, n = field.p, len(xs)
        vm = [[pow(x, k, p) for k in range(n)] for x in xs]
        table = inverse_vandermonde(field, xs)
        assert len(table) == n and all(len(row) == n for row in table)
        for i in range(n):
            for j in range(n):
                assert sum(vm[i][k] * table[k][j] for k in range(n)) % p == (i == j)
                assert sum(table[i][k] * vm[k][j] for k in range(n)) % p == (i == j)

    @settings(max_examples=80)
    @given(_field_and_xs(), st.data())
    def test_interpolate_equals_basis_reference(self, case, data):
        field, xs = case
        ys = data.draw(st.lists(st.integers(-field.p, 2 * field.p),
                                min_size=len(xs), max_size=len(xs)))
        points = list(zip(xs, ys))
        assert interpolate(field, points) == _basis_interpolate(field, points)

    @settings(max_examples=40)
    @given(_field_and_xs(), st.data())
    def test_duplicate_raises_on_every_call(self, case, data):
        field, xs = case
        x = data.draw(st.sampled_from(xs))
        twin = data.draw(st.sampled_from([x, x + field.p, x - field.p]))
        bad = xs + (twin,)
        for _ in range(2):
            with pytest.raises(DuplicateIndex):
                inverse_vandermonde(field, bad)
            with pytest.raises(DuplicateIndex):
                interpolate(field, [(b, 1) for b in bad])

    def test_moduli_sharing_a_tuple_get_their_own_tables(self):
        xs = (1, 2, 3)
        assert inverse_vandermonde(F251, xs)[0] == (3, 248, 1)
        assert inverse_vandermonde(F11, xs)[0] == (3, 8, 1)
        pts = [(1, 5), (2, 7), (3, 2)]
        for field in (F11, F251):
            poly = interpolate(field, pts)
            assert [poly.evaluate(x) for x, _ in pts] == [5, 7, 2]

    def test_caller_mutation_does_not_reach_the_next_call(self):
        pts = [(1, 62), (2, 10), (3, 56), (4, 99), (5, 38)]
        first = interpolate(F101, pts)
        first.coeffs[0] = 0
        first.coeffs.append(7)
        assert interpolate(F101, pts).coeffs == [10, 3, 49]

    def test_zero_inverses_invert_the_zero_weights(self):
        for field in (F11, F101, F251, F_M31):
            idx = (1, 2, 3, 4, 5)
            weights = lagrange_zero_coefficients(field, idx)
            inverses = lagrange_zero_inverses(field, idx)
            assert [w * v % field.p for w, v in zip(weights, inverses)] == [1] * 5


class TestDetectDegree:
    def test_honest_degree_two(self):
        chk = detect_degree(F101, [(1, 62), (2, 10), (3, 56), (4, 99), (5, 38)], t=2)
        assert chk.clean and chk.polynomial.coeffs == [10, 3, 49]

    def test_tampered_degree_four(self):
        chk = detect_degree(F101, [(1, 62), (2, 10), (3, 46), (4, 99), (5, 38)], t=2)
        assert not chk.clean
        assert chk.polynomial.coeffs == [11, 97, 78, 30, 48]

    def test_fresh_sharing_clean(self):
        rng = RandomSource(99)
        poly = random_polynomial(F251, 2, 77, rng)
        pts = [(i, poly.evaluate(i)) for i in range(1, 6)]
        assert detect_degree(F251, pts, t=2).clean

    def test_zero_sharing_clean(self):
        pts = [(i, 0) for i in range(1, 6)]
        chk = detect_degree(F251, pts, t=2)
        assert chk.polynomial.degree == -1 and chk.clean

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            detect_degree(F101, [(1, 1), (2, 2)], t=2)


class TestVandermondeRow:
    # The resharing reduction row on 1..n is row 0 of the inverse
    # Vandermonde table on those points.
    @staticmethod
    def row(field, n):
        return list(inverse_vandermonde(field, tuple(range(1, n + 1)))[0])

    def test_n5_p251(self):
        assert self.row(F251, 5) == [5, 241, 10, 246, 1]

    def test_n5_p101_matches_lagrange(self):
        assert self.row(F101, 5) == \
            lagrange_zero_coefficients(F101, [1, 2, 3, 4, 5])

    def test_n1(self):
        assert self.row(F101, 1) == [1]

    def test_cross_check_all_odd_n(self):
        for n in (1, 3, 5, 7, 9):
            assert self.row(F251, n) == \
                lagrange_zero_coefficients(F251, list(range(1, n + 1)))

    def test_independent_matrix_inversion(self):
        # Oracle: multiply the inverse row against the Vandermonde columns.
        n = 5
        row = self.row(F101, n)
        for k in range(n):
            acc = sum(row[i] * pow(i + 1, k, 101) for i in range(n)) % 101
            assert acc == (1 if k == 0 else 0)


def _brute_force_bw(field, points, t, e):
    """Oracle: search all (t+1)-subsets for a degree-<=t polynomial that
    disagrees with at most e points."""
    for subset in itertools.combinations(points, t + 1):
        cand = interpolate(field, list(subset))
        if cand.degree <= t:
            bad = [x for x, y in points if cand.evaluate(x) != y % field.p]
            if len(bad) <= e:
                return cand, frozenset(bad)
    return None


class TestBerlekampWelch:
    def test_recovery_of_tampered_sharing(self):
        pts = [(1, 62), (2, 10), (3, 46), (4, 99), (5, 38)]
        res = berlekamp_welch(F101, pts, t=2, max_errors=1)
        assert isinstance(res, BWResult)
        assert res.polynomial.coeffs == [10, 3, 49]
        assert res.bad_indices == frozenset({3})

    def test_honest_matches_interpolate(self):
        rng = RandomSource(5)
        poly = random_polynomial(F251, 2, 123, rng)
        pts = [(i, poly.evaluate(i)) for i in range(1, 6)]
        res = berlekamp_welch(F251, pts, t=2, max_errors=1)
        assert res.polynomial == poly and res.bad_indices == frozenset()

    def test_e0_equals_interpolate(self):
        rng = RandomSource(6)
        poly = random_polynomial(F101, 3, 9, rng)
        pts = [(i, poly.evaluate(i)) for i in range(1, 5)]
        res = berlekamp_welch(F101, pts, t=3, max_errors=0)
        assert res.polynomial == interpolate(F101, pts)

    def test_two_corruptions_beyond_budget_fail(self):
        rng = RandomSource(7)
        for trial in range(20):
            poly = random_polynomial(F251, 2, rng.randbelow(251), rng)
            pts = [(i, poly.evaluate(i)) for i in range(1, 6)]
            pts[1] = (2, (pts[1][1] + 1 + rng.randbelow(249)) % 251)
            pts[3] = (4, (pts[3][1] + 1 + rng.randbelow(249)) % 251)
            oracle = _brute_force_bw(F251, pts, 2, 1)
            got = berlekamp_welch(F251, pts, t=2, max_errors=1)
            if oracle is None:
                assert got is None
            else:  # rare: corruption happens to mimic a valid codeword
                assert got is not None

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            berlekamp_welch(F101, [(1, 1), (2, 2)], t=1, max_errors=1)

    def test_agrees_with_brute_force(self):
        rng = RandomSource(8)
        for trial in range(25):
            poly = random_polynomial(F101, 2, rng.randbelow(101), rng)
            pts = [(i, poly.evaluate(i)) for i in range(1, 8)]
            bad = rng.randbelow(7)
            pts[bad] = (pts[bad][0], (pts[bad][1] + 1 + rng.randbelow(99)) % 101)
            res = berlekamp_welch(F101, pts, t=2, max_errors=2)
            oracle = _brute_force_bw(F101, pts, 2, 2)
            assert (res is None) == (oracle is None)
            if res is not None:
                assert res.polynomial == oracle[0]
        # 0 to e+1 planted errors at the full budget e = (n-t-1)//2, small
        # and large moduli, and honest polynomial 0 in the first trial of
        # each shape, where the remainder sequence can reach zero.
        for field in (F11, F_M31):
            for n, t in ((4, 1), (5, 2), (7, 2), (9, 3), (10, 4), (10, 1)):
                e = (n - t - 1) // 2
                for k in range(e + 2):
                    for trial in range(3):
                        poly = (Polynomial(field, [0]) if trial == 0 else
                                random_polynomial(field, t, rng.randbelow(
                                    field.p), rng))
                        pts = [(i, poly.evaluate(i)) for i in range(1, n + 1)]
                        idx = list(range(n))
                        for i in range(k):    # k distinct positions
                            j = i + rng.randbelow(n - i)
                            idx[i], idx[j] = idx[j], idx[i]
                            x, y = pts[idx[i]]
                            pts[idx[i]] = (x, (y + 1 + rng.randbelow(
                                field.p - 1)) % field.p)
                        res = berlekamp_welch(field, pts, t=t, max_errors=e)
                        oracle = _brute_force_bw(field, pts, t, e)
                        assert (res is None) == (oracle is None)
                        if res is not None:
                            assert (res.polynomial, res.bad_indices) == oracle
                            if k <= e:
                                assert res.polynomial == poly


class TestLemma1:
    def test_random_points_reach_full_degree(self):
        # Interpolating n = 2t+1 uniform values gives degree exactly 2t with
        # probability 1 - 1/p; assert the observed rate clears 1 - 2/p.
        rng = RandomSource(b"lemma1" + bytes(26))
        trials = 1000
        full = 0
        for _ in range(trials):
            pts = [(i, rng.randbelow(101)) for i in range(1, 6)]
            if interpolate(F101, pts).degree == 4:
                full += 1
        assert full / trials >= 1 - 2 / 101


class TestPolynomialAlgebra:
    def test_zero_degree_sentinel(self):
        assert Polynomial(F101, [0, 0]).degree == -1

    def test_divmod_exact(self):
        a = Polynomial(F101, [2, 3, 1])   # x^2+3x+2 = (x+1)(x+2)
        b = Polynomial(F101, [1, 1])
        q, r = a.divmod(b)
        assert r.degree == -1 and q.coeffs == [2, 1]

    @given(st.lists(st.integers(0, 100), max_size=5),
           st.lists(st.integers(0, 100), max_size=5),
           st.integers(0, 100))
    def test_mul_evaluates_pointwise(self, ca, cb, x):
        a, b = Polynomial(F101, ca), Polynomial(F101, cb)
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x) % 101
