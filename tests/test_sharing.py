"""Both sharing schemes: golden vectors, linearity, privacy structure."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from obfw.rng import RandomSource
from obfw.sharing import (
    AdditiveParams,
    AdditiveShare,
    BadParams,
    BadPartyCount,
    InsufficientShares,
    Mult3Randoms,
    ParamMismatch,
    ShamirParams,
    ShamirShare,
    additive_add,
    additive_add_const,
    additive_cmul,
    additive_collapse,
    additive_expand,
    additive_reveal,
    additive_share,
    run_additive_mult3,
    run_shamir_mult,
    shamir_add,
    shamir_add_const,
    shamir_cmul,
    shamir_reveal,
    shamir_share,
    share_columns,
)

SP251 = ShamirParams(251, 2, 5)
SP101 = ShamirParams(101, 2, 5)
AP251 = AdditiveParams(251, 3)
AP101 = AdditiveParams(101, 5)


def _shamir(values, params=SP251):
    return [ShamirShare(i + 1, v, params) for i, v in enumerate(values)]


def _additive(values, params=AP251):
    return [AdditiveShare(i + 1, v, params) for i, v in enumerate(values)]


class TestShamirShare:
    def test_golden_shares_mod_251(self):
        shares = shamir_share(18, SP251, RandomSource(0), coeffs=(113, 88))
        assert [s.value for s in shares] == [219, 144, 44, 170, 20]

    def test_golden_shares_mod_101(self):
        shares = shamir_share(10, SP101, RandomSource(0), coeffs=(49, 3))
        assert [s.value for s in shares] == [62, 10, 56, 99, 38]

    def test_round_trip_any_subset(self):
        rng = RandomSource(3)
        for trial in range(20):
            secret = rng.randbelow(251)
            shares = shamir_share(secret, SP251, rng)
            subset = [shares[i] for i in (0, 2, 4)]
            assert shamir_reveal(subset) == secret

    def test_bad_params(self):
        with pytest.raises(BadParams):
            ShamirParams(11, 5, 4)   # n < t+1
        with pytest.raises(BadParams):
            ShamirParams(11, 2, 11)  # n >= p


class TestShamirReveal:
    def test_reveal_golden_values(self):
        assert shamir_reveal(_shamir([219, 144, 44, 170, 20])[:3]) == 18
        assert shamir_reveal(_shamir([86, 158, 37, 225, 220])[:3]) == 72

    def test_insufficient(self):
        with pytest.raises(InsufficientShares):
            shamir_reveal(_shamir([219, 144, 44, 170, 20])[:2])


class TestShamirLocalOps:
    def test_addition_golden_vectors(self):
        a = _shamir([219, 144, 44, 170, 20])
        b = _shamir([118, 14, 244, 55, 200])
        summed = [shamir_add(x, y) for x, y in zip(a, b)]
        assert [s.value for s in summed] == [86, 158, 37, 225, 220]
        assert shamir_reveal(summed[:3]) == 72

    def test_cmul_identity(self):
        a = _shamir([219, 144, 44, 170, 20])
        assert [shamir_cmul(s, 1).value for s in a] == [s.value for s in a]

    def test_add_const_shifts_secret(self):
        rng = RandomSource(4)
        for _ in range(10):
            secret, c = rng.randbelow(251), rng.randbelow(251)
            shares = shamir_share(secret, SP251, rng)
            shifted = [shamir_add_const(s, c) for s in shares]
            assert shamir_reveal(shifted[:3]) == (secret + c) % 251

    def test_param_mismatch(self):
        with pytest.raises(ParamMismatch):
            shamir_add(ShamirShare(1, 3, SP251), ShamirShare(1, 3, SP101))

    @settings(max_examples=40)
    @given(st.integers(0, 250), st.integers(0, 250), st.integers(0, 250),
           st.integers(0, 2**32))
    def test_linearity(self, sa, sb, c, seed):
        rng = RandomSource(seed)
        a = shamir_share(sa, SP251, rng)
        b = shamir_share(sb, SP251, rng)
        assert shamir_reveal([shamir_add(x, y) for x, y in zip(a, b)][:3]) \
            == (sa + sb) % 251
        assert shamir_reveal([shamir_cmul(x, c) for x in a][:3]) == sa * c % 251


class TestShamirMult:
    def test_multiplication_golden_vectors(self):
        rng = RandomSource(1)
        a = shamir_share(18, SP251, rng, coeffs=(113, 88))
        c = _shamir([250, 26, 85, 176, 48])
        forced_h = {1: (140, 75), 2: (114, 185), 3: (56, 96),
                    4: (183, 134), 5: (233, 170)}
        prod, net = run_shamir_mult(a, c, rng, forced_h=forced_h)
        assert [s.value for s in prod] == [1, 61, 1, 72, 23]
        assert shamir_reveal(prod[:3]) == 72
        assert net.transcript.rounds() == 1

    def test_party1_combine_row(self):
        row = [5, -10, 10, -5, 1]
        vals = [247, 27, 127, 117, 108]
        assert sum(r * v for r, v in zip(row, vals)) % 251 == 1

    def test_multiplicative_identity(self):
        rng = RandomSource(2)
        for _ in range(10):
            x = rng.randbelow(251)
            a = shamir_share(x, SP251, rng)
            ones = shamir_share(1, SP251, rng)
            prod, _ = run_shamir_mult(a, ones, rng)
            assert shamir_reveal(prod[:3]) == x

    def test_product_stays_degree_t(self):
        from obfw.field import PrimeField, detect_degree
        rng = RandomSource(3)
        a = shamir_share(7, SP251, rng)
        b = shamir_share(9, SP251, rng)
        prod, _ = run_shamir_mult(a, b, rng)
        pts = [(s.index, s.value) for s in prod]
        assert detect_degree(PrimeField(251), pts, t=2).clean

    @pytest.mark.parametrize("row", [(140,), (140, 75, 9)])
    def test_forced_row_must_hold_t_coefficients(self, row):
        rng = RandomSource(4)
        a = shamir_share(7, SP251, rng)
        b = shamir_share(9, SP251, rng)
        with pytest.raises(ValueError):
            run_shamir_mult(a, b, rng, forced_h={2: row})


class TestAdditiveShare:
    def test_golden_additive_shares(self):
        shares = additive_share(18, AP251, RandomSource(0), randoms=(85, 67))
        assert [s.value for s in shares] == [85, 67, 117]

    def test_forced_randoms_close_the_sum(self):
        shares = additive_share(10, AP101, RandomSource(0),
                                randoms=(100, 51, 65, 82))
        assert shares[-1].value == 15

    def test_round_trip(self):
        rng = RandomSource(5)
        for _ in range(20):
            s = rng.randbelow(251)
            assert additive_reveal(additive_share(s, AP251, rng)) == s

    def test_reveal_values(self):
        assert additive_reveal(_additive([29, 154, 122])) == 54
        assert additive_reveal(_additive([100, 51, 65, 82, 15], AP101)) == 10
        assert additive_reveal(_additive([100, 51, 66, 82, 15], AP101)) == 11

    def test_all_shares_required(self):
        with pytest.raises(InsufficientShares):
            additive_reveal(_additive([29, 154, 122])[:2])


class TestAdditiveLocalOps:
    def test_additive_addition_golden(self):
        a = _additive([85, 67, 117])
        b = _additive([29, 154, 122])
        summed = [additive_add(x, y) for x, y in zip(a, b)]
        assert [s.value for s in summed] == [114, 221, 239]
        assert additive_reveal(summed) == 72

    def test_add_const_zero_identity(self):
        a = _additive([85, 67, 117])
        assert [additive_add_const(s, 0).value for s in a] == [85, 67, 117]

    @settings(max_examples=40)
    @given(st.integers(0, 250), st.integers(0, 250), st.integers(0, 2**32))
    def test_cmul_and_const(self, s, c, seed):
        rng = RandomSource(seed)
        shares = additive_share(s, AP251, rng)
        assert additive_reveal([additive_cmul(x, c) for x in shares]) == s * c % 251
        assert additive_reveal([additive_add_const(x, c) for x in shares]) \
            == (s + c) % 251


class TestCollapseExpand:
    def test_worked_example(self):
        shares = _additive([85, 67, 117])
        delta = additive_collapse(shares[2:])
        assert delta == 117
        residual_p2 = (shares[1].value + delta) % 251
        assert residual_p2 == 184
        assert (shares[0].value + residual_p2) % 251 == 18

    def test_expand_round_trip(self):
        rng = RandomSource(6)
        for m in (3, 5, 7):
            params = AdditiveParams(251, m)
            secret = rng.randbelow(251)
            shares = additive_share(secret, params, rng)
            delta = additive_collapse(shares[2:])
            p1, p2 = shares[0].value, (shares[1].value + delta) % 251
            own1, pieces1 = additive_expand(p1, 251, m, rng)
            own2, pieces2 = additive_expand(p2, 251, m, rng)
            rebuilt = (own1 + own2 +
                       sum((a + b) % 251 for a, b in zip(pieces1, pieces2))) % 251
            assert rebuilt == secret

    def test_collapse_reveal_oracle(self):
        rng = RandomSource(7)
        for _ in range(10):
            secret = rng.randbelow(251)
            shares = additive_share(secret, AdditiveParams(251, 5), rng)
            delta = additive_collapse(shares[2:])
            assert (shares[0].value + shares[1].value + delta) % 251 == secret


class TestAdditiveMult3:
    GOLDEN_FORCED = {
        1: Mult3Randoms(r_to={2: 236, 3: 233}, s_to={2: 184, 3: 85}, t_cycle=90),
        2: Mult3Randoms(r_to={1: 129, 3: 108}, s_to={1: 176, 3: 96}, t_cycle=245),
        3: Mult3Randoms(r_to={1: 16, 2: 56}, s_to={1: 20, 2: 71}, t_cycle=37),
    }

    def test_blinded_product_golden(self):
        u = _additive([85, 67, 117])
        v = _additive([121, 63, 71])
        out, _ = run_additive_mult3(u, v, RandomSource(0), forced=self.GOLDEN_FORCED)
        assert [s.value for s in out] == [42, 1, 29]
        assert additive_reveal(out) == 72

    def test_identity(self):
        rng = RandomSource(8)
        for _ in range(10):
            s = rng.randbelow(251)
            u = additive_share(s, AP251, rng)
            ones = additive_share(1, AP251, rng)
            out, _ = run_additive_mult3(u, ones, rng)
            assert additive_reveal(out) == s

    def test_random_products(self):
        rng = RandomSource(9)
        for _ in range(1000):
            a, b = rng.randbelow(251), rng.randbelow(251)
            u = additive_share(a, AP251, rng)
            v = additive_share(b, AP251, rng)
            out, _ = run_additive_mult3(u, v, rng)
            assert additive_reveal(out) == a * b % 251

    def test_three_parties_only(self):
        params = AdditiveParams(251, 4)
        rng = RandomSource(10)
        u = additive_share(5, params, rng)
        v = additive_share(6, params, rng)
        with pytest.raises(BadPartyCount):
            run_additive_mult3(u, v, rng)


class TestLinearity:
    def test_both_schemes_over_1000_instances(self):
        rng = RandomSource(b"linearity" + bytes(23))
        for _ in range(1000):
            sa, sb, c = rng.randbelow(251), rng.randbelow(251), rng.randbelow(251)
            a = shamir_share(sa, SP251, rng)
            b = shamir_share(sb, SP251, rng)
            assert shamir_reveal([shamir_add(x, y)
                                  for x, y in zip(a, b)][:3]) == (sa + sb) % 251
            assert shamir_reveal([shamir_cmul(x, c) for x in a][:3]) == sa * c % 251
            u = additive_share(sa, AP251, rng)
            v = additive_share(sb, AP251, rng)
            assert additive_reveal([additive_add(x, y)
                                    for x, y in zip(u, v)]) == (sa + sb) % 251
            assert additive_reveal([additive_cmul(x, c) for x in u]) == sa * c % 251


class TestPrivacyStructure:
    def test_shamir_t_subset_indistinguishable(self):
        # Chi-square homogeneity of a fixed 2-subset of shares between two
        # fixed secrets over many fresh sharings (p = 11).
        from scipy.stats import chi2_contingency
        params = ShamirParams(11, 2, 5)
        rng = RandomSource(b"privacy!" + bytes(24))
        samples = 4000
        tables = []
        for secret in (3, 7):
            counts = [[0] * 11 for _ in range(11)]
            for _ in range(samples):
                shares = shamir_share(secret, params, rng)
                counts[shares[0].value][shares[1].value] += 1
            tables.append([c for row in counts for c in row])
        _, pvalue, _, _ = chi2_contingency([tables[0], tables[1]])
        assert pvalue > 0.01

    def test_additive_missing_share_uniform(self):
        # Exhaustive for N=11, m=3: with any one share removed, the sum of
        # the rest takes every residue equally often across the randomness.
        N = 11
        for secret in range(N):
            for removed in range(3):
                counts = [0] * N
                for r1, r2 in itertools.product(range(N), repeat=2):
                    shares = [r1, r2, (secret - r1 - r2) % N]
                    del shares[removed]
                    counts[sum(shares) % N] += 1
                assert len(set(counts)) == 1  # perfectly flat


class TestShareColumns:
    """share_columns over child_draws deals, secret by secret, what the
    per-secret reference functions deal from the same child stream."""

    @staticmethod
    def _secrets(modulus, count=40):
        return RandomSource(f"secrets/{modulus}").randbelow_many(modulus, count)

    @pytest.mark.parametrize("modulus", [11, 2 ** 31 - 1, 4294967291])
    @pytest.mark.parametrize("m,t", [(3, 0), (5, 0), (3, 2), (5, 4)])
    def test_shamir_matches_shamir_share(self, modulus, m, t):
        secrets = self._secrets(modulus)
        rng = RandomSource(f"cols/shamir/{modulus}/{m}/{t}")
        labels = [f"s/{i}" for i in range(len(secrets))]
        cols = share_columns(secrets, rng.child_draws(labels, modulus, t),
                             modulus, m, shamir=True)
        params = ShamirParams(modulus, t, m)
        for i, secret in enumerate(secrets):
            ref = shamir_share(secret, params, rng.child(f"s/{i}"))
            assert [col[i] for col in cols] == [s.value for s in ref]

    @pytest.mark.parametrize("modulus", [2, 11, 2 ** 31 - 1, 4294967291])
    @pytest.mark.parametrize("m", [2, 12])
    def test_additive_matches_additive_share(self, modulus, m):
        secrets = self._secrets(modulus)
        rng = RandomSource(f"cols/additive/{modulus}/{m}")
        labels = [f"s/{i}" for i in range(len(secrets))]
        cols = share_columns(secrets, rng.child_draws(labels, modulus, m - 1),
                             modulus, m, shamir=False)
        params = AdditiveParams(modulus, m)
        for i, secret in enumerate(secrets):
            ref = additive_share(secret, params, rng.child(f"s/{i}"))
            assert [col[i] for col in cols] == [s.value for s in ref]

    @pytest.mark.parametrize("p,t", [(11, 1), (2 ** 31 - 1, 2)])
    def test_deal_triples_matches_per_triple_reference(self, p, t):
        from obfw.dual import DualParams, DualShare, deal_triples
        params = DualParams(p, t, 2 * t + 1)
        per_party = deal_triples(6, params, RandomSource(f"tri/{p}"))
        rng = RandomSource(f"tri/{p}")
        for k in range(6):
            a, b = rng.randbelow(p), rng.randbelow(p)
            for name, secret in (("a", a), ("b", b), ("c", a * b % p)):
                # A dual sharing draws its Shamir shares, then its additive
                # shares, from the one child stream.
                child = rng.child(f"tri/{name}/{k}")
                sh = shamir_share(secret, params.shamir(), child)
                ad = additive_share(secret, params.additive(), child)
                for i, triple in enumerate(party[k] for party in per_party):
                    assert getattr(triple, name) == DualShare(sh[i], ad[i])

    def test_dual_share_forced_counts(self):
        from obfw.dual import DualParams, dual_share
        params = DualParams(251, 2, 5)
        with pytest.raises(ValueError):
            dual_share(3, params, RandomSource(0), shamir_coeffs=(1,))
        with pytest.raises(BadParams):
            dual_share(3, params, RandomSource(0), additive_randoms=(1, 2, 3))

    @pytest.mark.parametrize("lbits,m", [(4, 3), (16, 3), (16, 5)])
    def test_share_bits_among_matches_per_bit_draws(self, lbits, m):
        from obfw.compare.params import bits_lsb
        from obfw.compare.semi_honest import share_bits_among
        value = 0xB5A3 % (1 << lbits)
        rng = RandomSource(f"bits/{lbits}/{m}")
        expected = [[0] * lbits for _ in range(m)]
        for i, bit in enumerate(bits_lsb(value, lbits)):
            acc = 0
            for party in range(m - 1):
                expected[party][i] = rng.randbelow(2)
                acc ^= expected[party][i]
            expected[m - 1][i] = bit ^ acc
        got = share_bits_among(value, lbits, m, RandomSource(f"bits/{lbits}/{m}"))
        assert got == expected
