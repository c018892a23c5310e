"""Comparison protocols: reduction oracle, traces, correctness, accounting."""
import pytest
from hypothesis import given, strategies as st

from obfw.compare import (
    ComparisonParams,
    DomainOverflow,
    ProtocolInvariantError,
    alg4_step_bits,
    alg4_total,
    alg5_step_bits,
    alg5_total,
    alg6_total,
    build_programs,
    build_shared_programs,
    circular_shift,
    circular_unshift,
    claim1_oracle,
    claim1_trace,
    run_malicious,
    run_mult_fanin,
    run_semi_honest,
    run_shared_inputs,
    select_n2,
    smallest_prime_above,
)
from obfw.net import add_to_send, rewrite_sends, run_session
from obfw.rng import RandomSource


def _sieve_primes(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = False
    return [i for i, f in enumerate(flags) if f]


def expect(a, b):
    return 1 if a >= b else 0


def disp(vec):
    """MSB-first string of a LSB-first bit vector, as the traces print it."""
    return "".join(str(x) for x in reversed(vec))


class TestClaim1:
    def test_worked_pair(self):
        t = claim1_trace(15, 13, 5)
        assert (t.f, t.s_alpha, t.s_alpha_prime) == (1, 5, 4)

    def test_equality_always_ge(self):
        for lbits in (4, 5, 8):
            for x in range(2 ** min(lbits, 6)):
                assert claim1_oracle(x, x, lbits) == 1

    def test_exhaustive_vs_direct_comparison(self):
        # Independent oracle: plain >=, checked over every pair at l <= 6.
        for lbits in (4, 5, 6):
            for a in range(2 ** lbits):
                for b in range(2 ** lbits):
                    assert claim1_oracle(a, b, lbits) == expect(a, b)

    def test_exhaustive_l8_sampled_full(self):
        for a in range(0, 256, 3):
            for b in range(0, 256, 3):
                assert claim1_oracle(a, b, 8) == expect(a, b)

    def test_domain_overflow(self):
        with pytest.raises(DomainOverflow):
            claim1_oracle(32, 1, 5)


class TestShifts:
    def test_zero_relocation(self):
        v = ["r0", "r1", "r2", 0, "r4", "r5"]
        assert circular_shift(v, 2).index(0) == 5

    def test_identity(self):
        v = [1, 2, 3, 4]
        assert circular_shift(v, 0) == v

    @given(st.lists(st.integers(), min_size=1, max_size=12), st.integers(-20, 20))
    def test_round_trip(self, v, amount):
        assert circular_unshift(circular_shift(v, amount), amount) == v


class TestSelectN2:
    def test_sieve_oracle(self):
        primes = _sieve_primes(5000)
        for lbits in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
            got = select_n2(lbits)
            ceil_log = (lbits - 1).bit_length()
            lo, hi = 1 << (ceil_log + 1), 1 << (ceil_log + 2)
            expected = next(p for p in primes if p > lo)
            assert got == expected and lo < got < hi

    def test_known_values(self):
        assert select_n2(32) == 67
        assert select_n2(8) == 17

    def test_exceeds_prefix_sum_bound(self):
        # The repeated prefix sum peaks at the integer 2l+1; a spurious zero
        # would need some gamma in [2, 2l+1] congruent to 1 mod N2, which
        # N2 >= 2l+1 rules out.  Equality does occur (l = 8 gives N2 = 17,
        # l = 128 gives 257), so strict inequality would be wrong there.
        for lbits in range(4, 1025):
            n2 = select_n2(lbits)
            assert n2 >= 2 * lbits + 1
            for gamma in range(2, 2 * lbits + 2):
                assert gamma % n2 != 1

    def test_modulus_is_smallest_prime_above_domain(self):
        primes = _sieve_primes(100000)
        for lbits in (4, 5, 8, 16):
            expected = next(p for p in primes if p > 2 ** lbits)
            assert ComparisonParams.for_bitwidth(lbits).N == expected

    def test_params_built_once_per_bit_width(self):
        assert ComparisonParams.for_bitwidth(16) is ComparisonParams.for_bitwidth(16)
        for _ in range(2):  # a failed search is not cached
            with pytest.raises(ValueError):
                ComparisonParams.for_bitwidth(3)


class TestSemiHonestTrace:
    def test_seeded_worked_trace(self):
        out = run_semi_honest(15, 13, 5, seed=3, force_pi=2, with_taps=True)
        taps = out.taps
        assert out.f == 1
        assert disp(taps.vector("e")) == "000101"
        assert list(reversed(taps.vector("gamma_prime"))) == [0, 0, 0, 1, 1, 2]
        assert list(reversed(taps.vector("gamma"))) == [0, 0, 0, 1, 2, 3]
        assert taps.vector("u").index(0) == 2      # pre-shift zero position
        assert taps.vector("v").index(0) == 4      # post-shift (pi = 2)
        assert disp(taps.vector("h_shifted")) == "010000"
        assert disp(taps.vector("h")) == "000100"
        assert disp(taps.vector("h_prime")) == "011011"
        assert taps.scalar("s_a") == 5
        assert taps.scalar("s_a_prime") == 4

    def test_v_has_unique_uniform_zero(self):
        # Exactly one zero; its position sweeps uniformly with pi.
        positions = set()
        for pi in range(6):
            out = run_semi_honest(15, 13, 5, seed=11, force_pi=pi, with_taps=True)
            v = out.taps.vector("v")
            assert v.count(0) == 1
            positions.add(v.index(0))
        assert positions == set(range(6))

    def test_alg5_same_trace_through_step7(self):
        out = run_semi_honest(15, 13, 5, seed=3, variant="alg5",
                              force_pi=2, with_taps=True)
        assert out.f == 1
        assert disp(out.taps.vector("e")) == "000101"
        assert out.taps.scalar("s_a_prime") == 4


class TestSemiHonestCorrectness:
    def test_equality_sweep(self):
        for x in range(0, 32, 5):
            assert run_semi_honest(x, x, 5, seed=x).f == 1
            assert run_semi_honest(x, x, 5, seed=x, variant="alg5").f == 1

    def test_exhaustive_l4_alg4(self):
        for a in range(16):
            for b in range(16):
                out = run_semi_honest(a, b, 4, seed=(a << 8) | b)
                assert out.f == expect(a, b), (a, b)

    def test_random_oracle_equivalence(self):
        rng = RandomSource(21)
        for lbits in (8, 16, 32):
            for _ in range(40):
                a = rng.randbelow(2 ** lbits)
                b = rng.randbelow(2 ** lbits)
                assert run_semi_honest(a, b, lbits, seed=rng.bytes(32)).f \
                    == claim1_oracle(a, b, lbits)

    def test_random_oracle_equivalence_alg5(self):
        rng = RandomSource(22)
        for lbits in (8, 16):
            for _ in range(30):
                a = rng.randbelow(2 ** lbits)
                b = rng.randbelow(2 ** lbits)
                out = run_semi_honest(a, b, lbits, seed=rng.bytes(32),
                                      variant="alg5")
                assert out.f == claim1_oracle(a, b, lbits)


class TestSharedInputs:
    def test_matches_semi_honest_semantics_m3(self):
        rng = RandomSource(23)
        for _ in range(30):
            a, b = rng.randbelow(256), rng.randbelow(256)
            assert run_shared_inputs(a, b, 8, m=3, seed=rng.bytes(32)).f \
                == claim1_oracle(a, b, 8)

    def test_m5_worked_pair(self):
        assert run_shared_inputs(15, 13, 5, m=5, seed=7).f == 1

    def test_equality_all_parties_share(self):
        for m in (3, 5):
            for x in (0, 7, 31):
                assert run_shared_inputs(x, x, 5, m=m, seed=x + m).f == 1

    def test_m7_random(self):
        rng = RandomSource(24)
        for _ in range(10):
            a, b = rng.randbelow(32), rng.randbelow(32)
            assert run_shared_inputs(a, b, 5, m=7, seed=rng.bytes(32)).f \
                == expect(a, b)


class TestHelperChecksMaskedBit:
    """Every variant's helper rejects a step-9 masked bit outside {0,1}."""

    @pytest.mark.parametrize("build", [
        lambda p: build_programs(200, 100, p, 1),
        lambda p: build_shared_programs(200, 100, p, 3, 1),
    ], ids=["alg4", "alg6"])
    def test_tampered_step9_raises(self, build):
        params = ComparisonParams.for_bitwidth(8)
        programs = build(params)
        programs[1] = rewrite_sends(
            programs[1], lambda cmd: add_to_send(cmd, 2) if cmd.step == 9 else cmd)
        with pytest.raises(ProtocolInvariantError):
            run_session(programs)


class TestMalicious:
    def test_seeded_mask_trace(self):
        out = run_malicious(15, 13, 5, t=1, seed=4, with_taps=True)
        taps = out.taps
        assert out.f == 1
        assert disp(taps.shamir_vector("e")) == "000101"
        assert taps.shamir_vector("v") == [0, 0, 1, 0, 0, 0]  # unique mask position
        assert disp(taps.shamir_vector("h")) == "011011"
        assert taps.shamir_scalar("s_a") == 5
        assert taps.shamir_scalar("s_a_prime") == 4
        # The triangle is the pairwise xor of e.
        coords = taps.plain["E_coords"]
        E = dict(zip(coords, taps.shamir_vector("E")))
        e_bits = [1, 0, 1, 0, 0, 0]
        assert all(E[(i, k)] == (e_bits[i] ^ e_bits[k]) for i, k in coords)

    def test_equality_sweep(self):
        for x in (0, 3, 15):
            assert run_malicious(x, x, 4, t=1, seed=x).f == 1

    def test_exhaustive_l4(self):
        for a in range(16):
            for b in range(16):
                out = run_malicious(a, b, 4, t=1, seed=(a << 8) | b)
                assert out.f == expect(a, b), (a, b)

    def test_t2_five_parties(self):
        rng = RandomSource(25)
        for _ in range(5):
            a, b = rng.randbelow(16), rng.randbelow(16)
            assert run_malicious(a, b, 4, t=2, seed=rng.bytes(32)).f == expect(a, b)

    def test_xor_gadget_all_cases(self):
        # x + y - 2xy on {0,1} equals xor, end to end through the sharing.
        from obfw.sharing import ShamirParams, shamir_share, shamir_reveal, run_shamir_mult
        sp = ShamirParams(37, 1, 3)
        rng = RandomSource(26)
        for x in (0, 1):
            for y in (0, 1):
                xs = shamir_share(x, sp, rng)
                ys = shamir_share(y, sp, rng)
                prod, _ = run_shamir_mult(xs, ys, rng)
                shares = [(a.value + b.value - 2 * c.value) % 37
                          for a, b, c in zip(xs, ys, prod)]
                from obfw.sharing import ShamirShare
                got = shamir_reveal([ShamirShare(i + 1, v, sp)
                                     for i, v in enumerate(shares)])
                assert got == (x ^ y)


class TestMultFanin:
    def _share_many(self, values, sp, rng):
        from obfw.sharing import shamir_share
        return [shamir_share(v, sp, rng.child(str(i))) for i, v in enumerate(values)]

    def test_identity_k1(self):
        from obfw.sharing import ShamirParams, shamir_reveal
        sp = ShamirParams(251, 1, 3)
        rng = RandomSource(27)
        vecs = self._share_many([9], sp, rng)
        shares, net = run_mult_fanin(vecs, seed=1)
        assert shamir_reveal(shares) == 9
        assert net.transcript.rounds() == 0  # no communication needed

    def test_absorbing_zero(self):
        from obfw.sharing import ShamirParams, shamir_reveal
        sp = ShamirParams(251, 1, 3)
        rng = RandomSource(28)
        vecs = self._share_many([5, 0, 7], sp, rng)
        shares, _ = run_mult_fanin(vecs, seed=2)
        assert shamir_reveal(shares) == 0

    def test_random_products_and_rounds(self):
        from obfw.sharing import ShamirParams, shamir_reveal
        import math
        sp = ShamirParams(251, 1, 3)
        rng = RandomSource(29)
        for k in range(2, 9):
            vals = [1 + rng.randbelow(250) for _ in range(k)]
            vecs = self._share_many(vals, sp, rng.child(f"k{k}"))
            shares, net = run_mult_fanin(vecs, seed=k)
            expected = 1
            for v in vals:
                expected = expected * v % 251
            assert shamir_reveal(shares) == expected
            assert net.transcript.rounds() == math.ceil(math.log2(k))


class TestAccounting:
    @pytest.mark.parametrize("lbits", [8, 16, 32, 64])
    def test_alg4_exact(self, lbits):
        out = run_semi_honest(3, 5, lbits, seed=1)
        tr = out.transcript
        assert tr.accounting_total() == alg4_total(lbits)
        assert dict(tr.step_acc_bits) == alg4_step_bits(lbits)
        assert tr.rounds() == 5

    @pytest.mark.parametrize("lbits", [8, 16, 32, 64])
    def test_alg5_exact(self, lbits):
        out = run_semi_honest(3, 5, lbits, seed=1, variant="alg5")
        tr = out.transcript
        assert tr.accounting_total() == alg5_total(lbits)
        assert dict(tr.step_acc_bits) == alg5_step_bits(lbits)
        assert tr.rounds() == 4

    @pytest.mark.parametrize("m", [3, 5, 7])
    @pytest.mark.parametrize("lbits", [8, 16])
    def test_alg6_exact(self, lbits, m):
        out = run_shared_inputs(3, 5, lbits, m=m, seed=1)
        assert out.transcript.accounting_total() == alg6_total(lbits, m)
        assert out.transcript.rounds() == 5

    def test_raw_exceeds_accounting_by_zn_widths(self):
        # Z_N elements serialize in l+1 bits but count l; everything else
        # is identical, so raw - accounting = number of Z_N elements.
        out = run_semi_honest(3, 5, 8, seed=1)
        tr = out.transcript
        assert tr.raw_total() - tr.accounting_total() == 2  # two [f]_N sends


class TestP3Blindness:
    """The helper's entire view must be distributed independently of (a, b)."""

    def _observe(self, a, b, salt, trials, lbits=4):
        W = lbits + 1
        zero_pos = [0] * W
        e_bits = [[0, 0] for _ in range(W)]
        hp_bits = [[0, 0] for _ in range(W)]
        f_vals = [0, 0]
        for i in range(trials):
            out = run_semi_honest(a, b, lbits, seed=f"{salt}/{i}", with_taps=True)
            taps = out.taps
            zero_pos[taps.plain["p3_zero_index"]] += 1
            for j, bit in enumerate(taps.plain["p3_e_masked"]):
                e_bits[j][bit] += 1
            for j, bit in enumerate(taps.plain["p3_hp_masked"]):
                hp_bits[j][bit] += 1
            f_vals[taps.plain["p3_f_masked"]] += 1
        flat = zero_pos + [c for pair in e_bits for c in pair] \
            + [c for pair in hp_bits for c in pair] + f_vals
        return [c + 1 for c in flat]  # +1 smoothing for empty cells

    def test_view_distribution_homogeneous_across_inputs(self):
        from scipy.stats import chi2_contingency
        trials = 300
        h1 = self._observe(15, 13, "x", trials)
        h2 = self._observe(3, 12, "y", trials)
        _, pvalue, _, _ = chi2_contingency([h1, h2])
        assert pvalue > 0.01

    def test_masked_bits_near_uniform(self):
        trials = 300
        h = self._observe(9, 2, "u", trials)
        W = 5
        e_pairs = h[W:W + 2 * W]
        for j in range(W):
            zeros, ones = e_pairs[2 * j], e_pairs[2 * j + 1]
            assert abs(zeros - ones) < trials * 0.35
