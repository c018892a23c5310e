"""Dual-sharing compiler: golden vectors, circuits, cheater detection."""
import math

import pytest

from obfw.dual import (
    Add,
    AddConst,
    CheatPlan,
    Circuit,
    CircuitMalformed,
    DualParams,
    DualShare,
    Input,
    Mul,
    MulConst,
    Output,
    VerdictStatus,
    additive_to_shamir_lift,
    deal_triples,
    delta_prime,
    dual_eval_party,
    dual_reveal_oracle,
    dual_share,
    plaintext_eval,
    run_output_check,
)
from obfw.field import PrimeField
from obfw.net import run_session, PROTO_DUAL_OUTPUT_CHECK
from obfw.rng import RandomSource
from obfw.sharing import AdditiveShare, ShamirShare

DP101 = DualParams(101, 2, 5)
DP11 = DualParams(11, 2, 5)
F101 = PrimeField(101)


def golden_duals():
    return dual_share(10, DP101, RandomSource(0), shamir_coeffs=(49, 3),
                      additive_randoms=(100, 51, 65, 82))


class TestDualShare:
    def test_golden_dual_vectors(self):
        duals = golden_duals()
        assert [d.shamir.value for d in duals] == [62, 10, 56, 99, 38]
        assert [d.additive.value for d in duals] == [100, 51, 65, 82, 15]

    def test_oracle_reveals_match(self):
        rng = RandomSource(1)
        for _ in range(10):
            secret = rng.randbelow(101)
            duals = dual_share(secret, DP101, rng)
            assert dual_reveal_oracle(duals) == (secret, secret)

    def test_zero_secret(self):
        duals = dual_share(0, DP101, RandomSource(2))
        assert dual_reveal_oracle(duals) == (0, 0)


class TestDeltaPrime:
    def test_p1_row(self):
        assert delta_prime(F101, 100, 1, [1, 2, 3, 4, 5]) == 20
        assert (62 - 20) % 101 == 42  # applying it yields the golden share of zero

    def test_zero(self):
        assert delta_prime(F101, 0, 3, [1, 2, 3, 4, 5]) == 0

    def test_index3_unit_shift(self):
        dp = delta_prime(F101, 1, 3, [1, 2, 3, 4, 5])
        assert dp == 91
        shares = [62, 10, 56, 99, 38]
        shares[2] = (shares[2] + dp) % 101
        pts = [(i + 1, v) for i, v in enumerate(shares)]
        from obfw.field import interpolate_at_zero
        assert interpolate_at_zero(F101, pts) == 11  # shifted by exactly 1


class TestLift:
    def test_golden_lift_polynomial(self):
        poly = additive_to_shamir_lift(F101, [100, 51, 65, 82, 15], [1, 2, 3, 4, 5])
        assert poly.coeffs == [10, 30, 99, 9, 74]  # 74x^4+9x^3+99x^2+30x+10

    def test_zero_shares(self):
        poly = additive_to_shamir_lift(F101, [0] * 5, [1, 2, 3, 4, 5])
        assert poly.degree == -1

    def test_constant_term_is_secret(self):
        rng = RandomSource(3)
        for _ in range(20):
            vals = [rng.randbelow(101) for _ in range(5)]
            poly = additive_to_shamir_lift(F101, vals, [1, 2, 3, 4, 5])
            assert poly.constant_term() == sum(vals) % 101
            assert poly.degree <= 4


class TestOutputCheckGolden:
    def test_honest_run(self):
        verdicts, _ = run_output_check(golden_duals())
        for v in verdicts.values():
            assert v.status is VerdictStatus.HONEST
            assert v.secret == 10
            assert v.reversal_polynomial.coeffs == [10, 3, 49]
            assert v.phase1_polynomial.coeffs == [0, 74, 51, 92, 27]

    def test_phase1_shares_reconstruct_zero(self):
        duals = golden_duals()
        f = F101
        idx = [1, 2, 3, 4, 5]
        shares = [(d.shamir.value - delta_prime(f, d.additive.value, d.index, idx))
                  % 101 for d in duals]
        assert shares == [42, 5, 100, 75, 23]
        from obfw.field import interpolate_at_zero
        assert interpolate_at_zero(f, list(zip(idx, shares))) == 0

    def _corrupt_both(self, duals, index, delta):
        f = F101
        out = list(duals)
        d = duals[index - 1]
        dp = delta_prime(f, delta, index, [1, 2, 3, 4, 5])
        out[index - 1] = DualShare(
            ShamirShare(index, (d.shamir.value + dp) % 101, d.shamir.params),
            AdditiveShare(index, (d.additive.value + delta) % 101, d.additive.params))
        return out

    def test_consistent_manipulation_detected(self):
        bad = self._corrupt_both(golden_duals(), 3, 1)
        assert [d.shamir.value for d in bad] == [62, 10, 46, 99, 38]
        assert [d.additive.value for d in bad] == [100, 51, 66, 82, 15]
        verdicts, _ = run_output_check(bad)
        for v in verdicts.values():
            assert v.status is VerdictStatus.DEGREE_VIOLATION
            assert v.secret == 11
            assert v.reversal_polynomial.coeffs == [11, 97, 78, 30, 48]
            assert v.suspects == frozenset({3})

    def test_phase2_lie_detected(self):
        verdicts, _ = run_output_check(golden_duals(),
                                       cheats={3: CheatPlan(phase2_delta=1)})
        # The liar's own verdict comes from its true values.
        liar = verdicts.pop(3)
        assert liar.status is VerdictStatus.HONEST and liar.secret == 10
        for idx, v in verdicts.items():
            assert v.status is VerdictStatus.DEGREE_VIOLATION
            assert v.secret == 11
            assert v.reversal_polynomial.coeffs == [11, 97, 78, 30, 48]
            assert v.suspects == frozenset({3})


def corruption_strategies(duals, party, delta, params):
    """The four single-party strategies; returns (modified duals, cheats)."""
    f = params.field()
    idx = list(range(1, params.n + 1))
    d = duals[party - 1]
    dp = delta_prime(f, delta, party, idx)
    shamir_only = list(duals)
    shamir_only[party - 1] = DualShare(
        ShamirShare(party, (d.shamir.value + dp) % params.p, d.shamir.params),
        d.additive)
    additive_only = list(duals)
    additive_only[party - 1] = DualShare(
        d.shamir,
        AdditiveShare(party, (d.additive.value + delta) % params.p,
                      d.additive.params))
    both = list(duals)
    both[party - 1] = DualShare(
        ShamirShare(party, (d.shamir.value + dp) % params.p, d.shamir.params),
        AdditiveShare(party, (d.additive.value + delta) % params.p,
                      d.additive.params))
    return [
        ("shamir_only", shamir_only, None),
        ("additive_only", additive_only, None),
        ("both_consistent", both, None),
        ("phase2_lie", list(duals), {party: CheatPlan(phase2_delta=delta)}),
    ]


class TestCheaterDetectionSweep:
    def test_exhaustive_single_party_z11(self):
        rng = RandomSource(b"sweep" + bytes(27))
        secret = 6
        detected = 0
        total = 0
        for party in range(1, 6):
            for delta in range(1, 11):
                duals = dual_share(secret, DP11, rng.child(f"{party}/{delta}"))
                for name, mod_duals, cheats in corruption_strategies(
                        duals, party, delta, DP11):
                    verdicts, _ = run_output_check(mod_duals, cheats=cheats)
                    total += 1
                    honest_views = [v for i, v in verdicts.items() if i != party]
                    assert all(v.status is not VerdictStatus.HONEST
                               for v in honest_views), (name, party, delta)
                    detected += 1
        assert detected == total == 5 * 10 * 4

    def test_no_false_alarms(self):
        rng = RandomSource(b"honest" + bytes(26))
        for trial in range(200):
            secret = rng.randbelow(11)
            duals = dual_share(secret, DP11, rng.child(str(trial)))
            verdicts, _ = run_output_check(duals)
            for v in verdicts.values():
                assert v.status is VerdictStatus.HONEST and v.secret == secret


class TestAttribution:
    def test_bw_names_cheater_n5_t1(self):
        # n = 5 >= 3t+1 = 4: the Reed-Solomon view can name the index.
        from obfw.field import berlekamp_welch, locate
        from obfw.sharing import ShamirParams, shamir_share
        rng = RandomSource(17)
        sp = ShamirParams(101, 1, 5)
        f = F101
        for trial in range(20):
            secret = rng.randbelow(101)
            poly_shares = shamir_share(secret, sp, rng.child(f"s{trial}"))
            pts = [(s.index, s.value) for s in poly_shares]
            bad_idx = 1 + rng.randbelow(5)
            delta = 1 + rng.randbelow(100)
            pts = [(x, (y + delta) % 101 if x == bad_idx else y) for x, y in pts]
            res = berlekamp_welch(f, pts, t=1, max_errors=1)
            assert res is not None and res.bad_indices == frozenset({bad_idx})
            # t - 1 = 0 colluders: the budget is the unique-decoding radius.
            assert locate(f, pts, 1, 0) == res

    def test_colluders_below_t_name_no_honest_party(self):
        # n = 2t+1: the last t-1 parties shift their phase-2 values so that
        # their reversal points lie on g = f + 5(X-1)...(X-t).  The word is
        # t-1 errors from f and two from g (at t+1 and t+2); the output
        # check's budget is one error, so it names the one colluder at
        # t = 2 and no one at t = 3 and 4.  At t = 4 a budget of two, still
        # within the unique-decoding radius, decodes g and names honest
        # parties 5 and 6.
        from obfw.field import berlekamp_welch
        for t, named in ((2, {5}), (3, set()), (4, set())):
            n = 2 * t + 1
            params = DualParams(101, t, n)
            f = params.field()
            indices = list(range(1, n + 1))
            duals = dual_share(23, params, RandomSource(31))
            cheats = {}
            for j in range(t + 3, n + 1):
                shift = 5 * math.prod(j - h for h in range(1, t + 1))
                cheats[j] = CheatPlan(phase2_delta=shift * f.inv(
                    delta_prime(f, 1, j, indices)) % f.p)
            verdicts, _ = run_output_check(duals, cheats=cheats)
            for j in range(1, t + 3):
                assert verdicts[j].status is VerdictStatus.DEGREE_VIOLATION
                assert verdicts[j].suspects == named
            if t == 4:
                word = verdicts[1].reversal_polynomial
                pts = [(j, word.evaluate(j)) for j in indices]
                assert berlekamp_welch(f, pts, t, 2).bad_indices == {5, 6}


class TestCircuits:
    def test_malformed_forward_reference(self):
        with pytest.raises(CircuitMalformed):
            Circuit((Add(0, 1), Input(1), Output(0)))

    def test_plaintext_oracle(self):
        circ = Circuit((Input(1), Input(2), Add(0, 1), Input(3), Mul(2, 3),
                        Output(4)))
        assert plaintext_eval(circ, {0: 18, 1: 54, 3: 4}, 251) == [37]

    def _run_circuit(self, circ, inputs, params, seed=0, triples=0):
        rng = RandomSource(seed)
        shared = {g: dual_share(v, params, rng.child(f"in/{g}"))
                  for g, v in inputs.items()}
        tri = deal_triples(triples, params, rng.child("tri")) if triples else None
        programs = {}
        for j in range(1, params.n + 1):
            mine = {g: shared[g][j - 1] for g in shared}
            programs[j] = dual_eval_party(
                j, params, circ, mine, rng.child(f"p{j}"),
                triples=tri[j - 1] if tri else None)
        net = run_session(programs, protocol_id=PROTO_DUAL_OUTPUT_CHECK)
        outs = {j: net.results[j] for j in net.results}
        return [
            [outs[j][k] for j in sorted(outs)]
            for k in range(len(circ.outputs()))
        ]

    def test_mul_circuit_n3(self):
        params = DualParams(251, 1, 3)
        circ = Circuit((Input(1), Input(2), Add(0, 1), Input(3), Mul(2, 3),
                        Output(4)))
        outs = self._run_circuit(circ, {0: 18, 1: 54, 3: 4}, params, seed=5)
        duals = outs[0]
        assert dual_reveal_oracle(duals) == (37, 37)

    def test_identity_circuit(self):
        circ = Circuit((Input(1), Output(0)))
        outs = self._run_circuit(circ, {0: 42}, DP101, seed=6)
        assert dual_reveal_oracle(outs[0]) == (42, 42)

    def test_const_circuit_on_zero(self):
        circ = Circuit((Input(1), AddConst(0, 5), Output(1)))
        outs = self._run_circuit(circ, {0: 0}, DP101, seed=7)
        assert dual_reveal_oracle(outs[0]) == (5, 5)

    def test_beaver_mul_n5(self):
        circ = Circuit((Input(1), Input(2), Mul(0, 1), Output(2)))
        outs = self._run_circuit(circ, {0: 33, 1: 44}, DP101, seed=8, triples=1)
        assert dual_reveal_oracle(outs[0]) == (33 * 44 % 101,) * 2

    def test_random_circuits_end_to_end(self):
        # Honest-path completeness over 10^3 seeded random circuits
        # (up to 20 gates): eval + output check equals the plaintext oracle.
        rng = RandomSource(b"circuits" + bytes(24))
        params = DualParams(251, 1, 3)
        for trial in range(1000):
            r = rng.child(str(trial))
            gates = [Input(1), Input(2)]
            n_mid = r.randbelow(18)
            for _ in range(n_mid):
                kind = r.randbelow(6)
                a = r.randbelow(len(gates))
                b = r.randbelow(len(gates))
                if kind == 0:
                    gates.append(Add(a, b))
                elif kind == 1:
                    gates.append(Mul(a, b))
                elif kind in (2, 3):
                    gates.append(AddConst(a, r.randbelow(251)))
                else:
                    gates.append(MulConst(a, r.randbelow(251)))
            gates.append(Output(len(gates) - 1))
            circ = Circuit(tuple(gates))
            inputs = {0: r.randbelow(251), 1: r.randbelow(251)}
            expected = plaintext_eval(circ, inputs, 251)[0]
            outs = self._run_circuit(circ, inputs, params, seed=trial)
            duals = outs[0]
            assert dual_reveal_oracle(duals) == (expected, expected)
            verdicts, _ = run_output_check(duals)
            assert all(v.status is VerdictStatus.HONEST and v.secret == expected
                       for v in verdicts.values())


class TestLiveness:
    def test_dropped_phase2_times_out(self):
        from obfw.net import PartyTimeout
        duals = golden_duals()

        def drop_phase2(cmd):
            return None if cmd.step == 2 else cmd

        results, net = run_output_check(duals, cheats={3: drop_phase2})
        assert net.errors and all(isinstance(e, PartyTimeout)
                                  for e in net.errors.values())
