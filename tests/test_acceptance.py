"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned in the assertions themselves; nothing is
deferred to calibration.
"""
import itertools
import math
import time

import pytest

from obfw.bloom import BloomFilter, BloomParams, FixedHashFamily, derive_params
from obfw.compare import (
    alg4_step_bits,
    alg4_total,
    alg5_total,
    alg6_total,
    claim1_oracle,
    run_malicious,
    run_semi_honest,
    run_shared_inputs,
)
from obfw.dual import (
    CheatPlan,
    DualParams,
    VerdictStatus,
    dual_share,
    run_output_check,
)
from obfw.field import PrimeField, interpolate, lagrange_zero_coefficients
from obfw.firewall import (
    FirewallConfig,
    ServerTamper,
    combinational_analysis,
    fw_init,
    influence_bound,
    parse_ipv4,
    reveal_combinations,
    run_eval_bw,
    run_eval_product,
    run_eval_sum,
)
from obfw.rng import RandomSource
from obfw.sharing import (
    AdditiveParams,
    AdditiveShare,
    Mult3Randoms,
    ShamirParams,
    ShamirShare,
    additive_reveal,
    additive_share,
    run_additive_mult3,
    run_shamir_mult,
    shamir_add,
    shamir_reveal,
    shamir_share,
)


def report(n, text):
    print(f"\n[criterion {n:2d}] PASS — {text}")


def test_criterion_1_share_arithmetic_golden():
    start = time.monotonic()
    sp = ShamirParams(251, 2, 5)
    rng = RandomSource(1)

    a = shamir_share(18, sp, rng, coeffs=(113, 88))
    assert [s.value for s in a] == [219, 144, 44, 170, 20]

    b = [ShamirShare(i + 1, v, sp) for i, v in enumerate([118, 14, 244, 55, 200])]
    summed = [shamir_add(x, y) for x, y in zip(a, b)]
    assert [s.value for s in summed] == [86, 158, 37, 225, 220]
    assert shamir_reveal(summed[:3]) == 72

    c = [ShamirShare(i + 1, v, sp) for i, v in enumerate([250, 26, 85, 176, 48])]
    forced_h = {1: (140, 75), 2: (114, 185), 3: (56, 96), 4: (183, 134),
                5: (233, 170)}
    prod, _ = run_shamir_mult(a, c, rng, forced_h=forced_h)
    assert [s.value for s in prod] == [1, 61, 1, 72, 23]
    assert shamir_reveal(prod[:3]) == 72

    ap = AdditiveParams(251, 3)
    u = [AdditiveShare(i + 1, v, ap) for i, v in enumerate([85, 67, 117])]
    v = [AdditiveShare(i + 1, w, ap) for i, w in enumerate([121, 63, 71])]
    forced = {
        1: Mult3Randoms(r_to={2: 236, 3: 233}, s_to={2: 184, 3: 85}, t_cycle=90),
        2: Mult3Randoms(r_to={1: 129, 3: 108}, s_to={1: 176, 3: 96}, t_cycle=245),
        3: Mult3Randoms(r_to={1: 16, 2: 56}, s_to={1: 20, 2: 71}, t_cycle=37),
    }
    uv, _ = run_additive_mult3(u, v, RandomSource(0), forced=forced)
    assert [s.value for s in uv] == [42, 1, 29]
    assert additive_reveal(uv) == 72

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"golden share, addition and multiplication vectors exact ({elapsed:.2f}s)")


def _golden_duals():
    return dual_share(10, DualParams(101, 2, 5), RandomSource(0),
                      shamir_coeffs=(49, 3), additive_randoms=(100, 51, 65, 82))


def test_criterion_2_output_check_golden():
    start = time.monotonic()
    f101 = PrimeField(101)
    duals = _golden_duals()
    assert [d.shamir.value for d in duals] == [62, 10, 56, 99, 38]
    assert [d.additive.value for d in duals] == [100, 51, 65, 82, 15]
    coeffs = lagrange_zero_coefficients(f101, [1, 2, 3, 4, 5])
    assert coeffs == [5, 91, 10, 96, 1]
    assert [f101.inv(c) for c in coeffs] == [81, 10, 91, 20, 1]

    verdicts, net = run_output_check(duals)
    for v in verdicts.values():
        assert v.status is VerdictStatus.HONEST and v.secret == 10
        assert v.phase1_polynomial.coeffs == [0, 74, 51, 92, 27]
        assert v.reversal_polynomial.coeffs == [10, 3, 49]

    # Both golden single-cheater scenarios.
    from obfw.dual import DualShare, delta_prime
    d3 = duals[2]
    dp = delta_prime(f101, 1, 3, [1, 2, 3, 4, 5])
    both = list(duals)
    both[2] = DualShare(
        ShamirShare(3, (d3.shamir.value + dp) % 101, d3.shamir.params),
        AdditiveShare(3, (d3.additive.value + 1) % 101, d3.additive.params))
    for mod_duals, cheats in ((both, None),
                              (duals, {3: CheatPlan(phase2_delta=1)})):
        verdicts, _ = run_output_check(mod_duals, cheats=cheats)
        for v in verdicts.values():
            assert v.status is VerdictStatus.DEGREE_VIOLATION
            assert v.secret == 11
            assert v.reversal_polynomial.coeffs == [11, 97, 78, 30, 48]
            assert v.suspects == frozenset({3})

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"output check: honest run and both cheating scenarios exact ({elapsed:.2f}s)")


def test_criterion_3_cheater_detection_soundness():
    from tests.test_dual import corruption_strategies
    start = time.monotonic()
    params = DualParams(11, 2, 5)
    rng = RandomSource(b"criterion3" + bytes(22))
    total = detected = 0
    for party in range(1, 6):
        for delta in range(1, 11):
            duals = dual_share(rng.randbelow(11), params,
                               rng.child(f"{party}.{delta}"))
            for name, mod_duals, cheats in corruption_strategies(
                    duals, party, delta, params):
                verdicts, _ = run_output_check(mod_duals, cheats=cheats)
                total += 1
                assert all(v.status is not VerdictStatus.HONEST
                           for i, v in verdicts.items() if i != party), \
                    (name, party, delta)
                detected += 1
    assert total == detected == 200

    false_alarms = 0
    for trial in range(1000):
        duals = dual_share(rng.randbelow(11), params, rng.child(f"h{trial}"))
        verdicts, _ = run_output_check(duals)
        if any(not v.honest for v in verdicts.values()):
            false_alarms += 1
    assert false_alarms == 0

    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(3, f"200/200 corruptions detected, 0/1000 false alarms ({elapsed:.1f}s)")


VARIANTS = {
    "alg4": lambda a, b, l, seed: run_semi_honest(a, b, l, seed=seed).f,
    "alg5": lambda a, b, l, seed: run_semi_honest(a, b, l, seed=seed,
                                                  variant="alg5").f,
    "alg6": lambda a, b, l, seed: run_shared_inputs(a, b, l, m=3, seed=seed).f,
    "alg7": lambda a, b, l, seed: run_malicious(a, b, l, t=1, seed=seed).f,
}


def test_criterion_4_comparison_correctness():
    start = time.monotonic()
    # Oracle ground truth, exhaustive at l <= 8.
    for lbits in (4, 5, 6, 7, 8):
        for a in range(2 ** lbits):
            for b in range(2 ** lbits):
                assert claim1_oracle(a, b, lbits) == (1 if a >= b else 0)

    # Every variant, exhaustive at l = 4 and l = 5.
    for lbits in (4, 5):
        for name, runner in VARIANTS.items():
            for a in range(2 ** lbits):
                for b in range(2 ** lbits):
                    got = runner(a, b, lbits, seed=(a << 16) | b)
                    assert got == claim1_oracle(a, b, lbits), (name, a, b)

    # 10^4 random pairs across l in {8, 16, 32}, weighted so the
    # multiplication-heavy malicious variant fits the time budget.
    budget = {"alg4": 1300, "alg5": 1300, "alg6": 700,
              "alg7": {8: 200, 16: 100, 32: 34}}
    rng = RandomSource(b"criterion4" + bytes(22))
    random_runs = 0
    for lbits in (8, 16, 32):
        for name, runner in VARIANTS.items():
            n = budget[name] if isinstance(budget[name], int) else budget[name][lbits]
            for _ in range(n):
                a = rng.randbelow(2 ** lbits)
                b = rng.randbelow(2 ** lbits)
                assert runner(a, b, lbits, seed=rng.bytes(32)) \
                    == claim1_oracle(a, b, lbits), (name, lbits, a, b)
                random_runs += 1
    assert random_runs >= 10_000

    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(4, f"4 variants == oracle: exhaustive l=4,5 plus {random_runs} "
              f"random pairs at l=8/16/32 ({elapsed:.1f}s)")


def test_criterion_5_comparison_traces():
    def disp(vec):
        return "".join(str(x) for x in reversed(vec))

    out = run_semi_honest(15, 13, 5, seed=3, force_pi=2, with_taps=True)
    taps = out.taps
    assert out.f == 1
    assert disp(taps.vector("e")) == "000101"
    assert list(reversed(taps.vector("gamma_prime"))) == [0, 0, 0, 1, 1, 2]
    assert list(reversed(taps.vector("gamma"))) == [0, 0, 0, 1, 2, 3]
    assert taps.vector("u").index(0) == 2          # pre-shift zero position
    assert taps.vector("v").index(0) == 4          # post-shift under pi = 2
    assert disp(taps.vector("h_shifted")) == "010000"
    assert disp(taps.vector("h")) == "000100"
    assert disp(taps.vector("h_prime")) == "011011"
    assert taps.scalar("s_a") == 5 and taps.scalar("s_a_prime") == 4

    out7 = run_malicious(15, 13, 5, t=1, seed=4, with_taps=True)
    t7 = out7.taps
    assert out7.f == 1
    e_bits = [1, 0, 1, 0, 0, 0]
    E = dict(zip(t7.plain["E_coords"], t7.shamir_vector("E")))
    assert all(E[(i, k)] == (e_bits[i] ^ e_bits[k])
               for i, k in t7.plain["E_coords"])  # the pairwise xor triangle
    assert t7.shamir_vector("v") == [0, 0, 1, 0, 0, 0]  # unique mask position
    assert disp(t7.shamir_vector("h")) == "011011"
    assert t7.shamir_scalar("s_a_prime") == 4

    report(5, "seeded traces of both comparison families reproduce every intermediate")


def test_criterion_6_complexity_reproduction():
    start = time.monotonic()
    for lbits in (8, 16, 32, 64):
        out = run_semi_honest(3, 5, lbits, seed=1)
        assert out.transcript.accounting_total() == alg4_total(lbits)
        assert dict(out.transcript.step_acc_bits) == alg4_step_bits(lbits)
        assert out.transcript.rounds() == 5

        out5 = run_semi_honest(3, 5, lbits, seed=1, variant="alg5")
        assert out5.transcript.accounting_total() == alg5_total(lbits)
        assert out5.transcript.rounds() == 4

        for m in (3, 5, 7):
            out6 = run_shared_inputs(3, 5, lbits, m=m, seed=1)
            assert out6.transcript.accounting_total() == alg6_total(lbits, m)
            assert out6.transcript.rounds() == 5

    elapsed = time.monotonic() - start
    report(6, f"Alg 4 per-step+total, Alg 5 and Alg 6 totals bit-exact, "
              f"rounds 5/4/5 ({elapsed:.1f}s)")


def test_criterion_7_firewall_end_to_end():
    start = time.monotonic()
    params = derive_params(10 ** 6, 0.001)
    assert abs(params.beta - 14.5e6) / 14.5e6 < 0.01
    assert params.kappa == 10

    bp = derive_params(1000, 0.01)
    cfg = FirewallConfig(scheme="additive", m=3, N=11, bloom=bp)
    rng = RandomSource(b"criterion7" + bytes(22))
    blacklist = [f"10.{i // 65536}.{(i // 256) % 256}.{i % 256}"
                 for i in range(1000)]
    flt, stores = fw_init(blacklist, cfg, rng)

    # Zero false negatives through the evaluation protocol itself.
    for line in blacklist:
        verdict, _ = run_eval_sum(stores, parse_ipv4(line))
        assert verdict.decision == "block", line

    # False-positive rate on 10^5 disjoint probes within [fp/3, 3 fp].
    hits = 0
    probes = 100_000
    for i in range(probes):
        addr = bytes([172, 16 + (i >> 16), (i >> 8) & 0xFF, i & 0xFF])
        if flt.query(addr):
            hits += 1
    rate = hits / probes
    assert bp.target_fp / 3 <= rate <= 3 * bp.target_fp, rate

    # Protocol decisions equal the plaintext filter on a probe sample.
    for i in range(0, probes, 50):
        addr = bytes([172, 16 + (i >> 16), (i >> 8) & 0xFF, i & 0xFF])
        verdict, _ = run_eval_sum(stores, addr)
        assert (verdict.decision == "block") == flt.query(addr)

    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(7, f"0 false negatives / 1000; fp rate {rate:.4f} within "
              f"[{bp.target_fp / 3:.4f}, {3 * bp.target_fp:.4f}]; "
              f"(1e6, 0.001) -> beta {params.beta}, kappa 10 ({elapsed:.1f}s)")


def test_criterion_8_combinational_detection():
    start = time.monotonic()
    f11 = PrimeField(11)
    sp = ShamirParams(11, 2, 7)  # degree t-1 = 2 under the t=3 convention
    rng = RandomSource(b"criterion8" + bytes(22))
    shares = {s.index: s.value for s in shamir_share(1, sp, rng)}
    reveals = reveal_combinations(f11, shares, 3)
    assert len(reveals) == 35
    tampered = dict(shares)
    tampered[5] = (tampered[5] + 4) % 11
    rep = combinational_analysis(reveal_combinations(f11, tampered, 3))
    minority = sum(1 for v in rep.reveals.values() if v != rep.value)
    assert rep.kind == "majority" and rep.value == 1
    assert minority <= 15 and len(rep.reveals) - minority >= 20
    assert rep.suspects == frozenset({5})

    for m in range(2, 10):
        for t in range(1, m + 1):
            for x in range(0, m):
                corrupt = set(range(1, x + 1))
                brute = sum(1 for combo in
                            itertools.combinations(range(1, m + 1), t)
                            if corrupt & set(combo))
                inf, total, safe = influence_bound(m, t, x)
                assert (inf, total) == (brute, math.comb(m, t))
                assert safe == (total > 2 * inf)

    from fractions import Fraction
    for t in range(1, 11):
        inf, total, _ = influence_bound(2 * t + 1, t, 1)
        assert Fraction(inf, total) == Fraction(t, 2 * t + 1)

    # BW path on the live firewall.
    toy_bp = BloomParams(beta=8, kappa=3, eta=1, target_fp=0.5)
    fam = FixedHashFamily({parse_ipv4("0.0.0.5"): [2, 4, 5]}, kappa=3)
    cfg = FirewallConfig(scheme="shamir", m=7, t=3, N=11, bloom=toy_bp)
    _, stores = fw_init(["0.0.0.5"], cfg, RandomSource(8), family=fam)
    honest, _ = run_eval_product(stores, parse_ipv4("0.0.0.5"), seed=1)
    bw, _ = run_eval_bw(stores, parse_ipv4("0.0.0.5"), seed=1,
                        tampers={6: ServerTamper(result_offset=2)})
    assert honest.decision == bw.decision == "block"
    assert bw.suspects == frozenset({6})

    elapsed = time.monotonic() - start
    report(8, f"35 reveals, <=15 influenced, 20 majority; influence bound "
              f"exhaustive m<=9; BW names the corrupt server ({elapsed:.1f}s)")


def _transport_pairs(seed_index):
    """Builders: protocol name -> (party set, program factory, out_norm)."""
    from obfw.compare import ComparisonParams, build_programs, build_shared_programs
    from obfw.compare.malicious import malicious_party
    from obfw.compare.params import bits_lsb
    from obfw.dual import output_check_party
    from obfw.firewall import (
        GATEWAY, ADMIN, admin_update_program, fw_update_pairs,
        gateway_product_program, gateway_sum_program, server_product_program,
        server_sum_program, server_update_program,
    )
    from obfw.sharing import additive_mult3_party, shamir_mult_party

    rng = RandomSource(b"crit9" + bytes(27)).child(seed_index)
    cp8 = ComparisonParams.for_bitwidth(8)
    a, b = rng.randbelow(256), rng.randbelow(256)
    sp3 = ShamirParams(251, 1, 3)
    ap3 = AdditiveParams(251, 3)

    defs = {}

    def mk_shamir_mult():
        x, y = rng.randbelow(251), rng.randbelow(251)
        xs = shamir_share(x, sp3, rng.child("x"))
        ys = shamir_share(y, sp3, rng.child("y"))
        def build():
            return {i: shamir_mult_party(i, sp3, [xs[i - 1].value],
                                         [ys[i - 1].value], RandomSource(seed_index).child(f"m{i}"))
                    for i in (1, 2, 3)}
        return build, lambda res: tuple(sorted((k, tuple(v)) for k, v in res.items()))
    defs["shamir_mult"] = ((1, 2, 3), *mk_shamir_mult(), 1)

    def mk_mult3():
        x, y = rng.randbelow(251), rng.randbelow(251)
        xs = additive_share(x, ap3, rng.child("u"))
        ys = additive_share(y, ap3, rng.child("v"))
        def build():
            return {i: additive_mult3_party(i, ap3, xs[i - 1].value,
                                            ys[i - 1].value,
                                            RandomSource(seed_index).child(f"a{i}"))
                    for i in (1, 2, 3)}
        return build, lambda res: tuple(sorted(res.items()))
    defs["additive_mult3"] = ((1, 2, 3), *mk_mult3(), 2)

    def mk_output_check():
        params = DualParams(251, 1, 3)
        duals = dual_share(rng.randbelow(251), params, rng.child("d"))
        def build():
            return {d.index: output_check_party(d.index, params, d)
                    for d in duals}
        return build, lambda res: tuple(sorted((k, v.status.value, v.secret)
                                               for k, v in res.items()))
    defs["dual_output_check"] = ((1, 2, 3), *mk_output_check(), 3)

    def mk_sc(variant):
        def build():
            return build_programs(a, b, cp8, seed_index, variant=variant)
        return build, lambda res: (res[1] + res[2]) % cp8.N
    defs["sc_semi_honest"] = ((1, 2, 3), *mk_sc("alg4"), 4)
    defs["sc_low_rounds"] = ((1, 2, 3), *mk_sc("alg5"), 5)

    def mk_sc6():
        def build():
            return build_shared_programs(a, b, cp8, 3, seed_index)
        return build, lambda res: sum(res.values()) % cp8.N
    defs["sc_shared_inputs"] = ((1, 2, 3), *mk_sc6(), 6)

    def mk_sc7():
        sp = ShamirParams(cp8.N, 1, 3)
        r2 = RandomSource(seed_index)
        abits = bits_lsb(a, 8)
        bbits = bits_lsb(b, 8)
        ash = [shamir_share(bit, sp, r2.child(f"a{i}")) for i, bit in enumerate(abits)]
        bsh = [shamir_share(bit, sp, r2.child(f"b{i}")) for i, bit in enumerate(bbits)]
        def build():
            return {j: malicious_party(j, sp, 8,
                                       [row[j - 1].value for row in ash],
                                       [row[j - 1].value for row in bsh],
                                       RandomSource(seed_index).child(f"p{j}"))
                    for j in (1, 2, 3)}
        def norm(res):
            shares = [ShamirShare(j, res[j], sp) for j in sorted(res)]
            return shamir_reveal(shares)
        return build, norm
    defs["sc_malicious"] = ((1, 2, 3), *mk_sc7(), 7)

    toy_bp = BloomParams(beta=8, kappa=3, eta=1, target_fp=0.5)
    fam = FixedHashFamily({bytes([0, 0, 0, 5]): [2, 4, 5],
                           bytes([0, 0, 0, 2]): [5, 0, 4]}, kappa=3)
    cfg_add = FirewallConfig(scheme="additive", m=3, N=11, bloom=toy_bp)
    _, stores_add = fw_init(["0.0.0.5"], cfg_add, rng.child("fwa"), family=fam)
    addr = bytes([0, 0, 0, 5]) if seed_index % 2 else bytes([0, 0, 0, 2])

    def mk_fw_sum():
        def build():
            progs = {GATEWAY: gateway_sum_program(cfg_add, addr, [1, 2, 3])}
            for s in stores_add:
                progs[s.party_index] = server_sum_program(s)
            return progs
        return build, lambda res: tuple(sorted(res[GATEWAY].items()))
    defs["fw_eval_sum"] = ((0, 1, 2, 3), *mk_fw_sum(), 9)

    cfg_sh = FirewallConfig(scheme="shamir", m=7, t=3, N=11, bloom=toy_bp)
    _, stores_sh = fw_init(["0.0.0.5"], cfg_sh, rng.child("fws"), family=fam)

    def mk_fw_product():
        def build():
            progs = {GATEWAY: gateway_product_program(cfg_sh, addr)}
            for s in stores_sh:
                progs[s.party_index] = server_product_program(
                    s, RandomSource(seed_index).child(f"fw{s.party_index}"))
            return progs
        return build, lambda res: tuple(sorted(res[GATEWAY].items()))
    defs["fw_eval_product"] = (tuple(range(8)), *mk_fw_product(), 10)

    def mk_fw_update():
        flt = BloomFilter(toy_bp, bytes(16), family=fam)
        pairs = fw_update_pairs(flt, cfg_add, addr, rng.child("upd"))
        count = len(pairs[0])
        def build():
            progs = {ADMIN: admin_update_program(cfg_add, pairs)}
            for s in stores_add:
                progs[s.party_index] = server_update_program(s, count)
            return progs
        return build, lambda res: tuple(sorted(res))
    defs["fw_update"] = ((255, 1, 2, 3), *mk_fw_update(), 11)

    def mk_vote():
        def build():
            progs = {GATEWAY: gateway_product_program(cfg_sh, addr)}
            for s in stores_sh:
                progs[s.party_index] = server_product_program(
                    s, RandomSource(seed_index).child(f"v{s.party_index}"),
                    broadcast=True)
            return progs
        def norm(res):
            gw = tuple(sorted(res[GATEWAY].items()))
            server_verdicts = tuple(res[i].decision for i in range(1, 8))
            return gw, server_verdicts
        return build, norm
    defs["majority_vote"] = (tuple(range(8)), *mk_vote(), 12)
    return defs


def test_criterion_9_transport_equivalence():
    from obfw.net import build_mesh, run_session, run_tcp_session
    start = time.monotonic()
    sessions_per_protocol = 100
    meshes = {}
    checked = {}
    try:
        for i in range(sessions_per_protocol):
            defs = _transport_pairs(i)
            for name, (parties, build, norm, proto) in defs.items():
                sim = run_session(build(), session_id=i, protocol_id=proto)
                assert not sim.errors, (name, sim.errors)
                if parties not in meshes:
                    meshes[parties] = build_mesh(list(parties))
                results, errors, tr = run_tcp_session(
                    meshes[parties], build(),
                    session_id=i * 16 + proto, protocol_id=proto)
                assert not errors, (name, errors)
                assert norm(results) == norm(sim.results), name
                assert tr.accounting_total() == sim.transcript.accounting_total(), name
                assert tr.rounds() == sim.transcript.rounds(), name
                assert tr.payload_digest() == sim.transcript.payload_digest(), name
                assert dict(tr.step_acc_bits) == dict(sim.transcript.step_acc_bits), name
                checked[name] = checked.get(name, 0) + 1
    finally:
        for mesh in meshes.values():
            for node in mesh.values():
                node.close()
    assert len(checked) == 11
    assert all(v == sessions_per_protocol for v in checked.values())
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(9, f"11 protocols x {sessions_per_protocol} sessions: identical "
              f"outputs, accounting and payloads over sim and TCP "
              f"({elapsed:.1f}s)")


def test_criterion_10_statistical_privacy():
    from scipy.stats import chi2_contingency
    start = time.monotonic()

    # Lemma 1 frequency test at p = 101 over 10^3 seeded trials.
    f101 = PrimeField(101)
    rng = RandomSource(b"criterion10" + bytes(21))
    full = sum(
        interpolate(f101, [(i, rng.randbelow(101)) for i in range(1, 6)]).degree == 4
        for _ in range(1000))
    assert full / 1000 >= 1 - 2 / 101

    # Helper-blindness: P3's observable view at l = 4 is homogeneous
    # across different input pairs (chi-square p-value > 0.01).
    def observe(a, b, salt, trials=250):
        W = 5
        zero_pos = [0] * W
        f_vals = [0, 0]
        ebits = [[0, 0] for _ in range(W)]
        for i in range(trials):
            out = run_semi_honest(a, b, 4, seed=f"{salt}/{i}", with_taps=True)
            zero_pos[out.taps.plain["p3_zero_index"]] += 1
            f_vals[out.taps.plain["p3_f_masked"]] += 1
            for j, bit in enumerate(out.taps.plain["p3_e_masked"]):
                ebits[j][bit] += 1
        return [c + 1 for c in zero_pos + f_vals
                + [x for pair in ebits for x in pair]]

    h1 = observe(15, 13, "p3a")
    h2 = observe(3, 12, "p3b")
    _, pvalue, _, _ = chi2_contingency([h1, h2])
    assert pvalue > 0.01

    # Shamir t-subset uniformity: fixed 2-subset distribution is
    # indistinguishable between two fixed secrets (p = 11).
    sp = ShamirParams(11, 2, 5)
    tables = []
    for secret in (3, 7):
        counts = [[0] * 11 for _ in range(11)]
        for i in range(3000):
            shares = shamir_share(secret, sp, rng.child(f"s{secret}/{i}"))
            counts[shares[0].value][shares[1].value] += 1
        tables.append([c for row in counts for c in row])
    _, pvalue2, _, _ = chi2_contingency(tables)
    assert pvalue2 > 0.01

    elapsed = time.monotonic() - start
    report(10, f"Lemma 1 rate ok; P3 view p={pvalue:.3f}; t-subset "
               f"p={pvalue2:.3f} ({elapsed:.1f}s)")
