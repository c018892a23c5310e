"""Firewall: initialization, evaluation variants, detection, updates."""
import hashlib
import itertools
import math
import os
import subprocess
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import obfw
from obfw import firewall
from obfw.bloom import BloomFilter, BloomParams, FixedHashFamily, derive_params
from obfw.firewall import (
    BadConfig,
    EvalVerdict,
    FirewallConfig,
    IoError,
    ServerTamper,
    ServerTimeout,
    ShareStore,
    combinational_analysis,
    decide_bw,
    decide_product,
    decide_sum,
    deduce_from_products,
    deduce_from_sums,
    fw_init,
    fw_update_pairs,
    influence_bound,
    majority_vote,
    parse_ipv4,
    reveal_combinations,
    reveal_position,
    run_eval_bw,
    run_eval_product,
    run_eval_sum,
    run_product_with_vote,
    run_update,
)
from obfw.field import (PrimeField, berlekamp_welch, interpolate_at_zero,
                        lagrange_zero_coefficients)
from obfw.rng import RandomSource
from obfw.sharing import AdditiveParams, additive_share, shamir_share

TOY_BP = BloomParams(beta=8, kappa=3, eta=1, target_fp=0.5)


def toy_family():
    return FixedHashFamily({
        parse_ipv4("0.0.0.5"): [2, 4, 5],
        parse_ipv4("0.0.0.2"): [5, 0, 4],
        parse_ipv4("0.0.0.7"): [1, 3, 6],
    }, kappa=3)


def toy_stores(scheme="additive", m=3, t=0, seed=0):
    cfg = FirewallConfig(scheme=scheme, m=m, N=11, t=t, bloom=TOY_BP)
    flt, stores = fw_init(["0.0.0.5"], cfg, RandomSource(seed),
                          family=toy_family())
    return cfg, flt, stores


class TestAddressParsing:
    def test_round_trip(self):
        assert parse_ipv4("10.0.0.255") == bytes([10, 0, 0, 255])

    def test_rejects_garbage(self):
        for bad in ("1.2.3", "1.2.3.4.5", "a.b.c.d", "256.1.1.1", "01.2.3.4"):
            with pytest.raises(ValueError):
                parse_ipv4(bad)

    @pytest.mark.parametrize("bad", ["\u0661\u0660.0.0.1", "10.0.0.\uff11",
                                     "10.\u0968.0.1"])
    def test_rejects_non_ascii_digits(self, bad):
        # Arabic-Indic, fullwidth and Devanagari digits pass str.isdigit.
        with pytest.raises(ValueError):
            parse_ipv4(bad)


class TestInit:
    def test_toy_filter_positions(self):
        _, _, stores = toy_stores()
        revealed = [reveal_position(stores, i) for i in range(8)]
        assert revealed == [0, 0, 1, 0, 1, 1, 0, 0]

    def test_shamir_positions(self):
        _, _, stores = toy_stores(scheme="shamir", m=7, t=3)
        revealed = [reveal_position(stores, i) for i in range(8)]
        assert revealed == [0, 0, 1, 0, 1, 1, 0, 0]

    def test_empty_blacklist_all_zero(self):
        cfg = FirewallConfig(scheme="additive", m=3, N=11, bloom=TOY_BP)
        _, stores = fw_init([], cfg, RandomSource(1), family=toy_family())
        assert all(reveal_position(stores, i) == 0 for i in range(8))

    def test_config_validation(self):
        with pytest.raises(BadConfig):
            FirewallConfig(scheme="additive", m=3, N=3,
                           bloom=BloomParams(beta=8, kappa=3, eta=1, target_fp=0.5))
        with pytest.raises(BadConfig):
            FirewallConfig(scheme="shamir", m=3, N=11, t=0, bloom=TOY_BP)
        for N, m in ((12, 3), (11, 11)):    # composite N; m not below N
            with pytest.raises(BadConfig):
                FirewallConfig(scheme="shamir", m=m, N=N, t=2, bloom=TOY_BP)

    def test_modulus_must_fit_a_share_column(self):
        FirewallConfig(scheme="additive", m=3, N=2 ** 32 - 1, bloom=TOY_BP)
        for N in (2 ** 32, 4294967311):
            with pytest.raises(BadConfig):
                FirewallConfig(scheme="additive", m=3, N=N, bloom=TOY_BP)


DEAL_MODULI = [11, 257, 65537, 2 ** 31 - 1, 4294967291]
DEAL_SHAPES = [("additive", 2, 0), ("additive", 3, 0), ("additive", 12, 0),
               ("shamir", 3, 2), ("shamir", 3, 3), ("shamir", 12, 2),
               ("shamir", 12, 12)]


def reference_shares(cfg, rng, label, bits):
    """Per-position sharings through the protocol share functions."""
    out = []
    for pos, bit in bits:
        child = rng.child(f"{label}/{pos}")
        if cfg.scheme == "additive":
            shares = additive_share(bit, AdditiveParams(cfg.N, cfg.m), child)
        else:
            shares = shamir_share(bit, cfg.shamir_params(), child)
        out.append([s.value for s in shares])
    return out


class TestDeal:
    """fw_init and fw_update_pairs deal what additive_share and
    shamir_share would, position by position."""

    @pytest.mark.parametrize("N", DEAL_MODULI)
    @pytest.mark.parametrize("scheme,m,t", DEAL_SHAPES)
    def test_columns_match_per_position_sharing(self, N, scheme, m, t,
                                                tmp_path):
        if scheme == "shamir":
            m = min(m, N - 1)               # Shamir needs m < N
            t = min(t, m)
        cfg = FirewallConfig(scheme=scheme, m=m, N=N, t=t,
                             bloom=derive_params(12, 0.1))
        seed = f"deal/{scheme}/{m}/{t}/{N}"
        blacklist = [f"10.1.{i}.{i * 7}" for i in range(12)]
        flt, stores = fw_init(blacklist, cfg, RandomSource(seed))
        beta = cfg.bloom.beta
        expected = reference_shares(
            cfg, RandomSource(seed), "pos",
            [(pos, flt.bit(pos)) for pos in range(beta)])
        for i, store in enumerate(stores):
            assert type(store.values) is array and store.values.typecode == "I"
            assert list(store.values) == [row[i] for row in expected]
        stores[-1].save(str(tmp_path / "last.share"))
        back = ShareStore.load(str(tmp_path / "last.share"))
        assert type(back.values) is array and back.values == stores[-1].values

        addr = parse_ipv4("192.0.2.77")
        per_server = fw_update_pairs(flt, cfg, addr, RandomSource(seed + "/u"))
        positions = sorted(set(flt.hash_indices(addr)))
        expected = reference_shares(cfg, RandomSource(seed + "/u"), "upd",
                                    [(pos, 1) for pos in positions])
        for i, pairs in enumerate(per_server):
            assert pairs == [(pos, row[i]) for pos, row in zip(positions, expected)]

    @pytest.mark.parametrize("scheme,m,t", [("additive", 3, 0),
                                            ("shamir", 5, 2)])
    def test_columns_match_across_chunks(self, scheme, m, t):
        cfg = FirewallConfig(scheme=scheme, m=m, N=2 ** 31 - 1, t=t,
                             bloom=derive_params(1000, 0.01))
        beta = cfg.bloom.beta
        assert beta > 2 * firewall._DEAL_CHUNK
        seed = f"chunks/{scheme}"
        flt, stores = fw_init([f"10.2.{i}.1" for i in range(200)], cfg,
                              RandomSource(seed))
        expected = reference_shares(
            cfg, RandomSource(seed), "pos",
            [(pos, flt.bit(pos)) for pos in range(beta)])
        for i, store in enumerate(stores):
            assert list(store.values) == [row[i] for row in expected]


class TestEvalSum:
    def test_toy_filter_miss(self):
        _, _, stores = toy_stores()
        v, net = run_eval_sum(stores, parse_ipv4("0.0.0.2"))
        assert v.decision == "forward" and v.value == 2
        assert net.transcript.rounds() == 1

    def test_blacklisted_blocks(self):
        _, _, stores = toy_stores()
        v, _ = run_eval_sum(stores, parse_ipv4("0.0.0.5"))
        assert v.decision == "block" and v.value == 3

    def test_payload_bits(self):
        cfg, _, stores = toy_stores()
        _, net = run_eval_sum(stores, parse_ipv4("0.0.0.5"))
        width = (cfg.N - 1).bit_length()
        assert net.transcript.accounting_total() == cfg.m * (32 + width)

    def test_additive_requires_all_servers(self):
        _, _, stores = toy_stores()
        with pytest.raises(ServerTimeout):
            run_eval_sum(stores, parse_ipv4("0.0.0.5"), dead=frozenset({2}))

    def test_shamir_tolerates_missing(self):
        _, _, stores = toy_stores(scheme="shamir", m=7, t=3)
        v, _ = run_eval_sum(stores, parse_ipv4("0.0.0.5"), dead=frozenset({6, 7}))
        assert v.decision == "block"

    def test_decision_matches_plaintext_filter(self):
        bp = derive_params(200, 0.02)
        cfg = FirewallConfig(scheme="additive", m=3, N=11, bloom=bp)
        rng = RandomSource(b"equiv" + bytes(27))
        blacklist = [f"10.1.{i // 256}.{i % 256}" for i in range(200)]
        flt, stores = fw_init(blacklist, cfg, rng)
        for i in range(500):
            addr = bytes([11, 2, i // 256, i % 256])
            v, _ = run_eval_sum(stores, addr)
            assert (v.decision == "block") == flt.query(addr)

    @pytest.mark.parametrize("scheme,m,t", [("additive", 3, 0),
                                            ("shamir", 5, 3)])
    def test_sum_outside_count_range_alerts(self, scheme, m, t):
        # Honest stores count at most kappa set positions; a tampered
        # additive share moves sigma out of [0, kappa].  A tampered Shamir
        # share moves the reveals of the 6 of C(5, 3) = 10 subsets that hold
        # it, so no sigma has a strict majority.
        cfg = FirewallConfig(scheme=scheme, m=m, t=t, N=2 ** 31 - 1,
                             bloom=derive_params(50, 0.01))
        _, stores = fw_init(["10.0.0.1"], cfg, RandomSource(7))
        tamper = {1: ServerTamper(result_offset=1000)}
        for addr in ("10.0.0.1", "10.0.0.2"):
            honest, _ = run_eval_sum(stores, parse_ipv4(addr))
            assert honest.decision in ("block", "forward")
            v, _ = run_eval_sum(stores, parse_ipv4(addr), tampers=tamper)
            assert v.decision == "alert"
            if scheme == "additive":
                assert v.value > cfg.bloom.kappa
            else:
                assert v.value is None and v.suspects == frozenset()


@pytest.fixture(scope="module")
def cheat_filter():
    """Shamir stores with m = 5, t = 2, plus one blacklisted and one fresh
    address."""
    cfg = FirewallConfig(scheme="shamir", m=5, t=2, N=2 ** 31 - 1,
                         bloom=derive_params(200, 0.01))
    blacklist = [f"10.5.{i // 256}.{i % 256}" for i in range(200)]
    flt, stores = fw_init(blacklist, cfg, RandomSource(b"cheat" + bytes(27)))
    fresh = next(a for a in (parse_ipv4(f"192.0.2.{i}") for i in range(256))
                 if not flt.query(a))
    return cfg, stores, (parse_ipv4(blacklist[0]), fresh)


def cheat_offsets(cfg, j):
    """-1, and -1/L_j(0) with L_j(0) party j's weight over points 1..m."""
    f = cfg.field()
    weight = lagrange_zero_coefficients(f, range(1, cfg.m + 1))[j - 1]
    return [cfg.N - 1, cfg.N - f.inv(weight)]


class TestShamirSumCheater:
    """Shamir sum mode reads every response: a server that offsets its
    sigma share is named once 2t or more servers answer, and caught
    without a name once more than t do."""

    @pytest.mark.parametrize("offset", [0, 1], ids=["minus_one", "minus_inv_weight"])
    @pytest.mark.parametrize("cheater", range(1, 6))
    def test_every_cheater_is_named(self, cheat_filter, cheater, offset):
        cfg, stores, addrs = cheat_filter
        delta = cheat_offsets(cfg, cheater)[offset]
        for addr in addrs:
            honest, _ = run_eval_sum(stores, addr)
            v, _ = run_eval_sum(stores, addr,
                                tampers={cheater: ServerTamper(delta)})
            assert v.decision == "alert"
            assert v.suspects == frozenset({cheater})
            assert v.value == honest.value     # the majority's sigma

    @pytest.mark.parametrize("cheater", range(1, 6))
    def test_one_dead_server_alerts_without_suspects(self, cheat_filter,
                                                     cheater):
        # 4 = 2t servers answer: the decoder's budget is one error, so the
        # alert names exactly the cheater and carries the honest sigma.
        cfg, stores, addrs = cheat_filter
        for addr in addrs:
            honest, _ = run_eval_sum(stores, addr)
            for delta in cheat_offsets(cfg, cheater):
                for dead in set(range(1, 6)) - {cheater}:
                    v, _ = run_eval_sum(stores, addr, dead=frozenset({dead}),
                                        tampers={cheater: ServerTamper(delta)})
                    assert v.decision == "alert"
                    assert v.suspects == frozenset({cheater})
                    assert v.value == honest.value


class TestNoMajorityAlerts:
    """Cheats past the decoder's budget: an alert naming no one, at the
    gateway and in every honest server's local verdict.  Two servers with
    different offsets at m/t = 5/2 also leave no majority among the C(5, 2)
    reveals."""

    def test_product(self, cheat_filter):
        _, stores, addrs = cheat_filter
        for addr in addrs:
            v, _ = run_eval_product(stores, addr, seed=1, tampers={
                1: ServerTamper(1), 2: ServerTamper(2)})
            assert v.decision == "alert"
            assert v.suspects == frozenset() and v.value is None

    def test_vote(self, cheat_filter):
        _, stores, addrs = cheat_filter
        for addr in addrs:
            final, verdicts, _ = run_product_with_vote(
                stores, addr, seed=2,
                tampers={2: ServerTamper(5), 4: ServerTamper(7)})
            assert final.decision == "alert" and final.suspects == frozenset()
            assert len(verdicts) == 6
            # verdicts[0] is the gateway's, verdicts[j] server j's.  A
            # cheater reconstructs from its own true share, so it sees one
            # cheater: the other one.
            assert all(v.decision == "alert" and v.value is None
                       for j, v in enumerate(verdicts) if j not in (2, 4))
            assert verdicts[2].decision == verdicts[4].decision == "alert"
            assert verdicts[2].suspects == frozenset({4})
            assert verdicts[4].suspects == frozenset({2})

    def test_bw_past_its_budget(self, cheat_filter):
        # m = 5, t = 2: Berlekamp-Welch corrects one error, not two.
        _, stores, addrs = cheat_filter
        for addr in addrs:
            v, _ = run_eval_bw(stores, addr, seed=3, tampers={
                1: ServerTamper(1), 3: ServerTamper(1)})
            assert v == EvalVerdict("alert")

    @pytest.mark.parametrize("bit", [0, 1])
    def test_four_colluders_cannot_flip_the_bit(self, bit):
        # m/t = 11/5: servers 8..11 move their result shares onto
        # g = f + c(X-1)(X-2)(X-3)(X-4), which flips the bit.  The word is
        # 4 errors from f and 3 from g; the budget, min((11-5)//2,
        # 11-10+1) = 2, reaches neither, so no one is named and no bit
        # decoded.  A budget of 3 decodes g and names servers 5, 6 and 7.
        cfg = FirewallConfig(scheme="shamir", m=11, t=5, N=2 ** 31 - 1,
                             bloom=TOY_BP)
        f = cfg.field()
        c = (1 - 2 * bit) * f.inv(24) % cfg.N     # g(0) = f(0) + 24c = 1 - bit
        shares = {s.index: s.value for s in
                  shamir_share(bit, cfg.shamir_params(), RandomSource(11))}
        for x in (8, 9, 10, 11):
            shares[x] = (shares[x] + c * (x - 1) * (x - 2) * (x - 3) * (x - 4)) % cfg.N
        assert decide_product(cfg, shares) == EvalVerdict("alert")
        assert decide_bw(cfg, shares) == EvalVerdict("alert")


def test_bw_names_two_cheaters_within_budget():
    # m = 7, t = 3: the budget is two errors, so BW corrects the bit.
    _, _, stores = toy_stores(scheme="shamir", m=7, t=3)
    v, _ = run_eval_bw(stores, parse_ipv4("0.0.0.5"), seed=4,
                       tampers={2: ServerTamper(3), 6: ServerTamper(9)})
    assert v.decision == "block" and v.value == 1
    assert v.suspects == frozenset({2, 6})


PRODUCT_RUNNERS = {
    "product": run_eval_product,
    "bw": run_eval_bw,
    "vote": run_product_with_vote,
}


class TestProductConfigCheck:
    """Every product runner refuses what the product gateway refuses."""

    @pytest.mark.parametrize("runner", PRODUCT_RUNNERS)
    def test_additive_stores(self, runner):
        _, _, stores = toy_stores()
        with pytest.raises(BadConfig, match="Shamir"):
            PRODUCT_RUNNERS[runner](stores, parse_ipv4("0.0.0.5"))

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("runner", PRODUCT_RUNNERS)
    def test_too_few_servers(self, runner, m):
        _, _, stores = toy_stores(scheme="shamir", m=m, t=2)
        with pytest.raises(BadConfig, match="2t\\+1"):
            PRODUCT_RUNNERS[runner](stores, parse_ipv4("0.0.0.5"))


class TestEvalProduct:
    def test_blacklisted_blocks(self):
        _, _, stores = toy_stores(scheme="shamir", m=7, t=3)
        v, net = run_eval_product(stores, parse_ipv4("0.0.0.5"), seed=1)
        assert v.decision == "block" and v.value == 1
        assert net.transcript.rounds() == 1 + math.ceil(math.log2(TOY_BP.kappa))

    def test_clean_forwards(self):
        _, _, stores = toy_stores(scheme="shamir", m=7, t=3)
        v, _ = run_eval_product(stores, parse_ipv4("0.0.0.2"), seed=2)
        assert v.decision == "forward" and v.value == 0

    def test_single_tamper_alert_names_server(self):
        _, _, stores = toy_stores(scheme="shamir", m=7, t=3)
        for offset in (1, 5, 10):
            v, net = run_eval_product(
                stores, parse_ipv4("0.0.0.5"), seed=offset,
                tampers={4: ServerTamper(result_offset=offset)})
            assert v.decision == "alert"
            assert v.suspects == frozenset({4})
            assert v.value == 1  # the decoder corrects the one bad share
            # The paper's analysis of the same shares agrees.
            rep = combinational_analysis(reveal_combinations(
                stores[0].config.field(), net.results[firewall.GATEWAY], 3))
            agreeing = sum(1 for val in rep.reveals.values() if val == 1)
            assert len(rep.reveals) == 35 and agreeing == 20
            assert rep.suspects == v.suspects and rep.value == v.value

    def test_single_tamper_at_15_7_is_named_by_one_decoding(self, monkeypatch):
        # The verdict interpolates the 15 shares once and decodes; the
        # analysis would interpolate all C(15, 7) = 6435 reveal subsets.
        from obfw import field as field_module
        cfg = FirewallConfig(scheme="shamir", m=15, t=7, N=2 ** 31 - 1,
                             bloom=TOY_BP)
        shares = {s.index: s.value for s in
                  shamir_share(1, cfg.shamir_params(), RandomSource(15))}
        shares[9] = (shares[9] + 1) % cfg.N
        calls = []
        for module, name in ((field_module, "interpolate"),
                             (firewall, "interpolate_at_zero")):
            def counted(*args, real=getattr(module, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(module, name, counted)
        v = decide_product(cfg, shares)
        assert v == EvalVerdict("alert", value=1, suspects=frozenset({9}))
        assert calls == ["interpolate"]

    def test_requires_enough_servers(self):
        _, _, stores = toy_stores(scheme="shamir", m=5, t=3)
        with pytest.raises(BadConfig):
            run_eval_product(stores, parse_ipv4("0.0.0.5"))


class TestCombinational:
    def test_agreement(self):
        reveals = {(1, 2, 3): 1, (1, 2, 4): 1, (2, 3, 4): 1}
        rep = combinational_analysis(reveals)
        assert rep.kind == "agree" and rep.value == 1

    def test_single_cheater_counts(self):
        # Exhaustive offsets: the minority never exceeds C(6,2) = 15 of 35
        # and the suspect intersection is exactly the cheater.
        cfg, _, stores = toy_stores(scheme="shamir", m=7, t=3, seed=3)
        f = PrimeField(11)
        from obfw.sharing import shamir_share
        rng = RandomSource(9)
        shares = {s.index: s.value for s in shamir_share(1, cfg.shamir_params(), rng)}
        for cheater in range(1, 8):
            for offset in range(1, 11):
                tampered = dict(shares)
                tampered[cheater] = (tampered[cheater] + offset) % 11
                rep = combinational_analysis(reveal_combinations(f, tampered, 3))
                assert rep.kind == "majority"
                assert rep.value == 1
                assert rep.suspects == frozenset({cheater})
                minority = sum(1 for v in rep.reveals.values() if v != 1)
                assert minority <= 15

    def test_influence_bound_example(self):
        assert influence_bound(7, 3, 1) == (15, 35, True)

    def test_influence_zero_corrupt(self):
        assert influence_bound(9, 4, 0) == (0, math.comb(9, 4), True)

    def test_influence_matches_enumeration(self):
        for m in range(2, 10):
            for t in range(1, m + 1):
                for x in range(0, m):
                    corrupt = set(range(1, x + 1))
                    influenced = sum(
                        1 for combo in itertools.combinations(range(1, m + 1), t)
                        if corrupt & set(combo))
                    inf, total, safe = influence_bound(m, t, x)
                    assert inf == influenced
                    assert total == math.comb(m, t)
                    assert safe == (total > 2 * inf)

    def test_single_cheater_fraction(self):
        from fractions import Fraction
        for t in range(1, 11):
            inf, total, _ = influence_bound(2 * t + 1, t, 1)
            assert Fraction(inf, total) == Fraction(t, 2 * t + 1)


def per_subset_verdict(cfg, shares, top):
    """The Shamir verdict of the paper's analysis, with one interpolation
    per reveal subset: the reference the decoder's verdict is held to."""
    f = cfg.field()
    reveals = {combo: interpolate_at_zero(f, [(i, shares[i]) for i in combo])
               for combo in itertools.combinations(sorted(shares), cfg.t)}
    rep = combinational_analysis(reveals)
    decision = firewall._decision(rep.value, top) if rep.kind == "agree" else "alert"
    return EvalVerdict(decision, value=rep.value, suspects=rep.suspects)


class TestConsistencyFirstReveal:
    """The decoder's verdict against the per-subset analysis: the same
    decision, and the same value where both give one.  It names every
    suspect the analysis names and no server whose share is honest."""

    @pytest.mark.parametrize("m,t", [(3, 2), (5, 2), (5, 3), (6, 2), (7, 3),
                                     (9, 4)])
    def test_verdicts_equal_per_subset_path(self, m, t):
        N = 101
        cfg = FirewallConfig(scheme="shamir", m=m, t=t, N=N,
                             bloom=BloomParams(beta=20, kappa=3, eta=1,
                                               target_fp=0.5))
        rng = RandomSource(b"consistency-first" + bytes([m, t]))
        offsets = [{}, {1: 1}, {m: N - 1}, {2: 5}, {1: 1, 2: 2},
                   {2: 3, m: 3}]
        for secret in range(5):
            honest = {s.index: s.value
                      for s in shamir_share(secret, cfg.shamir_params(), rng)}
            for offset in offsets:
                shares = {i: (v + offset.get(i, 0)) % N
                          for i, v in honest.items()}
                for dead in [None, *range(1, m + 1)]:
                    live = {i: v for i, v in shares.items() if i != dead}
                    if len(live) < t:
                        continue
                    cheaters = {i for i in offset if i in live}
                    for decide, top in ((decide_sum, cfg.bloom.kappa),
                                        (decide_product, 1)):
                        got = decide(cfg, live)
                        ref = per_subset_verdict(cfg, live, top)
                        assert got.decision == ref.decision
                        assert ref.suspects <= got.suspects <= cheaters
                        assert None in (got.value, ref.value) or got.value == ref.value
                        if ref.decision != "alert":
                            assert got == ref

    def test_two_offsets_at_5_3_name_no_one(self):
        # The offsets lie one error from 52(X-3)(X-4), a degree-2
        # polynomial, so a budget of (5-3)//2 = 1 decodes the word to the
        # wrong polynomial and names honest server 1.  Five live servers
        # at t = 3 leave a budget of 0: the verdict names no one.
        cfg = FirewallConfig(scheme="shamir", m=5, t=3, N=101, bloom=TOY_BP)
        shares = {s.index: (s.value + {2: 3, 5: 3}.get(s.index, 0)) % 101
                  for s in shamir_share(4, cfg.shamir_params(), RandomSource(5))}
        wrong = berlekamp_welch(cfg.field(), sorted(shares.items()), 2, 1)
        assert wrong.bad_indices == frozenset({1})
        assert decide_product(cfg, shares) == EvalVerdict("alert")
        assert decide_sum(cfg, shares) == EvalVerdict("alert")


class TestBWPath:
    def test_honest_matches_product(self):
        _, _, stores = toy_stores(scheme="shamir", m=7, t=3)
        v1, _ = run_eval_product(stores, parse_ipv4("0.0.0.5"), seed=5)
        v2, _ = run_eval_bw(stores, parse_ipv4("0.0.0.5"), seed=5)
        assert v1.decision == v2.decision == "block"
        assert v2.suspects == frozenset()

    def test_one_corruption_recovered(self):
        _, _, stores = toy_stores(scheme="shamir", m=7, t=3)
        v, _ = run_eval_bw(stores, parse_ipv4("0.0.0.5"), seed=6,
                           tampers={3: ServerTamper(result_offset=4)})
        assert v.decision == "block" and v.suspects == frozenset({3})

    def test_beyond_budget_fails(self):
        from obfw.sharing import shamir_share
        # m = 5, degree 2 (t = 3): the budget is min((5-3)//2, 5-6+1) = 0
        # errors, so every two-corruption word fails: an alert with no value
        # and no suspects.  The oracle counts the words a budget of one
        # error would decode, always to a wrong polynomial.
        cfg = FirewallConfig(scheme="shamir", m=5, t=3, N=11, bloom=TOY_BP)
        f = PrimeField(11)
        sp = cfg.shamir_params()
        rng = RandomSource(13)
        imitated = 0
        for trial in range(40):
            shares = {s.index: s.value
                      for s in shamir_share(1, sp, rng.child(str(trial)))}
            shares[2] = (shares[2] + 1 + rng.randbelow(9)) % 11
            shares[5] = (shares[5] + 1 + rng.randbelow(9)) % 11
            # Brute-force oracle over all degree-<=2 candidates via 3-subsets
            from obfw.field import interpolate
            ok = any(
                sum(1 for x, y in shares.items()
                    if interpolate(f, [(i, shares[i]) for i in combo]).evaluate(x) == y) >= 4
                for combo in itertools.combinations(sorted(shares), 3))
            assert decide_bw(cfg, shares) == EvalVerdict("alert")
            imitated += ok
        assert imitated > 0


class TestMajorityVote:
    def test_unanimous(self):
        _, _, stores = toy_stores(scheme="shamir", m=7, t=3)
        final, verdicts, net = run_product_with_vote(
            stores, parse_ipv4("0.0.0.5"), seed=7)
        assert final.decision == "block"
        assert all(v.decision == "block" for v in verdicts)

    def test_one_liar_outvoted(self):
        _, _, stores = toy_stores(scheme="shamir", m=7, t=3)
        _, verdicts, _ = run_product_with_vote(
            stores, parse_ipv4("0.0.0.5"), seed=8)
        # verdicts[0] is the gateway's, verdicts[j] server j's.
        verdicts[2] = EvalVerdict("forward")
        final = majority_vote(verdicts)
        assert final.decision == "block"

    def test_split_two_two_no_majority(self):
        verdicts = [EvalVerdict("block"), EvalVerdict("block"),
                    EvalVerdict("forward"), EvalVerdict("forward")]
        assert majority_vote(verdicts) == EvalVerdict("alert")

    def test_broadcast_cost(self):
        cfg, _, stores = toy_stores(scheme="shamir", m=7, t=3)
        _, _, net_plain = run_product_with_vote(stores, parse_ipv4("0.0.0.5"),
                                                seed=9)
        _, net_product = run_eval_product(stores, parse_ipv4("0.0.0.5"), seed=9)
        width = (cfg.N - 1).bit_length()
        extra = net_plain.transcript.accounting_total() \
            - net_product.transcript.accounting_total()
        assert extra == cfg.m * (cfg.m - 1) * width
        assert net_plain.transcript.rounds() \
            == net_product.transcript.rounds() + 1


class TestUpdates:
    def test_update_then_block(self):
        cfg, flt, stores = toy_stores()
        run_update(stores, flt, parse_ipv4("0.0.0.7"), seed=10)
        v, _ = run_eval_sum(stores, parse_ipv4("0.0.0.7"))
        assert v.decision == "block"

    def test_update_matches_plaintext_insert(self):
        bp = derive_params(100, 0.02)
        cfg = FirewallConfig(scheme="additive", m=3, N=11, bloom=bp)
        rng = RandomSource(b"upd" + bytes(29))
        flt, stores = fw_init([f"10.9.0.{i}" for i in range(60)], cfg, rng)
        oracle = BloomFilter(bp, flt.master_key)
        oracle.bits = bytearray(flt.bits)
        addr = parse_ipv4("99.88.77.66")
        run_update(stores, flt, addr, seed=11)
        oracle.insert(addr)
        assert bytes(flt.bits) == bytes(oracle.bits)
        assert all(reveal_position(stores, i) == oracle.bit(i)
                   for i in range(bp.beta))

    def test_update_is_regression_free(self):
        # Every other probe's verdict is unchanged by an update.
        bp = derive_params(80, 0.05)
        cfg = FirewallConfig(scheme="additive", m=3, N=11, bloom=bp)
        rng = RandomSource(b"reg" + bytes(29))
        flt, stores = fw_init([f"10.3.0.{i}" for i in range(40)], cfg, rng)
        probes = [bytes([7, 7, i // 256, i % 256]) for i in range(300)]
        before = [run_eval_sum(stores, p)[0].decision for p in probes]
        run_update(stores, flt, parse_ipv4("10.3.0.7"), seed=12)  # re-add
        after = [run_eval_sum(stores, p)[0].decision for p in probes]
        assert before == after

    def test_shamir_update(self):
        cfg, flt, stores = toy_stores(scheme="shamir", m=7, t=3, seed=5)
        run_update(stores, flt, parse_ipv4("0.0.0.7"), seed=13)
        v, _ = run_eval_product(stores, parse_ipv4("0.0.0.7"), seed=14)
        assert v.decision == "block"


class TestDecisionEquivalence:
    def test_every_variant_matches_plaintext_on_10k_probes(self):
        # Sum, product and BW evaluations all agree with the plaintext
        # filter across 10^4 random probes against honest servers, and no
        # blacklisted address escapes any variant.
        bp = derive_params(40, 0.02)
        cfg = FirewallConfig(scheme="shamir", m=7, t=3, N=11, bloom=bp)
        rng = RandomSource(b"variants" + bytes(24))
        blacklist = [f"10.20.0.{i}" for i in range(40)]
        flt, stores = fw_init(blacklist, cfg, rng)

        for line in blacklist:
            addr = parse_ipv4(line)
            assert run_eval_sum(stores, addr)[0].decision == "block"
            assert run_eval_product(stores, addr, seed=addr)[0].decision == "block"
            assert run_eval_bw(stores, addr, seed=addr)[0].decision == "block"

        checked = 0
        for i in range(6000):
            addr = bytes([55, 44, (i >> 8) & 0xFF, i & 0xFF])
            v, _ = run_eval_sum(stores, addr)
            assert (v.decision == "block") == flt.query(addr)
            checked += 1
        for i in range(2000):
            addr = bytes([66, 44, (i >> 8) & 0xFF, i & 0xFF])
            v, _ = run_eval_product(stores, addr, seed=i)
            assert (v.decision == "block") == flt.query(addr)
            checked += 1
        for i in range(2000):
            addr = bytes([77, 44, (i >> 8) & 0xFF, i & 0xFF])
            v, _ = run_eval_bw(stores, addr, seed=i)
            assert (v.decision == "block") == flt.query(addr)
            checked += 1
        assert checked == 10_000


class TestDeduction:
    def test_three_query_deduction_scenario(self):
        obs = [([4, 5, 6], 2), ([1, 5, 6], 2), ([1, 4, 7], 0)]
        assert deduce_from_sums(8, obs) == [None, 0, None, None, 0, 1, 1, 0]

    def test_product_variant_reveals_nothing(self):
        obs = [([4, 5, 6], 0), ([1, 5, 6], 0), ([1, 4, 7], 0)]
        assert deduce_from_products(8, obs) == [None] * 8

    def test_product_positive_hit_reveals(self):
        obs = [([2, 4, 5], 1)]
        assert deduce_from_products(8, obs) == \
            [None, None, 1, None, 1, 1, None, None]


class TestStoreUpdate:
    @pytest.mark.parametrize("bad", [8, -1], ids=["past-end", "negative"])
    def test_bad_position_changes_nothing(self, bad):
        _, _, stores = toy_stores()
        before = list(stores[0].values)
        with pytest.raises(IndexError):
            stores[0].apply_update([(0, before[0] + 1), (bad, 1)])
        assert list(stores[0].values) == before

    def test_update_writes_in_place(self):
        _, _, stores = toy_stores()
        values = stores[0].values
        stores[0].apply_update([(3, 15), (6, 4)])
        assert stores[0].values is values
        assert stores[0].read([3, 6, 3]) == [15 % 11, 4, 15 % 11]


class TestStoreFile:
    def test_round_trip(self, tmp_path):
        cfg, _, stores = toy_stores(scheme="shamir", m=7, t=3)
        path = str(tmp_path / "s.share")
        stores[2].save(path)
        back = ShareStore.load(path)
        assert back.party_index == 3
        assert type(back.values) is array and back.values.typecode == "I"
        assert back.values == stores[2].values
        assert back.config.scheme == "shamir"
        assert back.config.t == 3 and back.config.m == 7
        assert back.config.N == 11
        assert back.instance_keys == stores[2].instance_keys

    @pytest.mark.parametrize("damage", ["truncated", "extended", "value-N"])
    def test_damaged_file_rejected(self, tmp_path, damage):
        _, _, stores = toy_stores()     # N = 11: one byte per share
        path = tmp_path / "a.share"
        stores[0].save(str(path))
        blob = path.read_bytes()
        blob = {"truncated": blob[:-1], "extended": blob + b"\0",
                "value-N": blob[:-1] + bytes([11])}[damage]
        path.write_bytes(blob)
        with pytest.raises(IoError):
            ShareStore.load(str(path))

    @pytest.mark.parametrize("scheme,m,t,offset,byte", [
        ("additive", 3, 0, 15, 2),      # scheme tag neither 0 nor 1
        ("additive", 3, 0, 16, 9),      # party index above m
        ("additive", 3, 0, 16, 0),      # party index 0
        ("additive", 3, 0, 18, 1),      # a single server
        ("additive", 3, 0, 19, 2),      # modulus not above kappa
        ("shamir", 7, 3, 17, 9),        # reveal size above m
    ])
    def test_damaged_header_rejected(self, tmp_path, scheme, m, t, offset,
                                     byte):
        _, _, stores = toy_stores(scheme=scheme, m=m, t=t)
        path = tmp_path / "a.share"
        stores[0].save(str(path))
        blob = bytearray(path.read_bytes())
        blob[offset] = byte
        path.write_bytes(bytes(blob))
        with pytest.raises(IoError):
            ShareStore.load(str(path))

    # One modulus per share width: 1, 2, 3 and 4 bytes.
    @pytest.mark.parametrize("N", [251, 65521, 2 ** 24 - 3, 2 ** 31 - 1])
    def test_bulk_encoding_is_the_per_value_encoding(self, tmp_path, N):
        cfg = FirewallConfig(scheme="additive", m=3, N=N,
                             bloom=derive_params(300, 0.01))
        _, stores = fw_init([f"10.0.0.{i}" for i in range(30)], cfg,
                            RandomSource(N))
        store = stores[2]
        store.apply_update([(0, 0), (1, N - 1)])
        path = tmp_path / "s.share"
        store.save(str(path))
        width = cfg.share_width
        body = path.read_bytes()[-cfg.bloom.beta * width:]
        assert body == b"".join(v.to_bytes(width, "little")
                                for v in store.values)
        back = ShareStore.load(str(path))
        assert back.values.typecode == "I" and back.values == store.values
        assert back.config.N == N and back.party_index == 3

    def test_loaded_store_hashes_like_admin_filter(self, tmp_path):
        cfg = FirewallConfig(scheme="additive", m=3, N=2 ** 31 - 1,
                             bloom=derive_params(200, 0.01))
        flt, stores = fw_init([], cfg, RandomSource(5))
        path = str(tmp_path / "s.share")
        stores[1].save(path)
        back = ShareStore.load(path)
        for i in range(1000):
            addr = bytes([198, 51, i >> 8, i & 0xFF])
            assert back.hash_indices(addr) == flt.hash_indices(addr)

    def test_header_layout(self, tmp_path):
        cfg, _, stores = toy_stores()
        path = tmp_path / "a.share"
        stores[0].save(str(path))
        blob = path.read_bytes()
        assert blob[:5] == b"OBFW1"
        assert int.from_bytes(blob[5:13], "little") == 8    # beta
        assert int.from_bytes(blob[13:15], "little") == 3   # kappa
        assert blob[15] == 0                                # additive tag
        assert blob[16] == 1                                # party index


# sha256 of the filter file and of each share store that fw_init writes for
# a fixed seed, recorded before the filter and the stores shared one writer.
PINNED_FILES = {
    "additive": (
        FirewallConfig(scheme="additive", m=3, N=2 ** 31 - 1,
                       bloom=BloomParams(beta=200, kappa=5, eta=20,
                                         target_fp=0.01)),
        ["4796846827b4b4c0ffbdff0749c0b1c8136ba16502a5f07d7c6206056908cc71",
         "b066ed0ac0f3789d51e9428a0cefb4d1cc99ede5f94fd21500c78be09c865f1e",
         "3ccfa92c792e876928d6a8fdc5e3c22b5085a16790e34ce0aa0bea783bec29b6",
         "42278633519b7e0f3bb0ac6183359903489bdf2956d8d225d3fc09b5558a77e1"]),
    "shamir": (
        FirewallConfig(scheme="shamir", m=5, t=2, N=2 ** 31 - 1,
                       bloom=BloomParams(beta=150, kappa=4, eta=20,
                                         target_fp=0.01)),
        ["39eb32300abfbfca182ca554647b7f3db860e83c3be39bf4d9422cc84222e6ec",
         "51105363912879e711e6cf38874f2010444f96cb9ce7e06a24f7c2c04292d387",
         "9df00ede3b9ba27cb490b965d90a7bd416d5adc2a23f001d3d73b03977d9ea07",
         "dad3a5466276a0abd0c30f7282237b6d1593eedc874fc340bbe0383b3107b7e7",
         "cc452e6d9d1e3a4f76902d2dd7d3a1db8cee92c87c832c12418d69f9e38a6fbb",
         "4250fb7aaaae495c20748f0b4584dbc010e54d2d971176221f55b3d1697c4e7c"]),
}

# Loads the file named by argv[1] and saves it back with the file size
# limit at argv[2] bytes; exits 0 if the save raised IoError.  SIGXFSZ is
# ignored, so a write past the limit fails with EFBIG as on a full disk.
FAILING_SAVE = """
import resource, signal, sys
from obfw.bloom import BloomFilter
from obfw.errors import IoError
from obfw.firewall import ShareStore
path, limit = sys.argv[1], int(sys.argv[2])
loaded = (BloomFilter if path.endswith(".filter") else ShareStore).load(path)
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE,
                   (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    loaded.save(path)
except IoError:
    sys.exit(0)
sys.exit(1)
"""


class TestFileLayer:
    @pytest.mark.parametrize("scheme", sorted(PINNED_FILES))
    def test_files_are_byte_identical(self, tmp_path, scheme):
        cfg, digests = PINNED_FILES[scheme]
        flt, stores = fw_init([f"10.0.0.{i}" for i in range(12)], cfg,
                              RandomSource(b"pin-" + scheme.encode()))
        paths = [tmp_path / "f.filter"] + [tmp_path / f"s{s.party_index}.share"
                                           for s in stores]
        for obj, path in zip([flt, *stores], paths):
            obj.save(str(path))
        assert [hashlib.sha256(p.read_bytes()).hexdigest()
                for p in paths] == digests

    def test_sum_tcp_sized_stores_are_byte_identical(self, tmp_path):
        # The benchmark's sum-tcp shape: additive m = 3, eta = 10^4,
        # beta = 95 850; digests recorded before positions were dealt in
        # batches.
        cfg = FirewallConfig(scheme="additive", m=3, N=2 ** 31 - 1,
                             bloom=derive_params(10_000, 0.01))
        _, stores = fw_init([f"10.{i >> 8}.{i & 255}.1" for i in range(10_000)],
                            cfg, RandomSource(b"pin-sum-tcp"))
        digests = []
        for store in stores:
            path = tmp_path / f"s{store.party_index}.share"
            store.save(str(path))
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests == [
            "f0ef05fc2088d4fdf5f255f4d53b7f74c349fe171f37e58230de8992a2d85818",
            "5eb8e02ce95f8a923e487a553e3aa591b6009d0d799aadc13a9a9e6e0eb71186",
            "f41efda5775653b2f53355edd67478c45a9fd1b1f0809e9573fad1629b94655d"]

    @pytest.mark.parametrize("name", ["f.filter", "s.share"])
    def test_failed_save_keeps_old_file(self, tmp_path, name):
        cfg = FirewallConfig(scheme="additive", m=3, N=2 ** 31 - 1,
                             bloom=derive_params(1000, 0.01))
        flt, stores = fw_init(["10.0.0.1"], cfg, RandomSource(3))
        path = tmp_path / name
        (flt if name.endswith(".filter") else stores[0]).save(str(path))
        before = path.read_bytes()
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(obfw.__file__))}
        proc = subprocess.run(
            [sys.executable, "-c", FAILING_SAVE, str(path),
             str(len(before) // 2)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def _parse_ipv4_per_octet(text: str) -> bytes:
    """The per-octet parser that the table of canonical octets replaced."""
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {text!r}")
    out = bytearray()
    for p in parts:
        if not (p.isascii() and p.isdigit()) or not 0 <= int(p) <= 255 \
                or (p != "0" and p[0] == "0"):
            raise ValueError(f"bad octet {p!r} in {text!r}")
        out.append(int(p))
    return bytes(out)


def _parsed(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


class TestParseIpv4:
    def test_every_octet_in_every_place(self):
        for o in range(256):
            for place in range(4):
                text = ".".join(str(o) if k == place else "7" for k in range(4))
                assert parse_ipv4(text) == _parse_ipv4_per_octet(text)

    TEXTS = [
        *(f"10.{o}.0.1" for o in ("00", "01", "007", "0255", "256", "999", "1000")),
        # Digits that are not ASCII, signs, underscores and spaces: int()
        # would take some of them.
        "1.2.3.\u0661", "1.2.\u00b2.4", "\uff11.2.3.4", "+1.2.3.4", "-0.1.2.3",
        "1_0.1.1.1", "1. 2.3.4", "1.2 .3.4",
        " 1.2.3.4", "1.2.3.4\n", "\t10.0.0.1 ", "\u20031.2.3.4\u2003",
        "", ".", "...", "....", "1.2.3", "1.2.3.4.5", "1..3.4", "1.2.3.",
    ]

    @pytest.mark.parametrize("text", TEXTS)
    def test_same_as_per_octet_parser(self, text):
        assert _parsed(parse_ipv4, text) == _parsed(_parse_ipv4_per_octet, text)

    @settings(max_examples=300)
    @given(st.one_of(
        st.text(max_size=20),
        st.lists(st.text(alphabet="0123456789 .\u0661\u00b2+-_x", max_size=4),
                 min_size=1, max_size=6).map(".".join)))
    def test_same_as_per_octet_parser_on_any_text(self, text):
        assert _parsed(parse_ipv4, text) == _parsed(_parse_ipv4_per_octet, text)

    def test_messages(self):
        with pytest.raises(ValueError, match="not a dotted quad"):
            parse_ipv4("1.2.3")
        with pytest.raises(ValueError, match="bad octet '01' in '1.01.3.4'"):
            parse_ipv4("1.01.3.4")
