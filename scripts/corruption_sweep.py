#!/usr/bin/env python3
"""Exhaustive single-cheater sweeps.

Every cheater is an honest party program that `obfw.net.rewrite_sends`
wraps: the rewrite changes what the party sends and nothing else.

Dual-sharing output check: over Z_11 with t = 2, n = 5, every party, every
nonzero offset, and all four manipulation strategies.  Reports the verdict
distribution and how often the cheating index was attributed.

Shamir sum mode of the firewall: for m/t in 5/2, 6/2 and 7/3, every server
offsets its sigma share by 1, -1 or -1/L_j(0) (L_j(0) its weight over
points 1..m), with every server live and with each other server dead, on
a blacklisted and a fresh address.  Reports the outcomes by the number of
live servers; a cheat must be caught once more than t servers answer, and
the cheater named once 2t or more do.  At these shapes that is every cheat.

The paper's product (protocol 10), m = 5, t = 2, under three decoders:
`run_eval_tree`, whose verdict is `decide_product`'s one decoding of the
result shares, Berlekamp-Welch and the vote.  The first keeps the family name
`product-combination`, after the combination analysis that decoding
replaced, so that the JSON line keeps its keys.  Every server offsets its result share by 1, -1 or
-1/L_j(0) on a blacklisted and a fresh address: each cheat must be
detected and the cheater named.  Every server also shifts its last local
product by -1/L_j(0) before resharing it, and its result share by -1, on
8 blacklisted addresses: every share then encodes the product minus one.
That row is reported only.

Two cheaters, at m/t = 5/2 and 7/3 with every server live: every pair of
servers offsets its result shares, by 1 each and by -1/L_j(0) each, on a
blacklisted and a fresh address, in Shamir sum mode and under the three
product decoders.  Each such cheat must be detected, with no exception.
At 7/3 the decoder's budget is two errors, so each must name both
cheaters; at 5/2 it is one error, and the alert names no one.

The zero test (protocol 13, the daemons' product CHECK), at m/t = 5/2 and
7/3: every server, and every pair of servers, shifts one thing by 1 or -1
on a blacklisted and a fresh address: a share of its store at a hashed
position, its r, its z, or its answers y.  Up to m - 2t + 1 = 2 cheaters
no verdict may be silently wrong.

The last line is JSON: {family: {attack: {outcome: count}}}, where the
outcome is `detected`, `detected_named` (the alert or decoder names
exactly the cheaters), `silent_wrong` or `silent_right`.
"""
import itertools
import json
from array import array
from collections import Counter

from obfw.bloom import derive_params
from obfw.dual import DualParams, VerdictStatus, dual_share, run_output_check
from obfw.field import lagrange_zero_coefficients
from obfw.firewall import (FirewallConfig, ServerTamper, ShareStore, fw_init,
                           parse_ipv4, run_eval_bw, run_eval_product,
                           run_eval_sum, run_eval_tree, run_product_with_vote)
from obfw.net import add_to_send, ceil_log2
from obfw.rng import RandomSource

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from test_dual import corruption_strategies  # noqa: E402

OUTCOMES = ("detected", "detected_named", "silent_wrong", "silent_right")
# (family, attack, outcome) -> count, over every sweep.
TALLY = Counter()


def tally(family, attack, caught, suspects, cheaters, right):
    """Count one cheat by the set of `cheaters`: `caught` when the verdict
    is an alert, `right` when a silent verdict equals the honest one."""
    if caught or suspects:
        outcome = "detected_named" if suspects == cheaters else "detected"
    else:
        outcome = "silent_right" if right else "silent_wrong"
    TALLY[(family, attack, outcome)] += 1


def output_check_sweep():
    params = DualParams(11, 2, 5)
    rng = RandomSource(b"sweep-script" + bytes(20))
    outcome = Counter()
    attributed = 0
    total = 0
    for party in range(1, 6):
        for delta in range(1, 11):
            secret = rng.randbelow(11)
            duals = dual_share(secret, params, rng.child(f"{party}/{delta}"))
            for name, mod_duals, cheats in corruption_strategies(
                    duals, party, delta, params):
                verdicts, _ = run_output_check(mod_duals, cheats=cheats)
                sample = next(v for i, v in verdicts.items() if i != party)
                outcome[(name, sample.status.name)] += 1
                tally("output-check", name, not sample.honest, sample.suspects,
                      {party}, sample.secret == secret)
                if sample.status is VerdictStatus.DEGREE_VIOLATION \
                        and sample.suspects == {party}:
                    attributed += 1
                total += 1
    print(f"{total} corruption scenarios")
    for (strategy, status), count in sorted(outcome.items()):
        print(f"  {strategy:<16} -> {status:<21} x{count}")
    degree_cases = sum(c for (s, st), c in outcome.items()
                       if st == "DEGREE_VIOLATION")
    print(f"attribution: {attributed}/{degree_cases} degree violations "
          f"named the cheating index")
    undetected = sum(c for (s, st), c in outcome.items() if st == "HONEST")
    print(f"undetected: {undetected}")
    assert undetected == 0
    assert attributed == degree_cases, \
        f"{degree_cases - attributed} degree violations named no or a wrong index"


def shamir_sum_sweep():
    outcome = Counter()
    for m, t in ((5, 2), (6, 2), (7, 3)):
        cfg = FirewallConfig(scheme="shamir", m=m, t=t, N=2 ** 31 - 1,
                             bloom=derive_params(100, 0.01))
        blacklist = [f"10.6.0.{i}" for i in range(100)]
        flt, stores = fw_init(blacklist, cfg, RandomSource(f"sum-sweep/{m}/{t}"))
        fresh = next(a for a in (parse_ipv4(f"192.0.2.{i}") for i in range(256))
                     if not flt.query(a))
        f = cfg.field()
        weights = lagrange_zero_coefficients(f, range(1, m + 1))
        for cheater in range(1, m + 1):
            for delta in (1, cfg.N - 1, cfg.N - f.inv(weights[cheater - 1])):
                for dead in [None] + [j for j in range(1, m + 1) if j != cheater]:
                    dead_set = frozenset() if dead is None else frozenset({dead})
                    live = m - len(dead_set)
                    for addr in (parse_ipv4(blacklist[0]), fresh):
                        v, _ = run_eval_sum(stores, addr, dead=dead_set,
                                            tampers={cheater: ServerTamper(delta)})
                        tally("shamir-sum", "result-offset",
                              v.decision == "alert", v.suspects, {cheater},
                              v.decision == ("block" if addr != fresh
                                             else "forward"))
                        if v.decision != "alert":
                            kind = v.decision.upper()
                        elif v.suspects == {cheater}:
                            kind = "ALERT cheater"
                        else:
                            kind = "ALERT " + (",".join(map(str, sorted(v.suspects)))
                                               or "no one")
                        outcome[(m, t, live, kind)] += 1
    print(f"{sum(outcome.values())} Shamir sum-mode cheats (one server offsets sigma)")
    for (m, t, live, kind), count in sorted(outcome.items()):
        print(f"  m={m} t={t} live={live} -> {kind:<14} x{count}")
    for (m, t, live, kind), count in outcome.items():
        assert kind not in ("BLOCK", "FORWARD"), \
            f"m={m} t={t} live={live}: {count} cheats answered {kind}"
        assert live < 2 * t or kind == "ALERT cheater", \
            f"m={m} t={t} live={live}: {count} cheats answered {kind}"
    named = TALLY[("shamir-sum", "result-offset", "detected_named")]
    assert named == sum(outcome.values()) == 660, \
        f"{named} of {sum(outcome.values())} sigma offsets named the cheater"


def local_product_shift(delta, last_step, N):
    """A server that adds `delta` to its last local product before it
    reshares it, and -1 to its result share.  Resharing a value plus delta
    adds delta to every evaluation the server sends at that step."""
    result = ServerTamper(N - 1)

    def rewrite(cmd):
        return add_to_send(cmd, delta) if cmd.step == last_step else result(cmd)
    return rewrite


def product_decoders(stores):
    """decoder -> decode(addr, tampers, seed), the final verdict on `stores`.
    "combination" is `decide_product`'s one decoding; the name keeps the
    JSON line's keys."""
    return {
        "combination": lambda addr, tampers, seed: run_eval_tree(
            stores, addr, seed=seed, tampers=tampers)[0],
        "bw": lambda addr, tampers, seed: run_eval_bw(
            stores, addr, seed=seed, tampers=tampers)[0],
        "vote": lambda addr, tampers, seed: run_product_with_vote(
            stores, addr, seed=seed, tampers=tampers)[0],
    }


def product_sweep():
    m, t = 5, 2
    cfg = FirewallConfig(scheme="shamir", m=m, t=t, N=2 ** 31 - 1,
                         bloom=derive_params(100, 0.01))
    blacklist = [f"10.7.0.{i}" for i in range(100)]
    flt, stores = fw_init(blacklist, cfg, RandomSource("product-sweep"))
    listed = [parse_ipv4(a) for a in blacklist[:8]]
    fresh = next(a for a in (parse_ipv4(f"192.0.2.{i}") for i in range(256))
                 if not flt.query(a))
    f = cfg.field()
    weights = lagrange_zero_coefficients(f, range(1, m + 1))
    # The tree product over kappa values reshares ceil(log2 kappa) times.
    last_step = ceil_log2(cfg.bloom.kappa)
    decoders = product_decoders(stores)
    for decoder, decode in decoders.items():
        family = f"product-{decoder}"
        for cheater in range(1, m + 1):
            minus_inv_weight = cfg.N - f.inv(weights[cheater - 1])
            for delta in (1, cfg.N - 1, minus_inv_weight):
                for addr, truth in ((listed[0], "block"), (fresh, "forward")):
                    v = decode(addr, {cheater: ServerTamper(delta)},
                               f"{cheater}/{delta}")
                    tally(family, "result-offset", v.decision == "alert",
                          v.suspects, {cheater}, v.decision == truth)
            shift = local_product_shift(minus_inv_weight, last_step, cfg.N)
            for k, addr in enumerate(listed):
                v = decode(addr, {cheater: shift}, f"{cheater}/shift/{k}")
                tally(family, "local-product-shift", v.decision == "alert",
                      v.suspects, {cheater}, v.decision == "block")
    print(f"product-mode cheats, m={m} t={t}")
    for (family, attack, outcome), count in sorted(TALLY.items()):
        if family.startswith("product-"):
            print(f"  {family:<19} {attack:<19} -> {outcome:<14} x{count}")
    for decoder in decoders:
        for outcome in ("detected", "silent_wrong", "silent_right"):
            count = TALLY[(f"product-{decoder}", "result-offset", outcome)]
            assert count == 0, f"{decoder}: {count} result offsets {outcome}"


def two_cheater_sweep():
    outcome = Counter()
    for m, t in ((5, 2), (7, 3)):
        cfg = FirewallConfig(scheme="shamir", m=m, t=t, N=2 ** 31 - 1,
                             bloom=derive_params(100, 0.01))
        blacklist = [f"10.8.0.{i}" for i in range(100)]
        flt, stores = fw_init(blacklist, cfg, RandomSource(f"pair-sweep/{m}/{t}"))
        fresh = next(a for a in (parse_ipv4(f"192.0.2.{i}") for i in range(256))
                     if not flt.query(a))
        f = cfg.field()
        weights = lagrange_zero_coefficients(f, range(1, m + 1))
        families = {"shamir-sum": lambda addr, tampers, seed: run_eval_sum(
            stores, addr, tampers=tampers)[0]}
        families.update((f"product-{decoder}", decode)
                        for decoder, decode in product_decoders(stores).items())
        for family, decode in families.items():
            for pair in itertools.combinations(range(1, m + 1), 2):
                plans = {
                    "one": {j: ServerTamper(1) for j in pair},
                    "minus-inv-weight": {
                        j: ServerTamper(cfg.N - f.inv(weights[j - 1]))
                        for j in pair},
                }
                for plan, tampers in plans.items():
                    for addr, truth in ((parse_ipv4(blacklist[0]), "block"),
                                        (fresh, "forward")):
                        v = decode(addr, tampers, f"{pair}/{plan}")
                        tally(family, "two-result-offsets", v.decision == "alert",
                              v.suspects, set(pair), v.decision == truth)
                        named = " naming both" if v.suspects == set(pair) else ""
                        outcome[(m, t, family, v.decision.upper() + named)] += 1
    print("two cheaters offset their result shares, every server live")
    for (m, t, family, kind), count in sorted(outcome.items()):
        print(f"  m={m} t={t} {family:<19} -> {kind:<19} x{count}")
    for family in families:
        for silent in ("silent_wrong", "silent_right"):
            count = TALLY[(family, "two-result-offsets", silent)]
            assert count == 0, f"{family}: {count} cheater pairs {silent}"
        # Every one of the C(7, 2) * 2 * 2 = 84 cheats at 7/3.
        named = TALLY[(family, "two-result-offsets", "detected_named")]
        assert named == 84, f"{family}: {named} of 84 cheater pairs named at 7/3"


def shifted_store(store, position, delta):
    """A copy of `store` whose share at `position` is `delta` higher."""
    cheat = ShareStore(config=store.config, party_index=store.party_index,
                       instance_keys=store.instance_keys,
                       values=array("I", store.values),
                       prss_keys=store.prss_keys, family=store.family)
    cheat.apply_update([(position, store.values[position] + delta)])
    return cheat


def zero_test_cheat(stores, cheaters, target, delta, addr):
    """The stores and send rewrites of `cheaters` shifting `target` by
    `delta`.  A store shift runs the honest program on a shifted store; r,
    z and y shifts rewrite what it sends: as y = r (sigma_j - kappa) + z in
    each pair, r + d sends y + d (sigma_j - kappa), and z + d or y + d
    sends y + d."""
    cfg = stores[0].config
    cheat_stores, tampers = list(stores), {}
    for j in cheaters:
        store = stores[j - 1]
        if target == "store":
            position = store.hash_indices(addr)[0]
            cheat_stores[j - 1] = shifted_store(store, position, delta)
        elif target == "r":
            gap = sum(store.read(store.hash_indices(addr))) - cfg.bloom.kappa
            tampers[j] = ServerTamper(delta * gap % cfg.N)
        else:
            tampers[j] = ServerTamper(delta)
    return cheat_stores, tampers


def zero_test_sweep():
    outcome = Counter()
    for m, t in ((5, 2), (7, 3)):
        cfg = FirewallConfig(scheme="shamir", m=m, t=t, N=2 ** 31 - 1,
                             bloom=derive_params(100, 0.01))
        blacklist = [f"10.9.0.{i}" for i in range(100)]
        flt, stores = fw_init(blacklist, cfg, RandomSource(f"zero-sweep/{m}/{t}"))
        fresh = next(a for a in (parse_ipv4(f"192.0.2.{i}") for i in range(256))
                     if not flt.query(a))
        cheater_sets = [set(pair) for c in (1, 2)
                        for pair in itertools.combinations(range(1, m + 1), c)]
        for cheaters in cheater_sets:
            for target in ("store", "r", "z", "y"):
                attack = (f"{target}-shift" if len(cheaters) == 1
                          else f"two-{target}-shifts")
                for delta in (1, cfg.N - 1):
                    for addr, truth in ((parse_ipv4(blacklist[0]), "block"),
                                        (fresh, "forward")):
                        cheat_stores, tampers = zero_test_cheat(
                            stores, cheaters, target, delta, addr)
                        v, _ = run_eval_product(cheat_stores, addr,
                                                session_id=delta, tampers=tampers)
                        tally("zero-test", attack, v.decision == "alert",
                              v.suspects, cheaters, v.decision == truth)
                        named = " naming them" if v.suspects == cheaters else ""
                        outcome[(m, t, len(cheaters), target,
                                 v.decision.upper() + named)] += 1
    print("zero-test cheats: one or two servers shift a store share, r, z or y")
    for (m, t, c, target, kind), count in sorted(outcome.items()):
        print(f"  m={m} t={t} cheaters={c} {target:<5} -> {kind:<19} x{count}")
    # Two cheaters are m - 2t + 1 at both shapes: no verdict may be wrong.
    for (family, attack, result), count in TALLY.items():
        assert family != "zero-test" or result != "silent_wrong", \
            f"zero-test {attack}: {count} silently wrong"


def main():
    output_check_sweep()
    shamir_sum_sweep()
    product_sweep()
    two_cheater_sweep()
    zero_test_sweep()
    families = {}
    for (family, attack, outcome), count in sorted(TALLY.items()):
        counts = families.setdefault(family, {}).setdefault(
            attack, dict.fromkeys(OUTCOMES, 0))
        counts[outcome] = count
    print(json.dumps(families, sort_keys=True))


if __name__ == "__main__":
    main()
