#!/usr/bin/env python3
"""Exhaustive single-cheater sweeps.

Dual-sharing output check: over Z_11 with t = 2, n = 5, every party, every
nonzero offset, and all four manipulation strategies.  Reports the verdict
distribution and how often the cheating index was attributed.

Shamir sum mode of the firewall: for m/t in 5/2, 6/2 and 7/3, every server
offsets its sigma share by 1, -1 or -1/L_j(0) (L_j(0) its weight over
points 1..m), with every server live and with each other server dead, on
a blacklisted and a fresh address.  Reports the outcomes by the number of
live servers; a cheat must be caught once more than t servers answer, and
the cheater named once more than 2t do.
"""
from collections import Counter

from obfw.bloom import derive_params
from obfw.dual import DualParams, VerdictStatus, dual_share, run_output_check
from obfw.field import lagrange_zero_coefficients
from obfw.firewall import (FirewallConfig, ServerTamper, fw_init, parse_ipv4,
                           run_eval_sum)
from obfw.rng import RandomSource

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from test_dual import corruption_strategies  # noqa: E402


def output_check_sweep():
    params = DualParams(11, 2, 5)
    rng = RandomSource(b"sweep-script" + bytes(20))
    outcome = Counter()
    attributed = 0
    total = 0
    for party in range(1, 6):
        for delta in range(1, 11):
            duals = dual_share(rng.randbelow(11), params,
                               rng.child(f"{party}/{delta}"))
            for name, mod_duals, cheats in corruption_strategies(
                    duals, party, delta, params):
                verdicts, _ = run_output_check(mod_duals, cheats=cheats)
                sample = next(v for i, v in verdicts.items() if i != party)
                outcome[(name, sample.status.name)] += 1
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
        assert live <= 2 * t or kind == "ALERT cheater", \
            f"m={m} t={t} live={live}: {count} cheats answered {kind}"


def main():
    output_check_sweep()
    shamir_sum_sweep()


if __name__ == "__main__":
    main()
