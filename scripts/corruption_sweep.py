#!/usr/bin/env python3
"""Exhaustive single-cheater sweep against the dual-sharing output check.

Over Z_11 with t = 2, n = 5: every party, every nonzero offset, and all
four manipulation strategies.  Reports the verdict distribution and how
often the cheating index was attributed.
"""
from collections import Counter

from obfw.dual import DualParams, VerdictStatus, dual_share, run_output_check
from obfw.rng import RandomSource

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from test_dual import corruption_strategies  # noqa: E402


def main():
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


if __name__ == "__main__":
    main()
