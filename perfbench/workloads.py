"""Workload parameters and seeded input generation.

Everything a run feeds to obfw is made here from the workload seed, so
the same seed gives the same inputs.  The inputs travel to the host
process as plain JSON: addresses as dotted quads, numbers as integers.
"""
from __future__ import annotations

import random

# Every workload uses the Mersenne prime 2^31 - 1.  At a toy modulus the
# primality test returns from its small-prime table at once and would hide
# the per-call field construction.
N = 2 ** 31 - 1
PSK_HEX = "62656e63682d61646d696e2d6b6579"  # b"bench-admin-key"

WORKLOADS = ("sum-tcp", "product-tcp", "sim-protocols")

# Firewall shapes.  The filter sizes follow from eta at a 1 % false-positive
# target: eta = 10^4 gives beta = 95 850, eta = 10^3 gives 9 585, kappa = 7.
# `one_cpu` keeps the daemons on one CPU and the load generator off it.
# sum-tcp leaves them free: the cross-CPU interpreter-lock hand-offs of
# thread-per-session under two clients are what it exposes.  product-tcp
# has one client and is about arithmetic; unpinned, the wake-ups of its six
# threads on a shared machine made its runs swing twofold.
SUM_TCP = dict(scheme="additive", m=3, t=0, eta=10_000, mode="sum",
               one_cpu=False)
PRODUCT_TCP = dict(scheme="shamir", m=5, t=2, eta=1_000, mode="product",
                   one_cpu=True)
SIM_FILTER = dict(scheme="shamir", m=5, t=2, eta=200)

# Closed-loop shape.  sum-tcp pushes one UPDATE per round and then checks
# the updated address plus CHECKS_PER_ROUND - 1 pool addresses; product-tcp
# only checks.
SUM_CHECKS_PER_ROUND = 64
PRODUCT_CHECKS_PER_ROUND = 16
SUM_POOL_HALF = 1024          # blacklisted + fresh addresses in the pool
PRODUCT_POOL_HALF = 512
SUM_UPDATES = 2048            # planned UPDATEs; a run ends early past them
FRESH_CANDIDATES_FACTOR = 1.5

# peak_rss_mb is read after set-up and this many rounds (sim: passes), a
# fixed amount of work, so that it does not grow with throughput while the
# daemons keep per-session state.
RSS_ROUNDS = {"sum-tcp": 32, "product-tcp": 16, "sim-protocols": 16}

# sim-protocols mix, run in this order on every pass.
SIM_MIX = ("alg4", "alg5", "alg6", "alg7", "output_check", "cheater_check",
           "decode_bw", "decode_vote")
COMPARE_BITS = {"alg4": 32, "alg5": 32, "alg6": 16, "alg7": 16}
ALG6_M = 5
ALG7_T = 1
DUAL_T, DUAL_N = 2, 5
SIM_POOL = 64                 # distinct inputs per protocol, cycled


def _addresses(rnd: random.Random, count: int, first_octets: tuple[int, ...],
               taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        tail = [rnd.randrange(256) for _ in range(4 - len(first_octets))]
        addr = ".".join(str(o) for o in (*first_octets, *tail))
        if addr not in taken:
            taken.add(addr)
            out.append(addr)
    return out


def firewall_inputs(workload: str, seed: int) -> dict:
    """Blacklist, pool candidates and (sum-tcp) UPDATE addresses."""
    shape = SUM_TCP if workload == "sum-tcp" else PRODUCT_TCP
    half = SUM_POOL_HALF if workload == "sum-tcp" else PRODUCT_POOL_HALF
    rnd = random.Random(f"{workload}/{seed}")
    taken: set[str] = set()
    # Blacklist, fresh and update addresses come from disjoint prefixes so
    # no fresh address can be blacklisted by construction.
    blacklist = _addresses(rnd, shape["eta"], (10,), taken)
    fresh = _addresses(rnd, int(half * FRESH_CANDIDATES_FACTOR), (172,), taken)
    updates = (_addresses(rnd, SUM_UPDATES, (192,), taken)
               if workload == "sum-tcp" else [])
    return {
        "shape": shape,
        "blacklist": blacklist,
        "pool_blacklisted": rnd.sample(blacklist, half),
        "fresh_candidates": fresh,
        "updates": updates,
        "fw_seed": rnd.getrandbits(256),
        "order_seed": rnd.getrandbits(64),
    }


def sim_inputs(seed: int) -> dict:
    """Comparison operands, dealt secrets, cheaters and tampered servers."""
    rnd = random.Random(f"sim-protocols/{seed}")
    taken: set[str] = set()

    def pairs(bits: int) -> list[list[int]]:
        out = []
        for k in range(SIM_POOL):
            a = rnd.randrange(1 << bits)
            # One pair in eight is an equality, the protocol's edge case.
            b = a if k % 8 == 0 else rnd.randrange(1 << bits)
            out.append([a, b])
        return out

    blacklist = _addresses(rnd, SIM_FILTER["eta"], (10,), taken)
    fresh = _addresses(rnd, SIM_POOL // 2, (172,), taken)
    decode_addrs = rnd.sample(blacklist, SIM_POOL // 2) + fresh
    rnd.shuffle(decode_addrs)
    return {
        "pairs": {name: pairs(bits) for name, bits in COMPARE_BITS.items()},
        "secrets": [rnd.randrange(N) for _ in range(SIM_POOL)],
        "cheaters": [[rnd.randrange(1, DUAL_N + 1), rnd.randrange(1, N)]
                     for _ in range(SIM_POOL)],
        "blacklist": blacklist,
        "decode_addrs": decode_addrs,
        "tampers": [[rnd.randrange(1, SIM_FILTER["m"] + 1), rnd.randrange(1, N)]
                    for _ in range(SIM_POOL)],
        "fw_seed": rnd.getrandbits(256),
        "protocol_seed": rnd.getrandbits(256),
    }
