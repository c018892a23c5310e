"""Golden seeded transcripts for every protocol a simulator runner drives.

Each case runs one protocol with fixed inputs and a fixed seed and pins
the transcript's `payload_digest()`, `accounting_total()` and `rounds()`.
A change that claims to preserve behaviour (a refactor, a cache, a
faster codec) must leave all three byte-identical.  The first fifteen
values were recorded before the field and Lagrange-weight memoisation
landed; the extra comparison cases (forced shift with a < b, alg5 on
equal inputs, alg6 at m = 3 and m = 4) before the alg4/alg5/alg6 role
programs were merged onto one P1/P2 core and one helper core; alg7 at
l = 16 before its xor triangle was laid out once per bit width, draws
read ahead and payloads were hashed only on demand.  The zero test's case
was recorded when it became the product CHECK; protocol 10's
`eval_product` case runs through `run_eval_tree` on its old pin.
"""
import pytest

from obfw.bloom import derive_params
from obfw.compare import run_malicious, run_mult_fanin, run_semi_honest, run_shared_inputs
from obfw.dual import CheatPlan, DualParams, dual_share, run_output_check
from obfw.firewall import (
    FirewallConfig,
    ServerTamper,
    fw_init,
    parse_ipv4,
    run_eval_bw,
    run_eval_product,
    run_eval_sum,
    run_eval_tree,
    run_product_with_vote,
    run_update,
)
from obfw.net.envelope import (
    PROTO_ADDITIVE_MULT3,
    PROTO_DUAL_OUTPUT_CHECK,
    PROTO_FW_EVAL_PRODUCT,
    PROTO_FW_EVAL_SUM,
    PROTO_FW_UPDATE,
    PROTO_FW_ZERO_TEST,
    PROTO_MAJORITY_VOTE,
    PROTO_SC_LOW_ROUNDS,
    PROTO_SC_MALICIOUS,
    PROTO_SC_SEMI_HONEST,
    PROTO_SC_SHARED_INPUTS,
    PROTO_SHAMIR_MULT,
)
from obfw.rng import RandomSource
from obfw.sharing import (
    AdditiveParams,
    ShamirParams,
    additive_share,
    run_additive_mult3,
    run_shamir_mult,
    shamir_share,
)

P = 2 ** 31 - 1
BLACKLIST = [f"10.7.0.{i}" for i in range(20)]
LISTED, FRESH = parse_ipv4("10.7.0.3"), parse_ipv4("172.16.4.9")


def _stores(scheme: str, m: int, t: int):
    cfg = FirewallConfig(scheme=scheme, m=m, N=P, t=t,
                         bloom=derive_params(20, 0.05))
    return fw_init(BLACKLIST, cfg, RandomSource(f"golden/{scheme}"))


def _shamir_mult():
    sp = ShamirParams(P, 2, 5)
    a = shamir_share(123456, sp, RandomSource("golden/a"))
    b = shamir_share(654321, sp, RandomSource("golden/b"))
    return run_shamir_mult(a, b, RandomSource("golden/mult"))[1].transcript


def _additive_mult3():
    ap = AdditiveParams(P, 3)
    u = additive_share(1111, ap, RandomSource("golden/u"))
    v = additive_share(2222, ap, RandomSource("golden/v"))
    return run_additive_mult3(u, v, RandomSource("golden/mult3"))[1].transcript


def _output_check(cheats=None):
    duals = dual_share(987654, DualParams(P, 2, 5), RandomSource("golden/dual"))
    return run_output_check(duals, cheats=cheats)[1].transcript


def _eval_sum(scheme, m, t):
    _, stores = _stores(scheme, m, t)
    return run_eval_sum(stores, LISTED)[1].transcript


def _update():
    flt, stores = _stores("shamir", 5, 2)
    return run_update(stores, flt, FRESH, seed="golden/update").transcript


def _eval_bw():
    _, stores = _stores("shamir", 5, 2)
    return run_eval_bw(stores, LISTED, seed="golden/bw",
                       tampers={4: ServerTamper(17)})[1].transcript


def _vote():
    _, stores = _stores("shamir", 5, 2)
    return run_product_with_vote(stores, FRESH, seed="golden/vote",
                                 tampers={2: ServerTamper(5)})[2].transcript


def _mult_fanin():
    sp = ShamirParams(P, 1, 3)
    vecs = [shamir_share(v, sp, RandomSource(f"golden/fanin/{k}"))
            for k, v in enumerate((3, 5, 7, 11, 13))]
    return run_mult_fanin(vecs, seed="golden/fanin")[1].transcript


CASES = {
    "shamir_mult": (PROTO_SHAMIR_MULT, _shamir_mult),
    "additive_mult3": (PROTO_ADDITIVE_MULT3, _additive_mult3),
    "output_check": (PROTO_DUAL_OUTPUT_CHECK, _output_check),
    "output_check_cheat": (PROTO_DUAL_OUTPUT_CHECK, lambda: _output_check(
        {3: CheatPlan(phase2_delta=41)})),
    "alg4": (PROTO_SC_SEMI_HONEST, lambda: run_semi_honest(
        40000, 39999, 16, seed="golden/alg4").transcript),
    "alg5": (PROTO_SC_LOW_ROUNDS, lambda: run_semi_honest(
        1234, 4321, 16, seed="golden/alg5", variant="alg5").transcript),
    "alg6": (PROTO_SC_SHARED_INPUTS, lambda: run_shared_inputs(
        200, 200, 8, m=5, seed="golden/alg6").transcript),
    "alg4_force_pi_a_lt_b": (PROTO_SC_SEMI_HONEST, lambda: run_semi_honest(
        1000, 50000, 16, seed="golden/alg4/pi", force_pi=3).transcript),
    "alg5_equal": (PROTO_SC_LOW_ROUNDS, lambda: run_semi_honest(
        777, 777, 16, seed="golden/alg5/eq", variant="alg5").transcript),
    "alg6_m3": (PROTO_SC_SHARED_INPUTS, lambda: run_shared_inputs(
        13, 200, 8, m=3, seed="golden/alg6/m3").transcript),
    "alg6_m4": (PROTO_SC_SHARED_INPUTS, lambda: run_shared_inputs(
        201, 200, 8, m=4, seed="golden/alg6/m4", force_pi=6).transcript),
    "alg7": (PROTO_SC_MALICIOUS, lambda: run_malicious(
        77, 200, 8, t=1, seed="golden/alg7").transcript),
    # The sim-protocols benchmark shape (l = 16, t = 1); the xor triangle
    # and its columns grow with l, so l = 8 alone pins a smaller layout.
    "alg7_l16": (PROTO_SC_MALICIOUS, lambda: run_malicious(
        40000, 52345, 16, t=1, seed="golden/alg7/l16").transcript),
    "mult_fanin": (PROTO_SC_MALICIOUS, _mult_fanin),
    "eval_sum_additive": (PROTO_FW_EVAL_SUM, lambda: _eval_sum("additive", 3, 0)),
    "eval_sum_shamir": (PROTO_FW_EVAL_SUM, lambda: _eval_sum("shamir", 5, 2)),
    "eval_product": (PROTO_FW_EVAL_PRODUCT, lambda: run_eval_tree(
        _stores("shamir", 5, 2)[1], LISTED, seed="golden/product")[1].transcript),
    "eval_zero_test": (PROTO_FW_ZERO_TEST, lambda: run_eval_product(
        _stores("shamir", 5, 2)[1], FRESH, session_id=2 ** 64 - 3)[1].transcript),
    "eval_bw": (PROTO_FW_EVAL_PRODUCT, _eval_bw),
    "update": (PROTO_FW_UPDATE, _update),
    "majority_vote": (PROTO_MAJORITY_VOTE, _vote),
}

# name -> (payload_digest, accounting bits, rounds)
GOLDEN = {
    "additive_mult3": ("3f45fcf43845a6322969418eb8cccae138ab03397c67a683be141f0e135cac4a", 837, 2),
    "alg4": ("e733544a0ac0d6b9d0add51bca2ac4e3bd7f1dfb0994755de927c26e6a3fdf1d", 940, 5),
    "alg4_force_pi_a_lt_b": ("ed3b0deb3865196bd2250c8d9a84eb5ab1894fafb23cf3c25b8388af1aeb1bcd", 940, 5),
    "alg5": ("08c42f8e9ba4b507ff732c31d2a06545b6952ada4534b6f987adaa356ddc79ab", 1246, 4),
    "alg5_equal": ("c6d74f004ff4b4debeb044a0a912566126dd35f1a1c28e518b8001841d421416", 1246, 4),
    "alg6": ("bf71c7435564a9ac18cd98c9e95213d46da6658b406925b498e1d4629808eb13", 647, 5),
    "alg6_m3": ("aa94436da12376b7c7bb52986a1a0c67c2d2104d62e045ad7cda660d8c92acae", 583, 5),
    "alg6_m4": ("eb3a3c87c12540962b98b5778ed8d8ba9397a32be5c5163ea40b5dbdcd71895a", 615, 5),
    "alg7": ("5a39fc5738646dbc53a2d9d4a726b276702f446dd47d24ed09a5f6b2fa2dc74b", 4860, 7),
    "alg7_l16": ("a4b6d5613725641743b366d6222c34deb82c1985cbb8113db609909c39c35b6a", 31212, 8),
    "eval_bw": ("6a012dca3437ac1f9e3b3a5a27ed132844f4a9154f1e8df8041bec0b89c2fe7a", 2175, 3),
    "eval_product": ("8fbf5827639ab35124ed7d3e92993f9e35f7ceefe891ce22e3adb2901a5c31a1", 2175, 3),
    "eval_sum_additive": ("4026f0717113c2c6fdd032528ad5560ca18cb1e4c9a582eab78c2b9b11e13f86", 189, 1),
    "eval_sum_shamir": ("4719c2d552a850ee59a8fa432927edd8f81dacf3bcce42cc244fcf70b1aea878", 315, 1),
    "eval_zero_test": ("cfe14bfac1648f991a30d713f83c966227e282073dbc6c74f22511e584d96309", 315, 1),
    "majority_vote": ("d21792da317c57d65a06a9ce8890deeef3ffcd9b1f82817de06e7244d2536847", 2795, 4),
    "mult_fanin": ("e2d2ef086cf846564e9e8524aaaa567eb99d8f1aa3d2b625eef6ae5e6a35f43c", 744, 3),
    "output_check": ("5659d945a200db577ecf27244c963928215c160e8eaf87e6a63550615b665ff1", 1240, 2),
    "output_check_cheat": ("c4c5d67214dcf179f90b8db8f0716383d6f9ba62c05cb9b0186f72cf515b745e", 1240, 2),
    "shamir_mult": ("2f31e5ddc95613279012fbf9897258e562b07ef6accf956b9d767df4afe5f1fc", 620, 1),
    "update": ("268e0827b1c126ce1960dfef3b5223b7b4252b3398c567b262159df21ea112b9", 765, 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_transcript_is_unchanged(name):
    proto, run = CASES[name]
    tr = run()
    assert tr.protocol_id == proto
    assert (tr.payload_digest(), tr.accounting_total(), tr.rounds()) == GOLDEN[name]


def test_every_simulated_protocol_id_is_pinned():
    assert {proto for proto, _ in CASES.values()} == {
        PROTO_SHAMIR_MULT, PROTO_ADDITIVE_MULT3, PROTO_DUAL_OUTPUT_CHECK,
        PROTO_SC_SEMI_HONEST, PROTO_SC_LOW_ROUNDS, PROTO_SC_SHARED_INPUTS,
        PROTO_SC_MALICIOUS, PROTO_FW_EVAL_SUM, PROTO_FW_EVAL_PRODUCT,
        PROTO_FW_UPDATE, PROTO_MAJORITY_VOTE, PROTO_FW_ZERO_TEST}
