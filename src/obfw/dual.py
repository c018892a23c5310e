"""Dual-sharing compiler: evaluate circuits under Shamir and additive
sharing in parallel, then reveal through the zero-check / degree-check
output protocol that detects inconsistent share manipulation.

The detection idea: each party commits by broadcasting its Shamir share
shifted down by delta' = additive_share * L_j^{ -1}, which must
reconstruct zero.  After the additive shares are broadcast the shift is
reversed; honest data collapses back to a degree-t polynomial whose
constant term matches the additive sum, while any manipulation leaves
degree 2t behind.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Generator, Sequence

from .field import (
    PrimeField,
    Polynomial,
    interpolate,
    lagrange_zero_inverses,
    locate,
)
from .net import (PROTO_DUAL_OUTPUT_CHECK, Rewrite, Send, add_to_send,
                  group_zp, recv, rewrite_sends, run_session, send)
from .rng import RandomSource
from .sharing import (
    AdditiveParams,
    AdditiveShare,
    BadParams,
    ParamMismatch,
    ShamirParams,
    ShamirShare,
    additive_add,
    additive_add_const,
    additive_cmul,
    additive_mult3_party,
    additive_reveal,
    shamir_add,
    shamir_add_const,
    shamir_cmul,
    shamir_mult_party,
    shamir_reveal,
    share_columns,
)

STEP_PHASE1 = 1
STEP_PHASE2 = 2


class CircuitMalformed(Exception):
    pass


@dataclass(frozen=True)
class DualParams:
    p: int
    t: int
    n: int

    def __post_init__(self):
        if self.n != 2 * self.t + 1:
            raise BadParams("dual sharing runs with n = 2t+1")
        if self.n >= self.p:
            raise BadParams("need n <= p-1")

    def shamir(self) -> ShamirParams:
        return ShamirParams(self.p, self.t, self.n)

    def additive(self) -> AdditiveParams:
        return AdditiveParams(self.p, self.n)

    def field(self) -> PrimeField:
        return PrimeField(self.p)


@dataclass(frozen=True)
class DualShare:
    shamir: ShamirShare
    additive: AdditiveShare

    @property
    def index(self) -> int:
        return self.shamir.index

    def __post_init__(self):
        if self.shamir.index != self.additive.index:
            raise ParamMismatch("component shares belong to different parties")


def dual_share(secret: int, params: DualParams, rng: RandomSource,
               shamir_coeffs: Sequence[int] | None = None,
               additive_randoms: Sequence[int] | None = None) -> list[DualShare]:
    """Draws t Shamir coefficients, then n-1 additive randoms, from `rng`."""
    p, t, n = params.p, params.t, params.n
    if shamir_coeffs is not None and len(shamir_coeffs) != t:
        raise ValueError("forced coefficient count must equal degree")
    if additive_randoms is not None and len(additive_randoms) != n - 1:
        raise BadParams("need exactly m-1 forced randoms")
    coeffs = shamir_coeffs[::-1] if shamir_coeffs else rng.randbelow_many(p, t)
    randoms = additive_randoms or rng.randbelow_many(p, n - 1)
    sh = share_columns([secret], [[c] for c in coeffs], p, n, shamir=True)
    ad = share_columns([secret], [[r % p] for r in randoms], p, n, shamir=False)
    sp, ap = params.shamir(), params.additive()
    return [DualShare(ShamirShare(i, s, sp), AdditiveShare(i, a, ap))
            for i, ((s,), (a,)) in enumerate(zip(sh, ad), start=1)]


def dual_reveal_oracle(shares: Sequence[DualShare]) -> tuple[int, int]:
    """Test oracle: reveal both components independently."""
    return (shamir_reveal([d.shamir for d in shares]),
            additive_reveal([d.additive for d in shares]))


def dual_add(a: DualShare, b: DualShare) -> DualShare:
    return DualShare(shamir_add(a.shamir, b.shamir), additive_add(a.additive, b.additive))


def dual_add_const(a: DualShare, c: int) -> DualShare:
    return DualShare(shamir_add_const(a.shamir, c),
                     additive_add_const(a.additive, c))


def dual_cmul(a: DualShare, c: int) -> DualShare:
    return DualShare(shamir_cmul(a.shamir, c), additive_cmul(a.additive, c))


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Input:
    party: int


@dataclass(frozen=True)
class AddConst:
    src: int
    c: int


@dataclass(frozen=True)
class MulConst:
    src: int
    c: int


@dataclass(frozen=True)
class Add:
    a: int
    b: int


@dataclass(frozen=True)
class Mul:
    a: int
    b: int


@dataclass(frozen=True)
class Output:
    src: int


Gate = Input | AddConst | MulConst | Add | Mul | Output


@dataclass(frozen=True)
class Circuit:
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for i, g in enumerate(self.gates):
            if isinstance(g, Input):
                refs = ()
            elif isinstance(g, (AddConst, MulConst, Output)):
                refs = (g.src,)
            else:
                refs = (g.a, g.b)
            for r in refs:
                if not 0 <= r < i:
                    raise CircuitMalformed(f"gate {i} references {r}")
        if not any(isinstance(g, Output) for g in self.gates):
            raise CircuitMalformed("circuit has no output gate")

    def outputs(self) -> list[int]:
        return [i for i, g in enumerate(self.gates) if isinstance(g, Output)]


def plaintext_eval(circuit: Circuit, inputs: dict[int, int], p: int) -> list[int]:
    """Reference evaluator over plain residues; the honest-path oracle."""
    wires: list[int] = []
    outs = []
    for i, g in enumerate(circuit.gates):
        if isinstance(g, Input):
            wires.append(inputs[i] % p)
        elif isinstance(g, AddConst):
            wires.append((wires[g.src] + g.c) % p)
        elif isinstance(g, MulConst):
            wires.append(wires[g.src] * g.c % p)
        elif isinstance(g, Add):
            wires.append((wires[g.a] + wires[g.b]) % p)
        elif isinstance(g, Mul):
            wires.append(wires[g.a] * wires[g.b] % p)
        else:
            wires.append(wires[g.src])
            outs.append(wires[g.src])
    return outs


@dataclass(frozen=True)
class BeaverTriple:
    """Dealer-generated multiplication triple (test facility for n > 3)."""
    a: DualShare
    b: DualShare
    c: DualShare


def deal_triples(count: int, params: DualParams, rng: RandomSource) -> list[list[BeaverTriple]]:
    """Trusted-dealer triples, one list per party index (1-based)."""
    per_party: list[list[BeaverTriple]] = [[] for _ in range(params.n)]
    for k in range(count):
        a = rng.randbelow(params.p)
        b = rng.randbelow(params.p)
        sa = dual_share(a, params, rng.child(f"tri/a/{k}"))
        sb = dual_share(b, params, rng.child(f"tri/b/{k}"))
        sc = dual_share(a * b % params.p, params, rng.child(f"tri/c/{k}"))
        for i in range(params.n):
            per_party[i].append(BeaverTriple(sa[i], sb[i], sc[i]))
    return per_party


def dual_eval_party(me: int, params: DualParams, circuit: Circuit,
                    my_inputs: dict[int, DualShare], rng: RandomSource,
                    triples: list[BeaverTriple] | None = None) -> Generator:
    """Evaluate the circuit gate by gate on this party's dual shares.

    Mul gates run both interactive multiplications when n = 3 (the only
    party count with an additive product protocol); for larger n they
    consume dealer triples.  Returns the output wires' DualShares.
    """
    f = params.field()
    zp = group_zp(params.p)
    wires: list[DualShare] = []
    mult_step = 10
    triple_idx = 0
    for i, g in enumerate(circuit.gates):
        if isinstance(g, Input):
            wires.append(my_inputs[i])
        elif isinstance(g, AddConst):
            wires.append(dual_add_const(wires[g.src], g.c))
        elif isinstance(g, MulConst):
            wires.append(dual_cmul(wires[g.src], g.c))
        elif isinstance(g, Add):
            wires.append(dual_add(wires[g.a], wires[g.b]))
        elif isinstance(g, Mul):
            x, y = wires[g.a], wires[g.b]
            if params.n == 3 and triples is None:
                sh_val = yield from shamir_mult_party(
                    me, params.shamir(), [x.shamir.value], [y.shamir.value],
                    rng.child(f"gmul/{i}"), step=mult_step)
                ad_val = yield from additive_mult3_party(
                    me, params.additive(), x.additive.value, y.additive.value,
                    rng.child(f"amul/{i}"))
                wires.append(DualShare(
                    ShamirShare(me, sh_val[0], params.shamir()),
                    AdditiveShare(me, ad_val, params.additive())))
                mult_step += 3
            else:
                if not triples or triple_idx >= len(triples):
                    raise BadParams("Mul gate needs dealer triples when n != 3")
                tri = triples[triple_idx]
                triple_idx += 1
                d_sh = dual_add(x, dual_cmul(tri.a, params.p - 1))
                e_sh = dual_add(y, dual_cmul(tri.b, params.p - 1))
                # Reveal d and e by broadcasting both components.
                for j in range(1, params.n + 1):
                    if j != me:
                        yield from send(j, mult_step, [(zp, [
                            d_sh.shamir.value, d_sh.additive.value,
                            e_sh.shamir.value, e_sh.additive.value])])
                add_d = {me: d_sh.additive.value}
                add_e = {me: e_sh.additive.value}
                for j in range(1, params.n + 1):
                    if j != me:
                        (vals,) = yield from recv(j, mult_step, [(zp, 4)])
                        add_d[j] = vals[1]
                        add_e[j] = vals[3]
                d = sum(add_d.values()) % params.p
                e = sum(add_e.values()) % params.p
                z = dual_add_const(
                    dual_add(tri.c, dual_add(dual_cmul(tri.a, e), dual_cmul(tri.b, d))),
                    d * e % params.p)
                wires.append(z)
                mult_step += 1
        else:
            wires.append(wires[g.src])
    return [wires[i] for i in circuit.outputs()]


# ---------------------------------------------------------------------------
# delta' and the output check
# ---------------------------------------------------------------------------

def delta_prime(field: PrimeField, delta: int, party_index: int,
                all_indices: Sequence[int]) -> int:
    """Share adjustment shifting the reconstructed secret by exactly delta.

    delta' = delta * L_j^{-1}, with L_j the Lagrange zero coefficient of
    this party's index within the reconstruction set.
    """
    indices = tuple(all_indices)
    return delta * lagrange_zero_inverses(field, indices)[
        indices.index(party_index)] % field.p


def additive_to_shamir_lift(field: PrimeField, values: Sequence[int],
                            indices: Sequence[int]) -> Polynomial:
    """Interpret additive shares as points of a degree-<=2t polynomial.

    Each share is multiplied by the inverse of its Lagrange coefficient, so
    the interpolated constant term equals the additive secret.
    """
    inverses = lagrange_zero_inverses(field, tuple(indices))
    return interpolate(field, [(idx, v * c % field.p)
                               for idx, v, c in zip(indices, values, inverses)])


class VerdictStatus(Enum):
    HONEST = "honest"
    ZERO_CHECK_FAILED = "zero_check_failed"
    DEGREE_VIOLATION = "degree_violation"


@dataclass(frozen=True)
class OutputVerdict:
    status: VerdictStatus
    secret: int | None = None
    phase1_polynomial: Polynomial | None = None
    reversal_polynomial: Polynomial | None = None
    suspects: frozenset[int] = dc_field(default_factory=frozenset)

    @property
    def honest(self) -> bool:
        return self.status is VerdictStatus.HONEST


@dataclass(frozen=True)
class CheatPlan:
    """A party that adds `phase2_delta` to the additive value it broadcasts
    in phase 2 of the output check, and is honest otherwise."""
    phase2_delta: int = 0

    def __call__(self, cmd: Send) -> Send:
        return (add_to_send(cmd, self.phase2_delta) if cmd.step == STEP_PHASE2
                else cmd)


def output_check_party(me: int, params: DualParams, dual: DualShare
                       ) -> Generator:
    """Algorithm step (d): zero-check broadcast, then additive reveal.

    Returns this party's OutputVerdict.  No phase-2 value leaves the party
    unless phase 1 reconstructed zero.
    """
    f = params.field()
    zp = group_zp(params.p)
    n = params.n
    indices = list(range(1, n + 1))
    dprime = delta_prime(f, dual.additive.value, me, indices)
    my_phase1 = (dual.shamir.value - dprime) % params.p

    for j in indices:
        if j != me:
            yield from send(j, STEP_PHASE1, [(zp, [my_phase1])])
    phase1 = {me: my_phase1}
    for j in indices:
        if j != me:
            (vals,) = yield from recv(j, STEP_PHASE1, [(zp, 1)])
            phase1[j] = vals[0]

    pts1 = [(j, phase1[j]) for j in indices]
    poly1 = interpolate(f, pts1)
    if poly1.constant_term() != 0:
        return OutputVerdict(VerdictStatus.ZERO_CHECK_FAILED,
                             phase1_polynomial=poly1)

    for j in indices:
        if j != me:
            yield from send(j, STEP_PHASE2, [(zp, [dual.additive.value])])
    additive = {me: dual.additive.value}
    for j in indices:
        if j != me:
            (vals,) = yield from recv(j, STEP_PHASE2, [(zp, 1)])
            additive[j] = vals[0]

    candidate = sum(additive.values()) % params.p
    reversal_pts = []
    for j in indices:
        dp = delta_prime(f, additive[j], j, indices)
        reversal_pts.append((j, (phase1[j] + dp) % params.p))
    poly2 = interpolate(f, reversal_pts)
    if poly2.degree <= params.t and poly2.constant_term() == candidate:
        return OutputVerdict(VerdictStatus.HONEST, secret=candidate,
                             phase1_polynomial=poly1, reversal_polynomial=poly2)
    res = locate(f, reversal_pts, params.t, params.t - 1)
    suspects = frozenset() if res is None else res.bad_indices
    return OutputVerdict(VerdictStatus.DEGREE_VIOLATION, secret=candidate,
                         phase1_polynomial=poly1, reversal_polynomial=poly2,
                         suspects=suspects)


def run_output_check(duals: Sequence[DualShare],
                     cheats: dict[int, Rewrite] | None = None):
    """Drive the output check over the simulator; per-party verdicts.  A
    party in `cheats` runs under that rewrite of its Sends (a CheatPlan)."""
    params = DualParams(duals[0].shamir.params.p, duals[0].shamir.params.t,
                        duals[0].shamir.params.n)
    programs = {d.index: output_check_party(d.index, params, d) for d in duals}
    for i, rewrite in (cheats or {}).items():
        programs[i] = rewrite_sends(programs[i], rewrite)
    net = run_session(programs, protocol_id=PROTO_DUAL_OUTPUT_CHECK)
    return net.results, net
