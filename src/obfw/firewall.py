"""Distributed oblivious firewall over a secret-shared Bloom filter.

An admin builds the plaintext filter from the blacklist, shares every
position among the servers (additive m-of-m or Shamir), and distributes
one share store per server.  A gateway evaluates membership obliviously:
the sum variant reconstructs the count of set positions, the product
variant reconstructs an AND bit and survives malicious servers through
reveal-combination analysis, Berlekamp-Welch decoding, or a majority vote
over locally reconstructed verdicts.

Reveal convention: reconstruction subsets have size `t` over polynomials
of degree t-1, so a filter with m = 2t+1 servers yields C(m, t) reveal
combinations of which a single cheater touches exactly t/(2t+1).
"""
from __future__ import annotations

import hmac as hmac_mod
import hashlib
import itertools
import math
import operator
import struct
import threading
from array import array
from dataclasses import dataclass, field as dc_field
from typing import Generator, Iterable, Sequence

from .bloom import (BloomFilter, BloomParams, SipHashFamily, read_obfw_file,
                    write_obfw_file)
from .errors import BadParams, IoError
from .field import NotPrime, PrimeField, berlekamp_welch, interpolate_at_zero
from .net import (
    PROTO_FW_EVAL_PRODUCT,
    PROTO_FW_EVAL_SUM,
    PROTO_FW_UPDATE,
    PROTO_MAJORITY_VOTE,
    group_addr32,
    group_index,
    group_z2,
    group_zp,
    recv,
    run_session,
    send,
)
from .rng import RandomSource
from .sharing import ShamirParams, mult_fanin_party

# Share columns are unsigned 32-bit arrays: 4 bytes a share, so N < 2^32
# (the store header keeps N in 4 bytes as well).
SHARE_TYPECODE = "I"
MAX_MODULUS = (1 << 32) - 1
# After the filter file's header fields: scheme tag, party index, t, m, N.
_STORE_HEADER = struct.Struct("<BBBBI")
GATEWAY = 0
RESULT_STEP = 100


class FirewallError(Exception):
    pass


class BadConfig(FirewallError, ValueError):
    pass


class ServerTimeout(FirewallError):
    pass


class NoMajority(FirewallError):
    pass


class DecodeFail(FirewallError):
    pass


class AuthFail(FirewallError):
    pass


def parse_ipv4(text: str) -> bytes:
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {text!r}")
    out = bytearray()
    for p in parts:
        if not p.isdigit() or not 0 <= int(p) <= 255 or (p != "0" and p[0] == "0"):
            raise ValueError(f"bad octet {p!r} in {text!r}")
        out.append(int(p))
    return bytes(out)


@dataclass(frozen=True)
class FirewallConfig:
    scheme: str                 # 'additive' | 'shamir'
    m: int
    N: int
    bloom: BloomParams
    t: int = 0                  # reveal-subset size; sharing degree is t-1

    def __post_init__(self):
        if self.scheme not in ("additive", "shamir"):
            raise BadConfig("scheme must be additive or shamir")
        if self.N <= self.bloom.kappa:
            raise BadConfig("modulus must exceed the hash count")
        if self.N > MAX_MODULUS:
            raise BadConfig(f"modulus must be below 2^32, got {self.N}")
        if self.scheme == "shamir":
            if not 2 <= self.t <= self.m:
                raise BadConfig("need 2 <= t <= m for Shamir mode")
            try:
                self.shamir_params().field()
            except (BadParams, NotPrime) as exc:
                raise BadConfig(f"Shamir mode needs a prime N above m: {exc}") from exc
        if self.m < 2:
            raise BadConfig("need at least two servers")

    def field(self) -> PrimeField:
        return PrimeField(self.N)

    def shamir_params(self) -> ShamirParams:
        # Degree t-1 so that t shares reveal: the reveal-combination counts
        # C(m, t) then come out exactly as published.
        return ShamirParams(self.N, self.t - 1, self.m)

    @property
    def reveal_size(self) -> int:
        return self.t

    @property
    def share_width(self) -> int:
        """Bytes a share takes in a store file: the fewest that hold N-1."""
        return max(1, ((self.N - 1).bit_length() + 7) // 8)


# ---------------------------------------------------------------------------
# Share store
# ---------------------------------------------------------------------------

@dataclass
class ShareStore:
    """One server's view: its share of every filter position.

    `values` is a packed array; a list given to the constructor becomes
    one.  An evaluation reads its positions, and an update writes its
    positions, under one lock, so an evaluation sees all of an update or
    none of it.  A store loaded from a file keeps its `path`, and each
    update reaches that file before it reaches memory.
    """
    config: FirewallConfig
    party_index: int
    instance_keys: list[bytes]
    values: array
    _lock: threading.Lock = dc_field(default_factory=threading.Lock, repr=False)
    # Hash family over `instance_keys`, built here unless given (a stub
    # family in tests); not saved with the store.
    family: object = dc_field(default=None, repr=False, compare=False)
    path: str | None = dc_field(default=None, compare=False)
    # Held from an update's file write to its in-memory write, so that
    # the file never goes back to an older state.
    _update_lock: threading.Lock = dc_field(default_factory=threading.Lock,
                                            repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.values, array):
            self.values = array(SHARE_TYPECODE, self.values)
        if self.family is None:
            self.family = SipHashFamily.from_keys(self.instance_keys)

    def read(self, positions: Sequence[int]) -> list[int]:
        with self._lock:
            values = self.values
            return [values[j] for j in positions]

    def apply_update(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Write each (position, value) pair in place.

        Every pair is checked first, so a bad position changes nothing.  A
        store with a `path` saves the updated values there first; if that
        fails it raises IoError and memory is unchanged.
        """
        beta = len(self.values)
        fresh = [(idx, val % self.config.N) for idx, val in pairs]
        for idx, _ in fresh:
            if not 0 <= idx < beta:
                raise IndexError(f"position {idx} outside [0, {beta})")
        with self._update_lock:
            if self.path is not None:
                # Only updates write the values, and they hold this lock.
                updated = array(SHARE_TYPECODE, self.values)
                for idx, val in fresh:
                    updated[idx] = val
                self._write(self.path, updated)
            with self._lock:
                values = self.values
                for idx, val in fresh:
                    values[idx] = val

    def hash_indices(self, addr: bytes) -> list[int]:
        return self.family.indices(addr, self.config.bloom.beta)

    # -- file format: header as the filter file plus scheme tag/index ------
    def save(self, path: str) -> None:
        """Write the store to `path` atomically, as `write_obfw_file` does."""
        self._write(path, self.values)

    def _write(self, path: str, values: array) -> None:
        cfg = self.config
        width = cfg.share_width
        write_obfw_file(
            path, cfg.bloom.beta, cfg.bloom.kappa,
            _STORE_HEADER.pack(0 if cfg.scheme == "additive" else 1,
                               self.party_index, cfg.t, cfg.m, cfg.N),
            *self.instance_keys,
            b"".join(v.to_bytes(width, "little") for v in values))

    @classmethod
    def load(cls, path: str) -> "ShareStore":
        beta, kappa, blob = read_obfw_file(path)
        if len(blob) < _STORE_HEADER.size:
            raise IoError("truncated share-store header")
        tag, party, t, m, N = _STORE_HEADER.unpack_from(blob)
        if tag not in (0, 1):
            raise IoError(f"unknown sharing scheme tag {tag}")
        off = _STORE_HEADER.size
        keys = [blob[off + 16 * i: off + 16 * (i + 1)] for i in range(kappa)]
        off += 16 * kappa
        try:
            cfg = FirewallConfig(scheme=("additive", "shamir")[tag], m=m, N=N,
                                 t=t, bloom=BloomParams(beta=beta, kappa=kappa,
                                                        eta=1, target_fp=0.5))
            family = SipHashFamily.from_keys(keys)
        except (BadConfig, BadParams) as exc:
            raise IoError(f"share-store header: {exc}") from exc
        if not 1 <= party <= m:
            raise IoError(f"party index {party} outside [1, {m}]")
        width = cfg.share_width
        if len(blob) != off + beta * width:
            raise IoError(f"share store holds {len(blob) - off} bytes of "
                          f"shares, its header says {beta * width}")
        vals = array(SHARE_TYPECODE, (int.from_bytes(blob[i:i + width], "little")
                                      for i in range(off, len(blob), width)))
        if max(vals, default=0) >= N:
            raise IoError(f"share value outside [0, {N})")
        return cls(config=cfg, party_index=party, instance_keys=keys,
                   values=vals, family=family, path=path)


# ---------------------------------------------------------------------------
# Initialization and updates (admin side)
# ---------------------------------------------------------------------------

def _deal(bits: Iterable[int], cfg: FirewallConfig,
          rngs: Iterable[RandomSource]) -> list[array]:
    """Share each bit with its own stream; one packed column per server.

    Draws as `additive_share` and `shamir_share` do, so the columns hold
    exactly their share values: additive takes m-1 uniform shares and
    closes the sum with the last; Shamir takes t-1 coefficients, lowest
    power first, and evaluates at x = 1..m.
    """
    N, m = cfg.N, cfg.m
    cols = [array(SHARE_TYPECODE) for _ in range(m)]
    appends = [c.append for c in cols]
    if cfg.scheme == "additive":
        head, last = appends[:-1], appends[-1]
        for bit, rng in zip(bits, rngs):
            draws = rng.randbelow_many(N, m - 1)
            for append, v in zip(head, draws):
                append(v)
            last((bit - sum(draws)) % N)
        return cols
    degree = cfg.t - 1
    powers = [[pow(x, j, N) for j in range(1, degree + 1)]
              for x in range(1, m + 1)]
    pairs = list(zip(appends, powers))
    for bit, rng in zip(bits, rngs):
        coeffs = rng.randbelow_many(N, degree)
        for append, pw in pairs:
            append((bit + sum(map(operator.mul, coeffs, pw))) % N)
    return cols


def fw_init(blacklist: Sequence[str], cfg: FirewallConfig, rng: RandomSource,
            family=None) -> tuple[BloomFilter, list[ShareStore]]:
    """Trusted initialization: build, share and package the filter."""
    flt = BloomFilter(cfg.bloom, rng.bytes(16), family=family)
    for line in blacklist:
        flt.insert(parse_ipv4(line))
    if isinstance(flt.family, SipHashFamily):
        keys = list(flt.family.keys)
    else:
        keys = [bytes(16)] * cfg.bloom.kappa  # stub family: keys unused
    beta = cfg.bloom.beta
    cols = _deal(map(flt.bit, range(beta)), cfg,
                 (rng.child(f"pos/{pos}") for pos in range(beta)))
    stores = [ShareStore(config=cfg, party_index=i + 1, instance_keys=keys,
                         values=col, family=flt.family)
              for i, col in enumerate(cols)]
    return flt, stores


def fw_update_pairs(flt: BloomFilter, cfg: FirewallConfig, addr: bytes,
                    rng: RandomSource) -> list[list[tuple[int, int]]]:
    """Per-server (position, fresh-share-of-1) replacement lists.

    Replacement, not increment: incrementing a set position would leave a
    share of 2 behind, so every hashed position gets a brand-new sharing
    of 1 (idempotent at the plaintext level, re-randomizing at the share
    level).
    """
    positions = sorted(set(flt.hash_indices(addr)))
    cols = _deal([1] * len(positions), cfg,
                 (rng.child(f"upd/{pos}") for pos in positions))
    return [list(zip(positions, col)) for col in cols]


def reveal_position(stores: Sequence[ShareStore], pos: int) -> int:
    """Test oracle: reconstruct one filter position from all stores."""
    cfg = stores[0].config
    if cfg.scheme == "additive":
        return sum(s.read([pos])[0] for s in stores) % cfg.N
    f = cfg.field()
    pts = [(s.party_index, s.read([pos])[0]) for s in stores[:cfg.reveal_size]]
    return interpolate_at_zero(f, pts)


# ---------------------------------------------------------------------------
# Combinational analysis, influence bounds, BW decoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombinationReport:
    kind: str                   # 'agree' | 'majority' | 'no_majority'
    value: int | None
    suspects: frozenset[int]
    reveals: dict[tuple[int, ...], int]


def combinational_analysis(reveals: dict[tuple[int, ...], int], m: int,
                           t: int) -> CombinationReport:
    """Compare reconstructions across all size-t subsets.

    Agreement means no tampering; otherwise a strict majority value wins
    and the suspects are the indices present in every minority subset.
    """
    values = list(reveals.values())
    first = values[0]
    if all(v == first for v in values):
        return CombinationReport("agree", first, frozenset(), dict(reveals))
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best, best_count = max(counts.items(), key=lambda kv: kv[1])
    if best_count * 2 <= len(values):
        return CombinationReport("no_majority", None, frozenset(), dict(reveals))
    minority_subsets = [set(k) for k, v in reveals.items() if v != best]
    suspects = set.intersection(*minority_subsets) if minority_subsets else set()
    return CombinationReport("majority", best, frozenset(suspects), dict(reveals))


def influence_bound(m: int, t: int, x: int) -> tuple[int, int, bool]:
    """(combinations a coalition of x can influence, total, safety flag)."""
    if not 0 <= x < m:
        raise ValueError("corrupt count must satisfy 0 <= x < m")
    total = math.comb(m, t)
    influenced = sum(math.comb(x, i) * math.comb(m - x, t - i)
                     for i in range(1, min(x, t) + 1))
    return influenced, total, total > 2 * influenced


def reveal_combinations(field: PrimeField, shares: dict[int, int],
                        reveal_size: int) -> dict[tuple[int, ...], int]:
    out = {}
    for combo in itertools.combinations(sorted(shares), reveal_size):
        pts = [(i, shares[i]) for i in combo]
        out[combo] = interpolate_at_zero(field, pts)
    return out


def bw_decode(field: PrimeField, shares: dict[int, int], degree: int):
    """Berlekamp-Welch over the result shares; (value, bad indices)."""
    pts = sorted(shares.items())
    e = (len(pts) - degree - 1) // 2
    res = berlekamp_welch(field, pts, degree, e)
    if res is None:
        raise DecodeFail("no polynomial within the error budget")
    return res.polynomial.constant_term(), set(res.bad_indices)


# ---------------------------------------------------------------------------
# Evaluation protocols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalVerdict:
    decision: str               # 'block' | 'forward' | 'alert'
    value: int | None = None
    suspects: frozenset[int] = dc_field(default_factory=frozenset)
    reveals: dict = dc_field(default_factory=dict)

    @property
    def blocked(self) -> bool:
        return self.decision == "block"


@dataclass(frozen=True)
class ServerTamper:
    """Test-only corruption: offset added to the server's result share."""
    result_offset: int = 0


def server_sum_program(store: ShareStore, tamper: ServerTamper | None = None
                       ) -> Generator:
    cfg = store.config
    zn = group_zp(cfg.N)
    ((addr_int,),) = yield from recv(GATEWAY, 1, [(group_addr32(), 1)])
    addr = addr_int.to_bytes(4, "big")
    sigma = sum(store.read(store.hash_indices(addr))) % cfg.N
    if tamper is not None:
        sigma = (sigma + tamper.result_offset) % cfg.N
    yield from send(GATEWAY, 2, [(zn, [sigma])])
    return None


def gateway_sum_program(cfg: FirewallConfig, addr: bytes,
                        live: Sequence[int]) -> Generator:
    zn = group_zp(cfg.N)
    addr_int = int.from_bytes(addr, "big")
    for i in live:
        yield from send(i, 1, [(group_addr32(), [addr_int])])
    responses: dict[int, int] = {}
    for i in live:
        ((v,),) = yield from recv(i, 2, [(zn, 1)])
        responses[i] = v
    return responses


def decide_sum(cfg: FirewallConfig, responses: dict[int, int]) -> EvalVerdict:
    if cfg.scheme == "additive":
        if len(responses) != cfg.m:
            raise ServerTimeout("additive evaluation needs every server")
        sigma = sum(responses.values()) % cfg.N
    else:
        if len(responses) < cfg.reveal_size:
            raise ServerTimeout(
                f"need {cfg.reveal_size} responses, got {len(responses)}")
        pts = sorted(responses.items())[:cfg.reveal_size]
        sigma = interpolate_at_zero(cfg.field(), pts)
    if sigma > cfg.bloom.kappa:
        # Honest stores count at most kappa set positions: the stores
        # disagree.
        return EvalVerdict("alert", value=sigma)
    decision = "block" if sigma == cfg.bloom.kappa else "forward"
    return EvalVerdict(decision, value=sigma)


def run_eval_sum(stores: Sequence[ShareStore], addr: bytes,
                 dead: frozenset[int] = frozenset(),
                 tampers: dict[int, ServerTamper] | None = None,
                 session_id: int = 0):
    cfg = stores[0].config
    live = [s.party_index for s in stores if s.party_index not in dead]
    programs: dict[int, Generator] = {
        GATEWAY: gateway_sum_program(cfg, addr, live)}
    for s in stores:
        if s.party_index in dead:
            continue
        programs[s.party_index] = server_sum_program(
            s, (tampers or {}).get(s.party_index))
    net = run_session(programs, session_id=session_id,
                      protocol_id=PROTO_FW_EVAL_SUM)
    verdict = decide_sum(cfg, net.results[GATEWAY])
    return verdict, net


def server_product_program(store: ShareStore, rng: RandomSource,
                           tamper: ServerTamper | None = None,
                           broadcast: bool = False) -> Generator:
    """Product evaluation: tree-multiply the kappa indexed shares."""
    cfg = store.config
    zn = group_zp(cfg.N)
    sp = cfg.shamir_params()
    ((addr_int,),) = yield from recv(GATEWAY, 1, [(group_addr32(), 1)])
    addr = addr_int.to_bytes(4, "big")
    vals = store.read(store.hash_indices(addr))
    if len(vals) == 1:
        result = vals[0]
    else:
        result = yield from mult_fanin_party(store.party_index, sp, vals,
                                             rng.child(f"fw/{store.party_index}"))
    if tamper is not None:
        result = (result + tamper.result_offset) % cfg.N
    yield from send(GATEWAY, RESULT_STEP, [(zn, [result])])
    if not broadcast:
        return None
    for j in range(1, cfg.m + 1):
        if j != store.party_index:
            yield from send(j, RESULT_STEP + 1, [(zn, [result])])
    shares = {store.party_index: result}
    for j in range(1, cfg.m + 1):
        if j != store.party_index:
            ((v,),) = yield from recv(j, RESULT_STEP + 1, [(zn, 1)])
            shares[j] = v
    return decide_product(cfg, shares)


def gateway_product_program(cfg: FirewallConfig, addr: bytes) -> Generator:
    zn = group_zp(cfg.N)
    addr_int = int.from_bytes(addr, "big")
    for i in range(1, cfg.m + 1):
        yield from send(i, 1, [(group_addr32(), [addr_int])])
    shares: dict[int, int] = {}
    for i in range(1, cfg.m + 1):
        ((v,),) = yield from recv(i, RESULT_STEP, [(zn, 1)])
        shares[i] = v
    return shares


def decide_product(cfg: FirewallConfig, shares: dict[int, int]) -> EvalVerdict:
    report = combinational_analysis(
        reveal_combinations(cfg.field(), shares, cfg.reveal_size),
        cfg.m, cfg.reveal_size)
    if report.kind == "agree":
        if report.value == 1:
            return EvalVerdict("block", value=1, reveals=report.reveals)
        if report.value == 0:
            return EvalVerdict("forward", value=0, reveals=report.reveals)
        return EvalVerdict("alert", value=report.value, reveals=report.reveals)
    if report.kind == "majority":
        return EvalVerdict("alert", value=report.value,
                           suspects=report.suspects, reveals=report.reveals)
    raise NoMajority("reveal combinations have no strict majority")


def _run_product_session(stores: Sequence[ShareStore], addr: bytes, seed,
                         tampers: dict[int, ServerTamper] | None,
                         session_id: int, protocol_id: int,
                         broadcast: bool = False):
    """Run the gateway and every server's product program in one session."""
    rng = RandomSource(seed)
    programs: dict[int, Generator] = {
        GATEWAY: gateway_product_program(stores[0].config, addr)}
    for s in stores:
        programs[s.party_index] = server_product_program(
            s, rng, (tampers or {}).get(s.party_index), broadcast)
    return run_session(programs, session_id=session_id, protocol_id=protocol_id)


def check_product_config(cfg: FirewallConfig) -> None:
    """Raise BadConfig unless product evaluation supports `cfg`."""
    if cfg.scheme != "shamir":
        if cfg.m != 3:
            raise BadConfig("additive product evaluation needs exactly 3 servers")
        raise BadConfig("product evaluation is implemented for Shamir stores")
    if cfg.m < 2 * cfg.t + 1:
        raise BadConfig("product evaluation needs m >= 2t+1 servers")


def run_eval_product(stores: Sequence[ShareStore], addr: bytes, seed=0,
                     tampers: dict[int, ServerTamper] | None = None,
                     session_id: int = 0):
    cfg = stores[0].config
    check_product_config(cfg)
    net = _run_product_session(stores, addr, seed, tampers, session_id,
                               PROTO_FW_EVAL_PRODUCT)
    verdict = decide_product(cfg, net.results[GATEWAY])
    return verdict, net


def run_eval_bw(stores: Sequence[ShareStore], addr: bytes, seed=0,
                tampers: dict[int, ServerTamper] | None = None,
                session_id: int = 0):
    """Product evaluation with Berlekamp-Welch recovery at the gateway."""
    cfg = stores[0].config
    if cfg.scheme != "shamir":
        raise BadConfig("BW recovery requires Shamir stores")
    net = _run_product_session(stores, addr, seed, tampers, session_id,
                               PROTO_FW_EVAL_PRODUCT)
    shares = net.results[GATEWAY]
    value, bad = bw_decode(cfg.field(), shares, cfg.t - 1)
    decision = "block" if value == 1 else "forward"
    return EvalVerdict(decision, value=value, suspects=frozenset(bad),
                       reveals={tuple(sorted(shares)): value}), net


def majority_vote(verdicts: Sequence[EvalVerdict]) -> EvalVerdict:
    """Strict-majority decision over locally reconstructed verdicts."""
    counts: dict[str, int] = {}
    for v in verdicts:
        counts[v.decision] = counts.get(v.decision, 0) + 1
    best, n = max(counts.items(), key=lambda kv: kv[1])
    if n * 2 <= len(verdicts):
        raise NoMajority(f"verdict split {counts}")
    for v in verdicts:
        if v.decision == best:
            return v


def run_product_with_vote(stores: Sequence[ShareStore], addr: bytes, seed=0,
                          tampers: dict[int, ServerTamper] | None = None,
                          lie_about_verdict: dict[int, str] | None = None,
                          session_id: int = 0):
    """Product evaluation plus the share broadcast enabling a server vote.

    Every server reconstructs locally from the broadcast shares; the final
    decision is the strict majority of the m server verdicts plus the
    gateway's own.  The broadcast adds m(m-1) result-share transmissions.
    """
    cfg = stores[0].config
    net = _run_product_session(stores, addr, seed, tampers, session_id,
                               PROTO_MAJORITY_VOTE, broadcast=True)
    gateway_verdict = decide_product(cfg, net.results[GATEWAY])
    verdicts = [gateway_verdict]
    for s in stores:
        v = net.results[s.party_index]
        claimed = (lie_about_verdict or {}).get(s.party_index)
        if claimed is not None:
            v = EvalVerdict(claimed)
        verdicts.append(v)
    return majority_vote(verdicts), verdicts, net


# ---------------------------------------------------------------------------
# Update protocol (admin -> servers over the envelope transport)
# ---------------------------------------------------------------------------

ADMIN = 255


def admin_update_program(cfg: FirewallConfig,
                         per_server: list[list[tuple[int, int]]]) -> Generator:
    zn = group_zp(cfg.N)
    idx = group_index(cfg.bloom.beta)
    for i in range(1, cfg.m + 1):
        pairs = per_server[i - 1]
        yield from send(i, 1, [(idx, [p for p, _ in pairs]),
                               (zn, [v for _, v in pairs])])
    for i in range(1, cfg.m + 1):
        yield from recv(i, 2, [(group_z2(), 1)])
    return None


def server_update_program(store: ShareStore, count: int) -> Generator:
    cfg = store.config
    zn = group_zp(cfg.N)
    idx = group_index(cfg.bloom.beta)
    (positions, values) = yield from recv(ADMIN, 1, [(idx, count), (zn, count)])
    store.apply_update(list(zip(positions, values)))
    yield from send(ADMIN, 2, [(group_z2(), [1])])
    return None


def run_update(stores: Sequence[ShareStore], flt: BloomFilter, addr: bytes,
               seed=0, session_id: int = 0):
    cfg = stores[0].config
    rng = RandomSource(seed)
    per_server = fw_update_pairs(flt, cfg, addr, rng)
    flt.insert(addr)  # admin keeps the plaintext filter in step
    count = len(per_server[0])
    programs: dict[int, Generator] = {
        ADMIN: admin_update_program(cfg, per_server)}
    for s in stores:
        programs[s.party_index] = server_update_program(s, count)
    net = run_session(programs, session_id=session_id,
                      protocol_id=PROTO_FW_UPDATE)
    return net


# ---------------------------------------------------------------------------
# Admin text-protocol authentication
# ---------------------------------------------------------------------------

def admin_mac(psk: bytes, line: str) -> str:
    return hmac_mod.new(psk, line.encode(), hashlib.sha256).hexdigest()


def verify_admin_mac(psk: bytes, line: str, mac: str) -> None:
    if not hmac_mod.compare_digest(admin_mac(psk, line), mac.strip()):
        raise AuthFail("admin HMAC mismatch")


# ---------------------------------------------------------------------------
# What reveal values let an observer deduce (privacy comparison)
# ---------------------------------------------------------------------------

def deduce_from_sums(beta: int,
                     observations: Sequence[tuple[Sequence[int], int]]
                     ) -> list[int | None]:
    """Constraint-propagate sum observations into known filter bits."""
    bits: list[int | None] = [None] * beta
    changed = True
    while changed:
        changed = False
        for indices, sigma in observations:
            unknown = [i for i in indices if bits[i] is None]
            known = sum(bits[i] for i in indices if bits[i] is not None)
            if not unknown:
                continue
            rem = sigma - known
            if rem == 0:
                for i in unknown:
                    bits[i] = 0
                changed = True
            elif rem == len(unknown):
                for i in unknown:
                    bits[i] = 1
                changed = True
    return bits


def deduce_from_products(beta: int,
                         observations: Sequence[tuple[Sequence[int], int]]
                         ) -> list[int | None]:
    """Same deduction under product observations: far weaker signals."""
    bits: list[int | None] = [None] * beta
    changed = True
    while changed:
        changed = False
        for indices, pi in observations:
            unknown = [i for i in indices if bits[i] is None]
            if pi == 1:
                for i in indices:
                    if bits[i] != 1:
                        bits[i] = 1
                        changed = True
            elif pi == 0 and len(unknown) == 1 \
                    and all(bits[i] == 1 for i in indices if bits[i] is not None):
                bits[unknown[0]] = 0
                changed = True
    return bits
