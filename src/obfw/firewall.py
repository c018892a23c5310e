"""Distributed oblivious firewall over a secret-shared Bloom filter.

An admin builds the plaintext filter from the blacklist, shares every
position among the servers (additive m-of-m or Shamir), and distributes
one share store per server.  A gateway evaluates membership obliviously:
the sum variant reconstructs the count of set positions, the product
variant reconstructs an AND bit.  Every Shamir verdict decodes the result
shares once, with `field.berlekamp_welch` under `_locate`'s error budget:
while at most t-1 servers cheat, every decision is right or an alert, and
every server an alert names did cheat.  `decide_bw` answers the decoded
bit; a majority vote settles the verdicts the servers return.  No rule
raises for a cheat: a failed decoding or a split vote is an alert.

Reveal convention: reconstruction subsets have size `t` over polynomials
of degree t-1, so a filter with m = 2t+1 servers yields C(m, t) reveal
combinations of which a single cheater touches exactly t/(2t+1).  The
paper's analysis of them stays below; no verdict runs it.
"""
from __future__ import annotations

import hmac as hmac_mod
import hashlib
import itertools
import math
import struct
import sys
import threading
from array import array
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Generator, Iterable, Sequence

from .bloom import (BloomFilter, BloomParams, SipHashFamily, read_obfw_file,
                    write_obfw_file)
from .errors import BadParams, IoError
from .field import (BWResult, NotPrime, PrimeField, berlekamp_welch,
                    interpolate_at_zero)
from .net import (
    PROTO_FW_EVAL_PRODUCT,
    PROTO_FW_EVAL_SUM,
    PROTO_FW_UPDATE,
    PROTO_MAJORITY_VOTE,
    Rewrite,
    Send,
    add_to_send,
    group_addr32,
    group_index,
    group_z2,
    group_zp,
    recv,
    rewrite_sends,
    run_session,
    send,
)
from .rng import UINT_TYPECODES, RandomSource
from .sharing import ShamirParams, mult_fanin_party, share_columns

# Share columns are unsigned 32-bit arrays: 4 bytes a share, so N < 2^32
# (the store header keeps N in 4 bytes as well).
SHARE_TYPECODE = "I"
MAX_MODULUS = (1 << 32) - 1
# After the filter file's header fields: scheme tag, party index, t, m, N.
_STORE_HEADER = struct.Struct("<BBBBI")
GATEWAY = 0
RESULT_STEP = 100
# The protocols a server daemon runs; the vote runs only in the simulator.
CHECK_PROTOCOLS = (PROTO_FW_EVAL_SUM, PROTO_FW_EVAL_PRODUCT)


class FirewallError(Exception):
    pass


class BadConfig(FirewallError, ValueError):
    pass


class ServerTimeout(FirewallError):
    pass


class AuthFail(FirewallError):
    pass


# The canonical text of every octet: ASCII digits, no leading zero, <= 255.
_OCTETS = {str(v): v for v in range(256)}


def parse_ipv4(text: str) -> bytes:
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {text!r}")
    try:
        return bytes([_OCTETS[p] for p in parts])
    except KeyError as exc:
        raise ValueError(f"bad octet {exc.args[0]!r} in {text!r}") from None


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
        write_obfw_file(
            path, cfg.bloom.beta, cfg.bloom.kappa,
            _STORE_HEADER.pack(0 if cfg.scheme == "additive" else 1,
                               self.party_index, cfg.t, cfg.m, cfg.N),
            *self.instance_keys, _pack_shares(values, cfg.share_width))

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
        vals = _unpack_shares(blob[off:], width)
        if max(vals, default=0) >= N:
            raise IoError(f"share value outside [0, {N})")
        return cls(config=cfg, party_index=party, instance_keys=keys,
                   values=vals, family=family, path=path)


def _pack_shares(values: array, width: int) -> bytes:
    """`values` as `width`-byte little-endian integers, back to back."""
    typecode = UINT_TYPECODES.get(width)
    if typecode is None:
        return b"".join(v.to_bytes(width, "little") for v in values)
    packed = array(typecode, values)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


def _unpack_shares(body: bytes, width: int) -> array:
    """The share column that `_pack_shares(values, width)` wrote as `body`."""
    typecode = UINT_TYPECODES.get(width)
    if typecode is None:
        return array(SHARE_TYPECODE, (int.from_bytes(body[i:i + width], "little")
                                      for i in range(0, len(body), width)))
    values = array(typecode, body)
    if sys.byteorder == "big":
        values.byteswap()
    return values if typecode == SHARE_TYPECODE else array(SHARE_TYPECODE, values)


# ---------------------------------------------------------------------------
# Initialization and updates (admin side)
# ---------------------------------------------------------------------------

# Positions dealt per batch: bounds the labels, draws and bits held at once.
# At 4096 and above the process's peak RSS grew by about 1 MB; at 512 it
# stays at the per-position dealer's, and dealing is as fast.
_DEAL_CHUNK = 512
# The eight bits of each byte value, lowest first, as BloomFilter stores them.
_BYTE_BITS = [tuple((b >> i) & 1 for i in range(8)) for b in range(256)]


def _deal(bits: Iterable[int], cfg: FirewallConfig, rng: RandomSource,
          prefix: str, labels: Iterable[int]) -> list[array]:
    """Share each bit with the stream `rng.child(f"{prefix}{label}")`; one
    packed column per server.

    Every chunk of `_DEAL_CHUNK` positions draws its streams in one batch
    and deals them through `share_columns`: the columns hold exactly what
    `additive_share` or `shamir_share` (degree t-1) deals each position.
    """
    N, m = cfg.N, cfg.m
    cols = [array(SHARE_TYPECODE) for _ in range(m)]
    shamir = cfg.scheme == "shamir"
    width = cfg.t - 1 if shamir else m - 1
    bits, labels = iter(bits), iter(labels)
    while True:
        chunk = [f"{prefix}{label}" for label in
                 itertools.islice(labels, _DEAL_CHUNK)]
        if not chunk:
            return cols
        chunk_bits = list(itertools.islice(bits, len(chunk)))
        draws = rng.child_draws(chunk, N, width)
        for col, shares in zip(cols, share_columns(chunk_bits, draws, N, m, shamir)):
            col.extend(shares)


def fw_init(blacklist: Sequence[str], cfg: FirewallConfig, rng: RandomSource,
            family=None) -> tuple[BloomFilter, list[ShareStore]]:
    """Trusted initialization: build, share and package the filter."""
    flt = BloomFilter(cfg.bloom, rng.bytes(16), family=family)
    flt.insert_many(map(parse_ipv4, blacklist))
    if isinstance(flt.family, SipHashFamily):
        keys = list(flt.family.keys)
    else:
        keys = [bytes(16)] * cfg.bloom.kappa  # stub family: keys unused
    beta = cfg.bloom.beta
    bits = itertools.chain.from_iterable(map(_BYTE_BITS.__getitem__, flt.bits))
    cols = _deal(bits, cfg, rng, "pos/", range(beta))
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
    cols = _deal([1] * len(positions), cfg, rng, "upd/", positions)
    return [list(zip(positions, col)) for col in cols]


def reveal_position(stores: Sequence[ShareStore], pos: int) -> int:
    """Test oracle: reconstruct one filter position from all stores."""
    cfg = stores[0].config
    if cfg.scheme == "additive":
        return sum(s.read([pos])[0] for s in stores) % cfg.N
    f = cfg.field()
    pts = [(s.party_index, s.read([pos])[0]) for s in stores[:cfg.t]]
    return interpolate_at_zero(f, pts)


# ---------------------------------------------------------------------------
# Combinational analysis, influence bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombinationReport:
    kind: str                   # 'agree' | 'majority' | 'no_majority'
    value: int | None
    suspects: frozenset[int]
    reveals: dict[tuple[int, ...], int]


def combinational_analysis(reveals: dict[tuple[int, ...], int]
                           ) -> CombinationReport:
    """Compare reconstructions across all reveal subsets.

    Agreement means no tampering; otherwise a strict majority value wins
    and the suspects are the indices present in every minority subset.
    """
    values = list(reveals.values())
    first = values[0]
    if all(v == first for v in values):
        return CombinationReport("agree", first, frozenset(), dict(reveals))
    best, best_count = Counter(values).most_common(1)[0]
    if best_count * 2 <= len(values):
        return CombinationReport("no_majority", None, frozenset(), dict(reveals))
    suspects = set.intersection(*(set(k) for k, v in reveals.items() if v != best))
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
    """The reconstruction at zero of every size-`reveal_size` subset of
    `shares`, keyed by its sorted indices."""
    return {combo: interpolate_at_zero(field, [(i, shares[i]) for i in combo])
            for combo in itertools.combinations(sorted(shares), reveal_size)}


# ---------------------------------------------------------------------------
# Evaluation protocols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalVerdict:
    decision: str               # 'block' | 'forward' | 'alert'
    value: int | None = None
    suspects: frozenset[int] = dc_field(default_factory=frozenset)


def _decision(value: int, top: int) -> str:
    """An honest result lies in [0, top] and equals `top` exactly when
    every hashed position is set: a sum counts them (top = kappa), a
    product is their AND (top = 1)."""
    if value > top:
        return "alert"      # no honest stores give this value
    return "block" if value == top else "forward"


def _locate(cfg: FirewallConfig, shares: dict[int, int]) -> BWResult | None:
    """Decode the result shares as a word of degree t-1 with an error
    budget of max(0, min((live-t)//2, live-2t+1)).  Past (live-t)//2 the
    decoding is not unique.  Past live-2t+1, a polynomial that t-1
    cheaters move their shares onto could lie within the budget, so the
    decoder would name honest servers and hand back the cheaters' value."""
    live = len(shares)
    budget = max(0, min((live - cfg.t) // 2, live - 2 * cfg.t + 1))
    return berlekamp_welch(cfg.field(), sorted(shares.items()), cfg.t - 1,
                           budget)


def _shamir_verdict(cfg: FirewallConfig, shares: dict[int, int],
                    top: int) -> EvalVerdict:
    """The verdict on Shamir result shares: `_decision(value, top)` when
    they lie on one polynomial, an alert naming the servers `_locate`
    corrects, with the decoded value, and an alert naming no one when it
    fails.  Exactly t shares leave nothing to check."""
    if len(shares) < cfg.t:
        raise ServerTimeout(f"need {cfg.t} responses, got {len(shares)}")
    res = _locate(cfg, shares)
    if res is None:
        return EvalVerdict("alert")
    value = res.polynomial.constant_term()
    if res.bad_indices:
        return EvalVerdict("alert", value=value, suspects=res.bad_indices)
    return EvalVerdict(_decision(value, top), value=value)


@dataclass(frozen=True)
class ServerTamper:
    """A server that adds `result_offset` to its result share: to what it
    sends the gateway and, in the vote, the other servers."""
    result_offset: int = 0

    def __call__(self, cmd: Send) -> Send:
        is_result = cmd.to == GATEWAY or cmd.step > RESULT_STEP
        return add_to_send(cmd, self.result_offset) if is_result else cmd


def server_sum_program(store: ShareStore) -> Generator:
    cfg = store.config
    zn = group_zp(cfg.N)
    ((addr_int,),) = yield from recv(GATEWAY, 1, [(group_addr32(), 1)])
    addr = addr_int.to_bytes(4, "big")
    sigma = sum(store.read(store.hash_indices(addr))) % cfg.N
    yield from send(GATEWAY, 2, [(zn, [sigma])])
    return None


def _gateway_program(cfg: FirewallConfig, addr: bytes, servers: Sequence[int],
                     result_step: int) -> Generator:
    """Send `addr` to `servers`; {server: its result share at `result_step`}."""
    zn = group_zp(cfg.N)
    addr_int = int.from_bytes(addr, "big")
    for i in servers:
        yield from send(i, 1, [(group_addr32(), [addr_int])])
    responses: dict[int, int] = {}
    for i in servers:
        ((v,),) = yield from recv(i, result_step, [(zn, 1)])
        responses[i] = v
    return responses


def gateway_sum_program(cfg: FirewallConfig, addr: bytes,
                        live: Sequence[int]) -> Generator:
    return _gateway_program(cfg, addr, live, 2)


def decide_sum(cfg: FirewallConfig, responses: dict[int, int]) -> EvalVerdict:
    if cfg.scheme == "shamir":
        return _shamir_verdict(cfg, responses, cfg.bloom.kappa)
    if len(responses) != cfg.m:
        raise ServerTimeout("additive evaluation needs every server")
    sigma = sum(responses.values()) % cfg.N
    return EvalVerdict(_decision(sigma, cfg.bloom.kappa), value=sigma)


def server_product_program(store: ShareStore, rng: RandomSource,
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
    yield from send(GATEWAY, RESULT_STEP, [(zn, [result])])
    if not broadcast:
        return None
    others = [j for j in range(1, cfg.m + 1) if j != store.party_index]
    for j in others:
        yield from send(j, RESULT_STEP + 1, [(zn, [result])])
    shares = {store.party_index: result}
    for j in others:
        ((v,),) = yield from recv(j, RESULT_STEP + 1, [(zn, 1)])
        shares[j] = v
    return decide_product(cfg, shares)


def gateway_product_program(cfg: FirewallConfig, addr: bytes) -> Generator:
    return _gateway_program(cfg, addr, range(1, cfg.m + 1), RESULT_STEP)


def decide_product(cfg: FirewallConfig, shares: dict[int, int]) -> EvalVerdict:
    return _shamir_verdict(cfg, shares, 1)


def decide_bw(cfg: FirewallConfig, shares: dict[int, int]) -> EvalVerdict:
    """The verdict on product result shares that corrects what `_locate`
    finds: the decoded bit, naming the servers it corrected; an alert
    naming no one when the decoding fails."""
    res = _locate(cfg, shares)
    if res is None:
        return EvalVerdict("alert")
    value = res.polynomial.constant_term()
    return EvalVerdict(_decision(value, 1), value=value, suspects=res.bad_indices)


def check_product_config(cfg: FirewallConfig) -> None:
    """Raise BadConfig unless product evaluation supports `cfg`."""
    if cfg.scheme != "shamir":
        raise BadConfig("product evaluation is implemented for Shamir stores")
    if cfg.m < 2 * cfg.t + 1:
        raise BadConfig("product evaluation needs m >= 2t+1 servers")


def gateway_session(cfg: FirewallConfig, mode: str, addr: bytes,
                    live: Sequence[int]):
    """A CHECK of `addr` in `mode` ('sum' asks `live`, 'product' all m):
    the gateway's program, the protocol id and the verdict rule.  A product
    CHECK first passes `check_product_config`."""
    if mode == "product":
        check_product_config(cfg)
        return (gateway_product_program(cfg, addr), PROTO_FW_EVAL_PRODUCT,
                decide_product)
    return gateway_sum_program(cfg, addr, live), PROTO_FW_EVAL_SUM, decide_sum


def server_program(store: ShareStore, protocol_id: int, rng) -> Generator | None:
    """A server's program for `protocol_id`, or None; the vote is a product
    that also sends its result share to the other servers, `rng()` its draws."""
    if protocol_id == PROTO_FW_EVAL_SUM:
        return server_sum_program(store)
    if protocol_id in (PROTO_FW_EVAL_PRODUCT, PROTO_MAJORITY_VOTE):
        return server_product_program(store, rng(),
                                      protocol_id == PROTO_MAJORITY_VOTE)
    return None


def _simulate(stores: Sequence[ShareStore], addr: bytes, protocol_id: int,
              seed, tampers: dict[int, Rewrite] | None,
              dead: frozenset[int], session_id: int):
    """Simulate the gateway and the servers of `stores` not in `dead`; a
    server in `tampers` runs its program under that rewrite of its Sends.
    A product session, the vote's too, makes the gateway's config check."""
    live = [s for s in stores if s.party_index not in dead]
    mode = "sum" if protocol_id == PROTO_FW_EVAL_SUM else "product"
    gateway, _, _ = gateway_session(stores[0].config, mode, addr,
                                    [s.party_index for s in live])
    programs: dict[int, Generator] = {GATEWAY: gateway}
    for s in live:
        programs[s.party_index] = server_program(s, protocol_id,
                                                 lambda: RandomSource(seed))
    for i, rewrite in (tampers or {}).items():
        programs[i] = rewrite_sends(programs[i], rewrite)
    return run_session(programs, session_id=session_id, protocol_id=protocol_id)


def run_eval_sum(stores: Sequence[ShareStore], addr: bytes,
                 dead: frozenset[int] = frozenset(),
                 tampers: dict[int, Rewrite] | None = None,
                 session_id: int = 0):
    net = _simulate(stores, addr, PROTO_FW_EVAL_SUM, 0, tampers, dead,
                    session_id)
    return decide_sum(stores[0].config, net.results[GATEWAY]), net


def run_eval_product(stores: Sequence[ShareStore], addr: bytes, seed=0,
                     tampers: dict[int, Rewrite] | None = None,
                     session_id: int = 0):
    net = _simulate(stores, addr, PROTO_FW_EVAL_PRODUCT, seed, tampers,
                    frozenset(), session_id)
    return decide_product(stores[0].config, net.results[GATEWAY]), net


def run_eval_bw(stores: Sequence[ShareStore], addr: bytes, seed=0,
                tampers: dict[int, Rewrite] | None = None,
                session_id: int = 0):
    """Product evaluation with Berlekamp-Welch recovery at the gateway."""
    net = _simulate(stores, addr, PROTO_FW_EVAL_PRODUCT, seed, tampers,
                    frozenset(), session_id)
    return decide_bw(stores[0].config, net.results[GATEWAY]), net


def majority_vote(verdicts: Sequence[EvalVerdict]) -> EvalVerdict:
    """The first verdict whose decision has a strict majority; without
    one, an alert that names no one."""
    best, n = Counter(v.decision for v in verdicts).most_common(1)[0]
    if n * 2 <= len(verdicts):
        return EvalVerdict("alert")
    return next(v for v in verdicts if v.decision == best)


def run_product_with_vote(stores: Sequence[ShareStore], addr: bytes, seed=0,
                          tampers: dict[int, Rewrite] | None = None,
                          session_id: int = 0):
    """Product evaluation plus the share broadcast enabling a server vote.

    Every server reconstructs locally from the broadcast shares and returns
    its verdict; the final decision is the strict majority of those m
    verdicts plus the gateway's own.  The broadcast adds m(m-1) result-share
    transmissions.
    """
    net = _simulate(stores, addr, PROTO_MAJORITY_VOTE, seed, tampers,
                    frozenset(), session_id)
    verdicts = [decide_product(stores[0].config, net.results[GATEWAY])]
    verdicts += [net.results[s.party_index] for s in stores]
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
