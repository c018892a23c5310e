"""Distributed oblivious firewall over a secret-shared Bloom filter.

An admin builds the plaintext filter from the blacklist, shares every
position among the servers (additive m-of-m or Shamir), and distributes
one share store per server.  A gateway evaluates membership obliviously:
the sum variant reconstructs the count of set positions, the product
variant reveals only whether every position is set.  The daemons run the
product variant as the zero test (protocol 13): each server answers
r(sigma - kappa) + z from PRSS shares r and z, in one round.  The paper's
product (protocol 10), which reconstructs the AND bit through a tree of
resharing multiplications, runs in the simulator.  Every Shamir verdict
decodes each result word once with `field.locate`: while at most t-1
servers cheat, every decision is right or an alert, and every server an
alert names did cheat.  `decide_bw` answers protocol 10's decoded bit; a
majority vote settles the verdicts the servers return.  No rule raises
for a cheat: a failed decoding or a split vote is an alert.

Reveal convention: reconstruction subsets have size `t` over polynomials
of degree t-1, so a filter with m = 2t+1 servers yields C(m, t) reveal
combinations of which a single cheater touches exactly t/(2t+1).  The
paper's analysis of them stays below; no verdict runs it.
"""
from __future__ import annotations

import itertools
import math
import os
import struct
import sys
import threading
from array import array
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Generator, Iterable, Sequence

from .bloom import (BloomFilter, BloomParams, SipHashFamily, read_file,
                    read_obfw_file, write_file, write_obfw_file)
from .errors import BadParams, IoError
from .field import NotPrime, PrimeField, interpolate_at_zero, locate
from .net import (
    PROTO_FW_EVAL_PRODUCT,
    PROTO_FW_EVAL_SUM,
    PROTO_FW_UPDATE,
    PROTO_FW_ZERO_TEST,
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
from .rng import RandomSource, unpack_uints, widen_uints
from .sharing import (PrssPlan, ShamirParams, mult_fanin_party, plan_pairs,
                      prss_plan, prss_sets, share_columns)

# Share columns are unsigned 32-bit arrays: 4 bytes a share, so N < 2^32
# (the store header keeps N in 4 bytes as well).
SHARE_TYPECODE = "I"
MAX_MODULUS = (1 << 32) - 1
# After the filter file's header fields: scheme tag, party index, t, m, N.
_STORE_HEADER = struct.Struct("<BBBBI")
# A store's PRSS key file, `<store>.keys`: magic, party index, t, m, key
# count, then the keys of `prss_sets` that hold the party, in that order.
_KEYS_MAGIC = b"OBFK1"
_KEYS_HEADER = struct.Struct("<5sBBBH")
_PRSS_KEY_BYTES = 32
# The most PRSS keys a server may hold, C(m-1, t-1): 210 is m/t = 11/5.
# There a server spends 0.4 ms of CPU per product CHECK on its PRSS pairs
# at N = 2^31 - 1 (K = 1) and 1.6 ms at N = 101 (K = 5), against 0.011 ms
# for the 4 keys of 5/2 (best of 9 runs, one core of a 2-vCPU x86 host,
# CPython 3.11).
MAX_PRSS_KEYS = 210
GATEWAY = 0
RESULT_STEP = 100
# The step of a server's refusal: no CHECK program receives at it.
REFUSAL_STEP = 0
# The protocols a server daemon runs: sum mode and the zero test.  The
# paper's product and the vote run only in the simulator.
CHECK_PROTOCOLS = (PROTO_FW_EVAL_SUM, PROTO_FW_ZERO_TEST)


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

    # A CHECK reads the field, the Shamir parameters, K and the product
    # verdicts; each is built once per config, on first use.
    def field(self) -> PrimeField:
        return self._field

    def shamir_params(self) -> ShamirParams:
        return self._shamir_params

    @cached_property
    def _field(self) -> PrimeField:
        return PrimeField(self.N)

    @cached_property
    def _shamir_params(self) -> ShamirParams:
        # Degree t-1 so that t shares reveal: the reveal-combination counts
        # C(m, t) then come out exactly as published.
        return ShamirParams(self.N, self.t - 1, self.m)

    @property
    def share_width(self) -> int:
        """Bytes a share takes in a store file: the fewest that hold N-1."""
        return max(1, ((self.N - 1).bit_length() + 7) // 8)

    @cached_property
    def zero_test_values(self) -> int:
        """K, the values each server answers in a zero test: the fewest with
        N^K >= 2^30.  A CHECK blocks an address wrongly only when all K
        random multipliers are 0, with probability N^-K <= 2^-30."""
        k = 1
        while self.N ** k < 1 << 30:
            k += 1
        return k

    @cached_property
    def product_refusal(self) -> str | None:
        """Why product evaluation cannot run on this config, or None."""
        if self.scheme != "shamir":
            return "product evaluation is implemented for Shamir stores"
        if self.m < 2 * self.t + 1:
            return "product evaluation needs m >= 2t+1 servers"
        return None

    @cached_property
    def zero_test_refusal(self) -> str | None:
        """Why the zero test cannot run on this config, or None: it also
        needs at most MAX_PRSS_KEYS keys a server."""
        if self.product_refusal is not None:
            return self.product_refusal
        keys = math.comb(self.m - 1, self.t - 1)
        if keys > MAX_PRSS_KEYS:
            return (f"the zero test at m={self.m} t={self.t} needs {keys} "
                    f"PRSS keys a server, above the limit of {MAX_PRSS_KEYS}")
        return None


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
    update reaches that file before it reaches memory.  `prss_keys` maps
    each PRSS key set that holds this server to its key; a store that can
    run the zero test has them, and `save` writes them beside the store.
    Give `prss_keys` a new mapping to change them: the zero test's plan of
    the keys is rebuilt when the mapping is a new one.
    """
    config: FirewallConfig
    party_index: int
    instance_keys: list[bytes]
    values: array
    prss_keys: dict[tuple[int, ...], bytes] = dc_field(default_factory=dict)
    _lock: threading.Lock = dc_field(default_factory=threading.Lock,
                                     repr=False, compare=False)
    # Hash family over `instance_keys`, built here unless given (a stub
    # family in tests); not saved with the store.
    family: object = dc_field(default=None, repr=False, compare=False)
    path: str | None = dc_field(default=None, compare=False)
    # Held from an update's file write to its in-memory write, so that
    # the file never goes back to an older state.
    _update_lock: threading.Lock = dc_field(default_factory=threading.Lock,
                                            repr=False, compare=False)
    # (the `prss_keys` mapping, its PrssPlan), built on first use.
    _prss_plan: tuple = dc_field(default=(None, None), init=False,
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

    def prss_plan(self) -> PrssPlan:
        """The plan of this server's PRSS keys, for `plan_pairs`."""
        keys, plan = self._prss_plan
        if keys is not self.prss_keys:
            keys = self.prss_keys
            plan = prss_plan(self.party_index, self.config.shamir_params(), keys)
            self._prss_plan = (keys, plan)
        return plan

    def hash_indices(self, addr: bytes) -> list[int]:
        return self.family.indices(addr, self.config.bloom.beta)

    # -- file format: header as the filter file plus scheme tag/index ------
    def save(self, path: str) -> None:
        """Write the store to `path` atomically, as `write_obfw_file` does,
        and its PRSS keys, if it has any, to `<path>.keys`."""
        self._write(path, self.values)
        if self.prss_keys:
            cfg = self.config
            sets = _prss_key_sets(cfg, self.party_index)
            write_file(path + ".keys",
                       _KEYS_HEADER.pack(_KEYS_MAGIC, self.party_index, cfg.t,
                                         cfg.m, len(sets)),
                       *[self.prss_keys[a] for a in sets])

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
                                 t=t, bloom=BloomParams(beta, kappa))
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
                   values=vals, family=family, path=path,
                   prss_keys=_load_prss_keys(path + ".keys", cfg, party))


def _prss_key_sets(cfg: FirewallConfig, party: int) -> list[tuple[int, ...]]:
    """The PRSS key sets that hold `party`, in key-file order."""
    return [a for a in prss_sets(cfg.shamir_params()) if party in a]


def _load_prss_keys(path: str, cfg: FirewallConfig,
                    party: int) -> dict[tuple[int, ...], bytes]:
    """The PRSS keys in the key file at `path`, none if there is no file;
    a file that is not the key file of server `party` under `cfg` is an
    IoError."""
    if not os.path.exists(path):
        return {}
    blob = read_file(path)
    if len(blob) < _KEYS_HEADER.size or not blob.startswith(_KEYS_MAGIC):
        raise IoError(f"no {_KEYS_MAGIC.decode()} header in {path}")
    _, key_party, t, m, count = _KEYS_HEADER.unpack_from(blob)
    if (key_party, t, m) != (party, cfg.t, cfg.m) or cfg.scheme != "shamir":
        raise IoError(f"{path} holds the keys of server {key_party} at "
                      f"m={m} t={t}, not of this store")
    sets = _prss_key_sets(cfg, party)
    body = blob[_KEYS_HEADER.size:]
    if count != len(sets) or len(body) != count * _PRSS_KEY_BYTES:
        raise IoError(f"{path} holds {len(body)} bytes of {count} keys; "
                      f"server {party} at m={m} t={t} has {len(sets)}")
    return {a: body[k * _PRSS_KEY_BYTES:(k + 1) * _PRSS_KEY_BYTES]
            for k, a in enumerate(sets)}


def _pack_shares(values: array, width: int) -> bytes:
    """`values` as `width`-byte little-endian integers, back to back."""
    packed = array(SHARE_TYPECODE, values)
    if sys.byteorder == "big":
        packed.byteswap()
    blob = packed.tobytes()
    if width == 4:
        return blob
    # Keep the low `width` bytes of each four: an array copy and `width`
    # slice copies, where converting to a narrower array goes value by value.
    narrow = bytearray(len(values) * width)
    for j in range(width):
        narrow[j::width] = blob[j::4]
    return bytes(narrow)


def _unpack_shares(body: bytes, width: int) -> array:
    """The share column that `_pack_shares(values, width)` wrote as `body`."""
    # A narrower array would convert to the share typecode value by value.
    return unpack_uints(body if width == 4 else widen_uints(body, width), 4)


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
    """Trusted initialization: build, share and package the filter, and,
    where `check_product_config` accepts `cfg`, deal the PRSS keys of the
    zero test.  The keys come from `rng.child("prss")`, a stream that no
    share draws from, so the shares are the same with or without them."""
    flt = BloomFilter(cfg.bloom, rng.bytes(16), family=family)
    flt.insert_many(map(parse_ipv4, blacklist))
    if isinstance(flt.family, SipHashFamily):
        keys = list(flt.family.keys)
    else:
        keys = [bytes(16)] * cfg.bloom.kappa  # stub family: keys unused
    beta = cfg.bloom.beta
    bits = itertools.chain.from_iterable(map(_BYTE_BITS.__getitem__, flt.bits))
    cols = _deal(bits, cfg, rng, "pos/", range(beta))
    prss = {}
    if cfg.zero_test_refusal is None:
        keys_rng = rng.child("prss")
        prss = {a: keys_rng.bytes(_PRSS_KEY_BYTES)
                for a in prss_sets(cfg.shamir_params())}
    stores = [ShareStore(config=cfg, party_index=i + 1, instance_keys=keys,
                         values=col, family=flt.family,
                         prss_keys={a: prss[a] for a in prss if i + 1 in a})
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


def _shamir_verdict(cfg: FirewallConfig, shares: dict[int, int],
                    top: int) -> EvalVerdict:
    """The verdict on Shamir result shares: `_decision(value, top)` when
    they lie on one polynomial, an alert naming the servers `locate`
    corrects, with the decoded value, and an alert naming no one when it
    fails.  Exactly t shares leave nothing to check."""
    if len(shares) < cfg.t:
        raise ServerTimeout(f"need {cfg.t} responses, got {len(shares)}")
    res = locate(cfg.field(), sorted(shares.items()), cfg.t - 1, cfg.t - 1)
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
                     result_step: int, count: int | None = None) -> Generator:
    """Send `addr` to `servers`; {server: its result share at `result_step`},
    or its list of `count` result values."""
    zn = group_zp(cfg.N)
    addr_int = int.from_bytes(addr, "big")
    for i in servers:
        yield from send(i, 1, [(group_addr32(), [addr_int])])
    responses: dict[int, object] = {}
    for i in servers:
        (values,) = yield from recv(i, result_step, [(zn, count or 1)])
        responses[i] = values if count else values[0]
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


# -- protocol 13, the zero test: the product CHECK of the daemons -----------

def server_zero_test_program(store: ShareStore, session_id: int) -> Generator:
    """Answer y_k = r_k (sigma - kappa) + z_k for each of K PRSS pairs
    (r_k, z_k), sigma being this server's share of the count of set
    positions.  The pairs come from one stream per key, session and
    address.  The y_k of all servers lie on a degree-2(t-1) polynomial
    through r_k (sigma - kappa), and no server waits on another."""
    cfg = store.config
    zn = group_zp(cfg.N)
    ((addr_int,),) = yield from recv(GATEWAY, 1, [(group_addr32(), 1)])
    addr = addr_int.to_bytes(4, "big")
    gap = sum(store.read(store.hash_indices(addr))) - cfg.bloom.kappa
    pairs = plan_pairs(store.prss_plan(), cfg.shamir_params(),
                       f"zero-test/{session_id}/{addr.hex()}",
                       cfg.zero_test_values)
    yield from send(GATEWAY, 2, [(zn, [(r * gap + z) % cfg.N for r, z in pairs])])
    return None


def server_refusal_program() -> Generator:
    """A server's answer to a CHECK it cannot run: the address, then one
    envelope at REFUSAL_STEP, where the gateway waits on another step, so
    the CHECK fails at once naming this server."""
    yield from recv(GATEWAY, 1, [(group_addr32(), 1)])
    yield from send(GATEWAY, REFUSAL_STEP, [(group_z2(), [0])])
    return None


def gateway_zero_test_program(cfg: FirewallConfig, addr: bytes) -> Generator:
    return _gateway_program(cfg, addr, range(1, cfg.m + 1), 2,
                            cfg.zero_test_values)


def decide_zero_test(cfg: FirewallConfig,
                     responses: dict[int, Sequence[int]]) -> EvalVerdict:
    """The verdict on the servers' K zero-test values each: every word
    decoded once by `locate` at degree 2(t-1) with t-1 colluders.  A word
    that fails to decode is an alert naming no one; servers that a decoding
    corrects are named in an alert.  Otherwise the CHECK blocks when every
    decoded value is 0 and forwards when any is not.  The value is the bit
    that a product reveals: 1 to block."""
    f = cfg.field()
    servers = sorted(responses)
    suspects: set[int] = set()
    bit = 1
    for k in range(cfg.zero_test_values):
        res = locate(f, [(i, responses[i][k]) for i in servers],
                     2 * (cfg.t - 1), cfg.t - 1)
        if res is None:
            return EvalVerdict("alert")
        suspects |= res.bad_indices
        if res.polynomial.constant_term():
            bit = 0
    if suspects:
        return EvalVerdict("alert", value=bit, suspects=frozenset(suspects))
    return EvalVerdict(_decision(bit, 1), value=bit)


# -- protocol 10, the paper's product, and the vote: simulator only ---------

def server_product_program(store: ShareStore, rng: RandomSource,
                           broadcast: bool = False) -> Generator:
    """Product evaluation: tree-multiply the kappa indexed shares."""
    cfg = store.config
    zn = group_zp(cfg.N)
    sp = cfg.shamir_params()
    ((addr_int,),) = yield from recv(GATEWAY, 1, [(group_addr32(), 1)])
    addr = addr_int.to_bytes(4, "big")
    vals = store.read(store.hash_indices(addr))
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
    """The verdict on product result shares that corrects what `locate`
    finds: the decoded bit, naming the servers it corrected; an alert
    naming no one when the decoding fails."""
    res = locate(cfg.field(), sorted(shares.items()), cfg.t - 1, cfg.t - 1)
    if res is None:
        return EvalVerdict("alert")
    value = res.polynomial.constant_term()
    return EvalVerdict(_decision(value, 1), value=value, suspects=res.bad_indices)


# -- choosing a CHECK's programs ----------------------------------------------

def check_product_config(cfg: FirewallConfig) -> None:
    """Raise BadConfig unless the product CHECK, the zero test, supports
    `cfg`."""
    why = cfg.zero_test_refusal
    if why is not None:
        raise BadConfig(why)


def gateway_program(cfg: FirewallConfig, protocol_id: int, addr: bytes,
                    live: Sequence[int]) -> Generator:
    """The gateway's program for a CHECK of `addr` under `protocol_id`;
    sum mode asks `live`, a product protocol all m after its config check."""
    if protocol_id == PROTO_FW_EVAL_SUM:
        return gateway_sum_program(cfg, addr, live)
    why = (cfg.zero_test_refusal if protocol_id == PROTO_FW_ZERO_TEST
           else cfg.product_refusal)
    if why is not None:
        raise BadConfig(why)
    if protocol_id == PROTO_FW_ZERO_TEST:
        return gateway_zero_test_program(cfg, addr)
    return gateway_product_program(cfg, addr)


def gateway_session(cfg: FirewallConfig, mode: str, addr: bytes,
                    live: Sequence[int]):
    """A CHECK of `addr` in `mode` ('sum' asks `live`, 'product' runs the
    zero test on all m): the gateway's program, the protocol id and the
    verdict rule."""
    proto, decide = ((PROTO_FW_ZERO_TEST, decide_zero_test) if mode == "product"
                     else (PROTO_FW_EVAL_SUM, decide_sum))
    return gateway_program(cfg, proto, addr, live), proto, decide


def server_program(store: ShareStore, protocol_id: int, session_id: int,
                   rng=None) -> Generator | None:
    """A server's program for `protocol_id` in session `session_id`, or
    None.  The vote is a product that also sends its result share to the
    other servers; `rng()` gives those two their draws.  A store whose
    config runs the zero test but that lacks its PRSS keys refuses one."""
    if protocol_id == PROTO_FW_EVAL_SUM:
        return server_sum_program(store)
    if protocol_id == PROTO_FW_ZERO_TEST:
        if store.config.zero_test_refusal is not None:
            return None         # no gateway runs the zero test on this config
        if not store.prss_keys:
            return server_refusal_program()
        return server_zero_test_program(store, session_id)
    if protocol_id in (PROTO_FW_EVAL_PRODUCT, PROTO_MAJORITY_VOTE):
        return server_product_program(store, rng(),
                                      protocol_id == PROTO_MAJORITY_VOTE)
    return None


def _simulate(stores: Sequence[ShareStore], addr: bytes, protocol_id: int,
              tampers: dict[int, Rewrite] | None,
              dead: frozenset[int] = frozenset(), seed=0, session_id: int = 0):
    """Simulate session `session_id` of the gateway and the servers of
    `stores` not in `dead`; a server in `tampers` runs its program under
    that rewrite of its Sends, and the product and the vote draw from
    `seed`."""
    live = [s for s in stores if s.party_index not in dead]
    programs: dict[int, Generator] = {GATEWAY: gateway_program(
        stores[0].config, protocol_id, addr, [s.party_index for s in live])}
    for s in live:
        programs[s.party_index] = server_program(s, protocol_id, session_id,
                                                 lambda: RandomSource(seed))
    for i, rewrite in (tampers or {}).items():
        programs[i] = rewrite_sends(programs[i], rewrite)
    return run_session(programs, session_id=session_id, protocol_id=protocol_id)


def run_eval_sum(stores: Sequence[ShareStore], addr: bytes,
                 dead: frozenset[int] = frozenset(),
                 tampers: dict[int, Rewrite] | None = None):
    net = _simulate(stores, addr, PROTO_FW_EVAL_SUM, tampers, dead)
    return decide_sum(stores[0].config, net.results[GATEWAY]), net


def run_eval_product(stores: Sequence[ShareStore], addr: bytes,
                     session_id: int = 0,
                     tampers: dict[int, Rewrite] | None = None):
    """The product CHECK that a product-mode gateway runs: the zero test,
    in session `session_id`."""
    net = _simulate(stores, addr, PROTO_FW_ZERO_TEST, tampers,
                    session_id=session_id)
    return decide_zero_test(stores[0].config, net.results[GATEWAY]), net


def run_eval_tree(stores: Sequence[ShareStore], addr: bytes, seed=0,
                  tampers: dict[int, Rewrite] | None = None):
    """The paper's product evaluation, protocol 10: the kappa indexed shares
    multiplied through the resharing tree, and `decide_product`."""
    net = _simulate(stores, addr, PROTO_FW_EVAL_PRODUCT, tampers, seed=seed)
    return decide_product(stores[0].config, net.results[GATEWAY]), net


def run_eval_bw(stores: Sequence[ShareStore], addr: bytes, seed=0,
                tampers: dict[int, Rewrite] | None = None):
    """Protocol 10 with Berlekamp-Welch recovery at the gateway."""
    net = _simulate(stores, addr, PROTO_FW_EVAL_PRODUCT, tampers, seed=seed)
    return decide_bw(stores[0].config, net.results[GATEWAY]), net


def majority_vote(verdicts: Sequence[EvalVerdict]) -> EvalVerdict:
    """The first verdict whose decision has a strict majority; without
    one, an alert that names no one."""
    best, n = Counter(v.decision for v in verdicts).most_common(1)[0]
    if n * 2 <= len(verdicts):
        return EvalVerdict("alert")
    return next(v for v in verdicts if v.decision == best)


def run_product_with_vote(stores: Sequence[ShareStore], addr: bytes, seed=0,
                          tampers: dict[int, Rewrite] | None = None):
    """Protocol 10 plus the share broadcast enabling a server vote.

    Every server reconstructs locally from the broadcast shares and returns
    its verdict; the final decision is the strict majority of those m
    verdicts plus the gateway's own.  The broadcast adds m(m-1) result-share
    transmissions.
    """
    net = _simulate(stores, addr, PROTO_MAJORITY_VOTE, tampers, seed=seed)
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
               seed=0):
    cfg = stores[0].config
    rng = RandomSource(seed)
    per_server = fw_update_pairs(flt, cfg, addr, rng)
    flt.insert(addr)  # admin keeps the plaintext filter in step
    count = len(per_server[0])
    programs: dict[int, Generator] = {
        ADMIN: admin_update_program(cfg, per_server)}
    for s in stores:
        programs[s.party_index] = server_update_program(s, count)
    return run_session(programs, protocol_id=PROTO_FW_UPDATE)


# ---------------------------------------------------------------------------
# Admin text-protocol authentication
# ---------------------------------------------------------------------------

def admin_mac(psk: bytes, line: str) -> str:
    import hmac     # on first use: it maps OpenSSL's libcrypto, about 3.6 MB
    return hmac.new(psk, line.encode(), "sha256").hexdigest()


def verify_admin_mac(psk: bytes, line: str, mac: str) -> None:
    import hmac
    if not hmac.compare_digest(admin_mac(psk, line), mac.strip()):
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
