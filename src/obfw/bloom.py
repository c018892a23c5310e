"""Bloom filter, keyed hash family and parameter derivation.

The hash family is SipHash-2-4 keyed per index: instance t gets a 128-bit
key derived from the 16-byte master key by PRF calls on the index.  Index
mapping is hash_t(item) mod beta.  The kappa hashes of one item share the
message, so SipHashFamily runs them side by side in packed integers;
`siphash24` is the scalar reference.  Plaintext filters belong on the
admin machine only; servers ever see secret shares of the bit array.

The filter file and the servers' share stores open with the same header
(magic, beta, kappa); `read_obfw_file` and `write_obfw_file` are the one
reader and the one writer of both.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Sequence

from .errors import BadParams, IoError

MAGIC = b"OBFW1"
_HEADER = struct.Struct("<5sQH")    # magic, beta, kappa
_MASK = 0xFFFFFFFFFFFFFFFF


def _rotl(x: int, b: int) -> int:
    return ((x << b) | (x >> (64 - b))) & _MASK


def siphash24(key: bytes, data: bytes) -> int:
    """SipHash-2-4 with a 128-bit key; returns a 64-bit integer."""
    if len(key) != 16:
        raise BadParams("SipHash key must be 16 bytes")
    k0, k1 = struct.unpack("<QQ", key)
    v0 = k0 ^ 0x736F6D6570736575
    v1 = k1 ^ 0x646F72616E646F6D
    v2 = k0 ^ 0x6C7967656E657261
    v3 = k1 ^ 0x7465646279746573

    def rounds(n: int) -> None:
        nonlocal v0, v1, v2, v3
        for _ in range(n):
            v0 = (v0 + v1) & _MASK
            v1 = _rotl(v1, 13) ^ v0
            v0 = _rotl(v0, 32)
            v2 = (v2 + v3) & _MASK
            v3 = _rotl(v3, 16) ^ v2
            v0 = (v0 + v3) & _MASK
            v3 = _rotl(v3, 21) ^ v0
            v2 = (v2 + v1) & _MASK
            v1 = _rotl(v1, 17) ^ v2
            v2 = _rotl(v2, 32)

    padded = data + b"\x00" * (7 - (len(data) % 8)) + bytes([len(data) % 256])
    for off in range(0, len(padded), 8):
        m = struct.unpack_from("<Q", padded, off)[0]
        v3 ^= m
        rounds(2)
        v0 ^= m
    v2 ^= 0xFF
    rounds(4)
    return v0 ^ v1 ^ v2 ^ v3


def derive_instance_key(master: bytes, t: int) -> bytes:
    """128-bit key for hash instance t from the master key."""
    lo = siphash24(master, struct.pack("<Q", t))
    hi = siphash24(master, struct.pack("<QB", t, 1))
    return struct.pack("<QQ", lo, hi)


def _sipround(v0: int, v1: int, v2: int, v3: int, mask: int
              ) -> tuple[int, int, int, int]:
    """One SipRound on every lane of the packed state at once.

    A lane is 64 state bits followed by a 64-bit gap.  The gap takes an
    addition's carry and the bits a left shift pushes out; `y | y >> 64`
    brings those back as the rotation's low bits, and `mask` clears the
    gaps after each step.
    """
    v0 = (v0 + v1) & mask
    y = v1 << 13
    v1 = ((y | y >> 64) & mask) ^ v0
    y = v0 << 32
    v0 = (y | y >> 64) & mask
    v2 = (v2 + v3) & mask
    y = v3 << 16
    v3 = ((y | y >> 64) & mask) ^ v2
    v0 = (v0 + v3) & mask
    y = v3 << 21
    v3 = ((y | y >> 64) & mask) ^ v0
    v2 = (v2 + v1) & mask
    y = v1 << 17
    v1 = ((y | y >> 64) & mask) ^ v2
    y = v2 << 32
    v2 = (y | y >> 64) & mask
    return v0, v1, v2, v3


class SipHashFamily:
    """kappa keyed SipHash instances; index = hash_t(item) mod beta.

    All kappa instances hash an item together.  Each of the four state
    words of every key is packed into one int, key j's word in bits
    [128j, 128j + 64), so one big-int operation advances every instance.
    The packed initial state depends only on the keys and is built once.
    """

    def __init__(self, master_key: bytes, kappa: int):
        if len(master_key) != 16:
            raise BadParams("master key must be 16 bytes")
        if not 1 <= kappa <= 64:
            raise BadParams("hash count must be in [1, 64]")
        self._pack([derive_instance_key(master_key, t)
                    for t in range(1, kappa + 1)])

    @classmethod
    def from_keys(cls, keys: Sequence[bytes]) -> "SipHashFamily":
        """The family over already derived instance keys."""
        family = cls.__new__(cls)
        family._pack(keys)
        return family

    def _pack(self, keys: Sequence[bytes]) -> None:
        if not 1 <= len(keys) <= 64:
            raise BadParams("hash count must be in [1, 64]")
        if any(len(k) != 16 for k in keys):
            raise BadParams("SipHash key must be 16 bytes")
        self.keys = tuple(keys)
        self.kappa = len(keys)
        words = [struct.unpack("<QQ", k) for k in keys]

        def packed(lane_words) -> int:
            return sum(w << (128 * j) for j, w in enumerate(lane_words))

        # `_ones` has a 1 at the bottom of every lane: multiplying a 64-bit
        # word by it copies the word into each lane.
        self._ones = packed([1] * self.kappa)
        self._mask = _MASK * self._ones
        self._v = (packed(k0 ^ 0x736F6D6570736575 for k0, _ in words),
                   packed(k1 ^ 0x646F72616E646F6D for _, k1 in words),
                   packed(k0 ^ 0x6C7967656E657261 for k0, _ in words),
                   packed(k1 ^ 0x7465646279746573 for _, k1 in words))
        self._lanes = struct.Struct("<" + "Q8x" * self.kappa)

    def hashes(self, data: bytes) -> tuple[int, ...]:
        """siphash24(key, data) for every key, in key order."""
        mask, ones = self._mask, self._ones
        v0, v1, v2, v3 = self._v
        padded = data + b"\x00" * (7 - len(data) % 8) + bytes([len(data) % 256])
        for (m,) in struct.iter_unpack("<Q", padded):
            m *= ones
            v3 ^= m
            v0, v1, v2, v3 = _sipround(v0, v1, v2, v3, mask)
            v0, v1, v2, v3 = _sipround(v0, v1, v2, v3, mask)
            v0 ^= m
        v2 ^= 0xFF * ones
        for _ in range(4):
            v0, v1, v2, v3 = _sipround(v0, v1, v2, v3, mask)
        h = v0 ^ v1 ^ v2 ^ v3
        return self._lanes.unpack(h.to_bytes(self._lanes.size, "little"))

    def indices(self, item: bytes, beta: int) -> list[int]:
        return [h % beta for h in self.hashes(item)]


class FixedHashFamily:
    """Test stub mapping chosen items to chosen index sets."""

    def __init__(self, table: dict[bytes, list[int]], kappa: int):
        self.table = table
        self.kappa = kappa

    def indices(self, item: bytes, beta: int) -> list[int]:
        return [i % beta for i in self.table[item]]


@dataclass(frozen=True)
class BloomParams:
    beta: int
    kappa: int
    eta: int
    target_fp: float

    def __post_init__(self):
        if self.kappa < 1 or self.beta < self.kappa:
            raise BadParams("need kappa >= 1 and beta >= kappa")


def derive_params(eta: int, target_fp: float) -> BloomParams:
    """Size the filter from the expected load and false-positive budget.

    beta from fp ~= 0.6185^(beta/eta), kappa from the (beta/eta) ln 2
    optimum, clamped to at least one hash.
    """
    if eta < 1:
        raise BadParams("expected element count must be >= 1")
    if not 0.0 < target_fp < 1.0:
        raise BadParams("false-positive target must be in (0, 1)")
    beta = math.ceil(eta * math.log(target_fp) / math.log(0.6185))
    kappa = max(1, round(beta / eta * math.log(2)))
    kappa = min(kappa, 64)
    beta = max(beta, kappa)
    return BloomParams(beta=beta, kappa=kappa, eta=eta, target_fp=target_fp)


class BloomFilter:
    """Plaintext beta-bit filter with kappa hashed indices per item."""

    def __init__(self, params: BloomParams, master_key: bytes,
                 family=None):
        self.params = params
        self.master_key = master_key
        self.family = family if family is not None else SipHashFamily(
            master_key, params.kappa)
        self.bits = bytearray((params.beta + 7) // 8)

    # -- bit plumbing ----------------------------------------------------
    def _get(self, i: int) -> int:
        return (self.bits[i >> 3] >> (i & 7)) & 1

    def _set(self, i: int) -> None:
        self.bits[i >> 3] |= 1 << (i & 7)

    def bit(self, i: int) -> int:
        if not 0 <= i < self.params.beta:
            raise IndexError(i)
        return self._get(i)

    def bit_vector(self) -> list[int]:
        return [self._get(i) for i in range(self.params.beta)]

    def set_bit_count(self) -> int:
        return sum(bin(b).count("1") for b in self.bits)

    # -- operations --------------------------------------------------------
    def hash_indices(self, item: bytes) -> list[int]:
        return self.family.indices(item, self.params.beta)

    def insert(self, item: bytes) -> None:
        for i in self.hash_indices(item):
            self._set(i)

    def query(self, item: bytes) -> bool:
        return all(self._get(i) for i in self.hash_indices(item))

    # -- admin-side file format ---------------------------------------------
    def save(self, path: str) -> None:
        write_obfw_file(path, self.params.beta, self.params.kappa,
                        self.master_key, self.bits)

    @classmethod
    def load(cls, path: str) -> "BloomFilter":
        beta, kappa, body = read_obfw_file(path)
        if len(body) != 16 + (beta + 7) // 8:
            raise IoError("truncated bit array")
        try:
            flt = cls(BloomParams(beta=beta, kappa=kappa, eta=1,
                                  target_fp=0.5), body[:16])
        except BadParams as exc:
            raise IoError(f"filter header: {exc}") from exc
        flt.bits = bytearray(body[16:])
        return flt


def read_obfw_file(path: str) -> tuple[int, int, bytes]:
    """(beta, kappa, the bytes after the header) of the file at `path`; a
    file that cannot be read or does not open with the header is an
    IoError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if len(blob) < _HEADER.size or not blob.startswith(MAGIC):
        raise IoError(f"no {MAGIC.decode()} header in {path}")
    _, beta, kappa = _HEADER.unpack_from(blob)
    return beta, kappa, blob[_HEADER.size:]


def write_obfw_file(path: str, beta: int, kappa: int, *body: bytes) -> None:
    """Write the header and `body` to `<path>.tmp`, fsync it and rename it
    over `path`, so a crash or a failed write leaves the old file or the
    new one, never a truncated one.  A failure is an IoError."""
    tmp = path + ".tmp"     # same directory, so os.replace is a rename
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, beta, kappa))
            for part in body:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise IoError(str(exc)) from exc
