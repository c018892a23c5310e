"""Deterministic randomness source for share generation and protocol replay.

Every protocol in this package draws randomness through a RandomSource so
that a fixed 32-byte seed reproduces the exact same share streams, message
payloads and transcripts.  The construction is SHA-256 in counter mode,
which is portable across Python versions (unlike the Mersenne state of
``random.Random``).
"""
from __future__ import annotations

import hashlib
import sys
from array import array
from typing import Sequence

try:
    # CPython's builtin SHA-256 gives hashlib's digests with less overhead
    # per call than the OpenSSL one on the short inputs hashed here.
    from _sha2 import sha256 as _sha256             # CPython 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _sha256       # CPython 3.11 and before
    except ImportError:
        _sha256 = hashlib.sha256

# array typecodes of unsigned integers of 1, 2 and 4 bytes, which hold
# little-endian values once byteswapped on a big-endian host; other widths
# go through int.from_bytes and int.to_bytes.
UINT_TYPECODES = {1: "B", 2: "H", 4: "I"}


def _label_tag(label: int | str) -> bytes:
    return label.to_bytes(8, "little") if isinstance(label, int) else label.encode()


class RandomSource:
    """SHA-256 counter-mode generator keyed by a 32-byte seed."""

    __slots__ = ("seed", "counter", "_buf", "_pos")

    def __init__(self, seed: bytes | int | str = 0):
        if isinstance(seed, int):
            seed = seed.to_bytes(32, "little", signed=False)
        elif isinstance(seed, str):
            seed = hashlib.sha256(seed.encode()).digest()
        if len(seed) != 32:
            seed = hashlib.sha256(seed).digest()
        self.seed = seed
        self.counter = 0
        self._buf = b""
        self._pos = 0

    def child(self, label: int | str) -> "RandomSource":
        """Derive an independent stream; used to give each party its own."""
        tag = _label_tag(label)
        return RandomSource(_sha256(self.seed + b"/" + tag).digest())

    def child_draws(self, labels: Sequence[int | str], n: int,
                    count: int) -> list[list[int]]:
        """`count` columns: column j holds `self.child(l).randbelow_many(n,
        count)[j]` for every label l, in label order.

        Every child seed and its counter blocks are hashed in one pass and
        unpacked column by column.  A row with an out-of-range draw is
        redrawn from its own stream, so every value is the exact one.
        """
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        k = (n - 1).bit_length() or 1
        width = (k + 7) // 8
        shift = width * 8 - k
        sha256 = _sha256
        prefix = self.seed + b"/"
        seeds = [sha256(prefix + (label.encode() if isinstance(label, str)
                                  else _label_tag(label))).digest()
                 for label in labels]
        # Each row is the child's first blocks, enough for count draws; the
        # draws of one row are contiguous in it, whatever the width.
        ctrs = [c.to_bytes(8, "little")
                for c in range((count * width + 31) // 32)]
        blob = b"".join([sha256(seed + ctr).digest()
                         for seed in seeds for ctr in ctrs])
        row = 32 * len(ctrs)
        if width in UINT_TYPECODES:
            flat = array(UINT_TYPECODES[width], blob)
            if sys.byteorder == "big":
                flat.byteswap()
            stride = row // width
            cols = [flat[j::stride] for j in range(count)]
        else:
            cols = [[int.from_bytes(blob[i:i + width], "little")
                     for i in range(j * width, len(blob), row)]
                    for j in range(count)]
        cols = [[v >> shift for v in col] if shift else list(col) for col in cols]
        if any(max(col, default=0) >= n for col in cols):
            rejected = {i for col in cols for i, v in enumerate(col) if v >= n}
            for i in rejected:
                row = RandomSource(seeds[i]).randbelow_many(n, count)
                for col, v in zip(cols, row):
                    col[i] = v
        return cols

    def _refill(self) -> None:
        block = self.counter.to_bytes(8, "little")
        self._buf = _sha256(self.seed + block).digest()
        self._pos = 0
        self.counter += 1

    def bytes(self, k: int) -> bytes:
        if k and self._pos == len(self._buf):
            self._refill()
        pos = self._pos
        if pos + k <= len(self._buf):
            self._pos = pos + k
            return self._buf[pos:pos + k]
        out = bytearray()
        while len(out) < k:
            if self._pos >= len(self._buf):
                self._refill()
            take = min(k - len(out), len(self._buf) - self._pos)
            out += self._buf[self._pos:self._pos + take]
            self._pos += take
        return bytes(out)

    def randbits(self, k: int) -> int:
        nbytes = (k + 7) // 8
        val = int.from_bytes(self.bytes(nbytes), "little")
        return val >> (nbytes * 8 - k)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        k = (n - 1).bit_length() or 1
        while True:
            v = self.randbits(k)
            if v < n:
                return v

    def randbelow_many(self, n: int, count: int) -> list[int]:
        """`count` calls to randbelow(n): the same bytes in the same order.

        Each attempt reads whole bytes, so the accepted values are the first
        `count` in-range chunks of the stream; a rejection redraws only the
        shortfall.
        """
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        k = (n - 1).bit_length() or 1
        width = (k + 7) // 8
        shift = width * 8 - k
        typecode = UINT_TYPECODES.get(width)
        bound = n << shift          # v >> shift < n exactly when v < bound
        out: list[int] = []
        while len(out) < count:
            blob = self.bytes((count - len(out)) * width)
            if typecode:
                draws = array(typecode, blob)
                if sys.byteorder == "big":
                    draws.byteswap()
            else:
                draws = [int.from_bytes(blob[i:i + width], "little")
                         for i in range(0, len(blob), width)]
            out += [v >> shift for v in draws if v < bound]
        return out
