"""Deterministic randomness source for share generation and protocol replay.

Every protocol in this package draws randomness through a RandomSource so
that a fixed 32-byte seed reproduces the exact same share streams, message
payloads and transcripts.  The construction is SHA-256 in counter mode,
which is portable across Python versions (unlike the Mersenne state of
``random.Random``).
"""
from __future__ import annotations

import functools
import math
import sys
from array import array
from typing import Iterable, Sequence

try:
    # The one SHA-256 constructor of the package, behind every digest and
    # the admin MAC: CPython's builtin module gives hashlib's digests with
    # less overhead per call than OpenSSL on the short inputs hashed here,
    # and no obfw process then maps libcrypto.
    from _sha2 import sha256 as _sha256             # CPython 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _sha256       # CPython 3.11 and before
    except ImportError:
        import hashlib
        _sha256 = hashlib.sha256

# HMAC's inner and outer pads, as byte-translation tables (RFC 2104).
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))

# array typecodes of unsigned integers of 1, 2 and 4 bytes, which hold
# little-endian values once byteswapped on a big-endian host; other widths
# go through int.from_bytes and int.to_bytes (`unpack_uints` widens 3-byte
# draws to 4 bytes first).
UINT_TYPECODES = {1: "B", 2: "H", 4: "I"}


def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104) on `_sha256`: `hmac.new(key, msg, "sha256")`'s
    digest.  A key longer than the 64-byte block is hashed first."""
    if len(key) > 64:
        key = _sha256(key).digest()
    key = key.ljust(64, b"\0")
    inner = _sha256(key.translate(_IPAD) + msg).digest()
    return _sha256(key.translate(_OPAD) + inner).digest()


def _label_tag(label: int | str) -> bytes:
    return label.to_bytes(8, "little") if isinstance(label, int) else label.encode()


class RandomSource:
    """SHA-256 counter-mode generator keyed by a 32-byte seed."""

    __slots__ = ("seed", "counter", "_buf", "_pos")

    def __init__(self, seed: bytes | int | str = 0):
        if isinstance(seed, int):
            seed = seed.to_bytes(32, "little", signed=False)
        elif isinstance(seed, str):
            seed = _sha256(seed.encode()).digest()
        if len(seed) != 32:
            seed = _sha256(seed).digest()
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
        count)[j]` for every label l, in label order."""
        prefix = self.seed + b"/"
        return child_columns((prefix + (label.encode() if isinstance(label, str)
                                        else _label_tag(label))
                              for label in labels), n, count)

    def bytes(self, k: int) -> bytes:
        buf, pos = self._buf, self._pos
        if pos + k <= len(buf):
            self._pos = pos + k
            return buf[pos:pos + k]
        # The rest of this block, then every further block it needs, hashed
        # in one pass; the last of them stays buffered.
        head = buf[pos:]
        need = k - len(head)
        blocks = (need + 31) // 32
        seed, counter = self.seed, self.counter
        blob = b"".join([_sha256(seed + c.to_bytes(8, "little")).digest()
                         for c in range(counter, counter + blocks)])
        self.counter = counter + blocks
        self._buf = blob[-32:]
        self._pos = need - 32 * (blocks - 1)
        return head + blob[:need]

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
        `count` in-range chunks of the stream.  One read takes enough draws
        to cover the expected rejections, and the stream then moves back to
        just after the last draw kept.
        """
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        k = (n - 1).bit_length() or 1
        width = (k + 7) // 8
        shift = width * 8 - k
        bound = n << shift          # v >> shift < n exactly when v < bound
        q = bound / (1 << (width * 8))      # the share of draws in range
        out: list[int] = []
        if count <= 0:
            return out
        while len(out) < count:
            need = count - len(out)
            draws = unpack_uints(self.bytes(_read_ahead(need, q) * width), width)
            out += [v >> shift for v in draws if v < bound]
        # Give back the draws after the count-th in-range one.
        drop, i = len(out) - count, len(draws)
        while drop or draws[i - 1] >= bound:
            i -= 1
            drop -= draws[i] < bound
        end = 32 * self.counter - 32 + self._pos - (len(draws) - i) * width
        block = (end - 1) >> 5          # the block that holds byte end - 1
        if block != self.counter - 1:
            self.counter = block + 1
            self._buf = _sha256(self.seed + block.to_bytes(8, "little")).digest()
        self._pos = end - 32 * block
        return out[:count]


def _read_ahead(need: int, q: float) -> int:
    """The draws that hold `need` in range when a share `q` of draws is:
    their mean count plus one standard deviation."""
    return round(need / q + math.sqrt(need * (1 - q)) / q)


@functools.lru_cache(maxsize=256)
def _child_geometry(n: int, count: int) -> tuple[int, int, tuple[bytes, ...]]:
    """(width, shift, counter tags) of `count` draws below `n` from the
    first blocks of a stream: the blocks of `randbelow_many`'s read-ahead."""
    k = (n - 1).bit_length() or 1
    width = (k + 7) // 8
    shift = width * 8 - k
    q = (n << shift) / (1 << width * 8)
    blocks = (_read_ahead(count, q) * width + 31) // 32
    return width, shift, tuple(c.to_bytes(8, "little") for c in range(blocks))


def child_columns(paths: Iterable[bytes], n: int,
                  count: int) -> list[list[int]]:
    """`count` columns: column j holds `RandomSource(sha256(path).digest())
    .randbelow_many(n, count)[j]` for every path, in path order.

    `RandomSource(s).child(label)` seeds itself with the digest of s, "/"
    and the label's tag, so the path of those three gives that child's
    draws.  Every seed and the counter blocks of its read-ahead are hashed
    in one pass; row i of the blocks is child i's stream, and its draws lie
    in it `width` bytes each, whatever the width.  The rows are unpacked
    column by column; a row with an out-of-range draw takes the first
    in-range draws of its blocks instead, and reads on in its own stream
    only when they are too few.
    """
    if n <= 0:
        raise ValueError("randbelow needs n >= 1")
    sha256 = _sha256
    seeds = [sha256(path).digest() for path in paths]
    if not seeds:
        return [[] for _ in range(count)]
    width, shift, ctrs = _child_geometry(n, count)
    blob = b"".join([sha256(seed + ctr).digest()
                     for seed in seeds for ctr in ctrs])
    row = 32 * len(ctrs)
    whole = row // width * width        # the bytes of a row's whole draws
    bound = n << shift                  # v >> shift < n exactly when v < bound
    if width in UINT_TYPECODES:
        flat = unpack_uints(blob, width)
        stride = row // width
        cols = [[v >> shift for v in flat[j::stride]] for j in range(count)]
    else:
        cols = [[int.from_bytes(blob[i:i + width], "little") >> shift
                 for i in range(j * width, len(blob), row)]
                for j in range(count)]
    if max(map(max, cols), default=0) >= n:
        for i in {i for col in cols for i, v in enumerate(col) if v >= n}:
            kept = [v >> shift for v in unpack_uints(
                blob[i * row:i * row + whole], width) if v < bound]
            if len(kept) < count:
                kept = RandomSource(seeds[i]).randbelow_many(n, count)
            for col, v in zip(cols, kept):
                col[i] = v
    return cols


def widen_uints(blob: bytes, width: int) -> bytearray:
    """The little-endian unsigned integers of `width` < 4 bytes in `blob`,
    each widened to four bytes by `width` slice copies."""
    wide = bytearray(len(blob) // width * 4)
    for j in range(width):
        wide[j::4] = blob[j::width]
    return wide


def unpack_uints(blob: bytes, width: int) -> Sequence[int]:
    """The little-endian unsigned integers of `width` bytes in `blob`."""
    if width == 3:
        # Widen each draw to four bytes, so that one array reads them all.
        blob, width = widen_uints(blob, 3), 4
    typecode = UINT_TYPECODES.get(width)
    if typecode is None:
        return [int.from_bytes(blob[i:i + width], "little")
                for i in range(0, len(blob), width)]
    draws = array(typecode, blob)
    if sys.byteorder == "big":
        draws.byteswap()
    return draws
