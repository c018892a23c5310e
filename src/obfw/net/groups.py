"""Bit-exact payload codec.

Message payloads are sequences of group elements packed at fixed bit
widths, least significant bit first, with zero padding to a whole byte.
Each group carries two widths: the raw wire width actually serialized and
the accounting width used by the complexity ledgers (the two differ only
for comparison-domain Z_N elements, which the ledgers count at l bits
while the wire needs l+1).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass


class CodecError(Exception):
    pass


class OutOfRange(CodecError):
    pass


class TruncatedPayload(CodecError):
    pass


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("ceil_log2 needs n >= 1")
    return (n - 1).bit_length()


@dataclass(frozen=True)
class Group:
    """An element domain plus its wire and accounting widths in bits."""
    name: str
    modulus: int
    raw_bits: int
    accounting_bits: int

    def check(self, v: int) -> None:
        if not 0 <= v < self.modulus:
            raise OutOfRange(f"{v} outside {self.name} range [0, {self.modulus})")


@functools.cache
def group_z2() -> Group:
    return Group("z2", 2, 1, 1)


@functools.cache
def group_zn2(n2: int, lbits: int) -> Group:
    w = 2 + ceil_log2(lbits)
    return Group("zn2", n2, w, w)


@functools.cache
def group_zn_compare(n: int, lbits: int) -> Group:
    # Ledger convention: a Z_N element counts l bits although the smallest
    # prime above 2^l needs l+1 on the wire.
    return Group("zn", n, lbits + 1, lbits)


@functools.cache
def group_shift(lbits: int) -> Group:
    w = 1 + ceil_log2(lbits)
    return Group("shift", lbits + 1, w, w)


@functools.cache
def group_zp(p: int) -> Group:
    w = max(1, (p - 1).bit_length())
    return Group("zp", p, w, w)


@functools.cache
def group_addr32() -> Group:
    return Group("addr", 1 << 32, 32, 32)


@functools.cache
def group_index(limit: int) -> Group:
    w = max(1, (limit - 1).bit_length())
    return Group("index", limit, w, w)


Segment = tuple[Group, list[int]]


# Values are packed into, and read from, ints of about this many bits;
# bigger payloads are built from such chunks, so the work stays linear.
_CHUNK_BITS = 1024


def _merge(parts: list[int], widths: list[int]) -> int:
    """parts[0] | parts[1] << widths[0] | ..., merged pairwise.

    Each level halves the list and copies every bit once, so the merge
    costs O(bits · log parts), where one growing int would copy the whole
    payload once per part.
    """
    while len(parts) > 1:
        if len(parts) & 1:
            parts.append(0)
            widths.append(0)
        lw = widths[0::2]
        parts = [a | b << w for a, b, w in zip(parts[0::2], parts[1::2], lw)]
        widths = [w + v for w, v in zip(lw, widths[1::2])]
    return parts[0]


def encode_elements(segments: list[Segment]) -> bytes:
    """Pack segment values into bytes, LSB-first, zero pad bits."""
    parts: list[int] = []
    widths: list[int] = []
    acc = 0
    nbits = 0
    for group, values in segments:
        w = group.raw_bits
        top = group.modulus
        for v in values:
            if not 0 <= v < top:
                group.check(v)          # raises OutOfRange naming v
            acc |= v << nbits
            nbits += w
            if nbits >= _CHUNK_BITS:
                parts.append(acc)
                widths.append(nbits)
                acc = nbits = 0
    if parts:
        parts.append(acc)
        widths.append(nbits)
        acc, nbits = _merge(parts, widths), sum(widths)
    return acc.to_bytes((nbits + 7) // 8, "little") if nbits else b""


def decode_elements(payload: bytes, schema: list[tuple[Group, int]]) -> list[list[int]]:
    """Inverse of encode_elements given the declared (group, count) list.

    A payload of up to _CHUNK_BITS is read from one int.  A longer one is
    read from a window of about _CHUNK_BITS that slides along it, so
    decoding is linear in the payload.
    """
    total_bits = 0
    for g, n in schema:
        total_bits += g.raw_bits * n
    if len(payload) != (total_bits + 7) // 8:
        raise TruncatedPayload(
            f"payload {len(payload)}B does not match schema {(total_bits + 7) // 8}B")
    out = []
    if total_bits <= _CHUNK_BITS:
        window = int.from_bytes(payload, "little")
        if window >> total_bits:
            raise TruncatedPayload("nonzero padding bits")
        for group, count in schema:
            w = group.raw_bits
            mask = (1 << w) - 1
            top = group.modulus
            vals = []
            for _ in range(count):
                v = window & mask
                if v >= top:
                    group.check(v)      # raises OutOfRange naming v
                vals.append(v)
                window >>= w
            out.append(vals)
        return out
    if total_bits % 8 and payload[-1] >> (total_bits % 8):
        raise TruncatedPayload("nonzero padding bits")
    window = window_bits = base = pos = 0     # window holds bits from byte `base`
    for group, count in schema:
        w = group.raw_bits
        mask = (1 << w) - 1
        top = group.modulus
        nbytes = (_CHUNK_BITS + w + 7) // 8    # holds w bits at any offset
        vals = []
        for _ in range(count):
            if pos + w > window_bits:
                base += pos >> 3
                pos &= 7
                window = int.from_bytes(payload[base:base + nbytes], "little")
                window_bits = nbytes * 8
            v = (window >> pos) & mask
            if v >= top:
                group.check(v)          # raises OutOfRange naming v
            vals.append(v)
            pos += w
        out.append(vals)
    return out
