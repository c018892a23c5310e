"""The envelope that carries one message, in the simulator and over TCP.

An envelope carries its payload either as bytes or as the values of the
Send that made it.  `kernel.drive` hands the transport values.  A socket
needs bytes, so `frame` encodes them, once, and the envelope keeps the
bytes that went out; one read off a socket carries bytes.  The simulator
keeps the values instead (`freeze`), and a receiver whose schema is the
send's own gets them without a codec round trip (`values`).  Whatever an
envelope holds, a receiver gets what `decode_elements` would give it for
the encoded values, or the error it would raise.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

from .groups import Group, Segment, decode_elements, encode_elements

FRAME_MAGIC = b"OBF1"
HEADER_LEN = 1 + 1 + 8 + 1 + 4
MAX_FRAME = 1 << 26

# Registry of interactive protocols.
PROTO_SHAMIR_MULT = 1
PROTO_ADDITIVE_MULT3 = 2
PROTO_DUAL_OUTPUT_CHECK = 3
PROTO_SC_SEMI_HONEST = 4
PROTO_SC_LOW_ROUNDS = 5
PROTO_SC_SHARED_INPUTS = 6
PROTO_SC_MALICIOUS = 7
PROTO_FW_EVAL_SUM = 9
PROTO_FW_EVAL_PRODUCT = 10
PROTO_FW_UPDATE = 11
PROTO_MAJORITY_VOTE = 12
PROTO_FW_ZERO_TEST = 13


class FrameCorrupt(Exception):
    pass


# A record is the frame magic and length, then the envelope: its header
# (protocol, step, session, sender, payload length) and its payload.
_RECORD = struct.Struct("<4sI")
_HEADER = struct.Struct("<BBQBI")
_FRAMED = struct.Struct("<4sIBBQBI")


# Not frozen: a frozen dataclass sets each field through object.__setattr__,
# which costs more than the rest of building one.
@dataclass(slots=True)
class Envelope:
    protocol_id: int
    step_id: int
    session_id: int
    sender: int
    payload: bytes | None = None
    # The values, when `payload` is None: the Send's own segments until the
    # transport takes them, then `freeze`'s snapshot.
    segments: list[Segment] | None = None

    def encode(self) -> bytes:
        return frame(self)[_RECORD.size:]

    def packed(self) -> bytes:
        """The payload as bytes: those carried, or the values encoded."""
        if self.payload is not None:
            return self.payload
        return encode_elements(self.segments)

    def freeze(self) -> None:
        """Fix the values as they are now, after the checks encode_elements
        makes.  A value that is not an int in its group's range is left to
        encode_elements: it raises what it raises, or the envelope carries
        the bytes it gives (for a bool, say)."""
        segs = []
        ok = True
        for group, values in self.segments:
            vals = tuple(values)
            segs.append((group, vals))
            if ok:
                top = group.modulus
                for v in vals:
                    if type(v) is not int or not 0 <= v < top:
                        ok = False
                        break
        if ok:
            self.segments = segs
        else:
            self.payload = encode_elements(segs)
            self.segments = None

    def values(self, schema: list[tuple[Group, int]]) -> list[list[int]]:
        """The payload read as `schema`: fresh lists of the values when
        the schema is the send's own (the same Group objects, the same
        counts), and decode_elements of the bytes otherwise."""
        segs = self.segments
        if segs is not None and len(segs) == len(schema):
            out = []
            for (group, vals), (want, count) in zip(segs, schema):
                if group is not want or len(vals) != count:
                    break
                out.append(list(vals))
            else:
                return out
        return decode_elements(self.packed(), schema)

    @classmethod
    def decode(cls, data: bytes, start: int = 0, end: int | None = None) -> "Envelope":
        """The envelope in data[start:end]; `end` defaults to len(data)."""
        if end is None:
            end = len(data)
        if end - start < HEADER_LEN:
            raise FrameCorrupt("short envelope header")
        protocol_id, step_id, session_id, sender, plen = _HEADER.unpack_from(data, start)
        if end - start != HEADER_LEN + plen:
            raise FrameCorrupt("payload length mismatch")
        return cls(protocol_id, step_id, session_id, sender, data[start + HEADER_LEN:end])


def frame(env: Envelope) -> bytes:
    """The record that carries `env`.  An envelope of values is encoded
    here, once, and keeps the bytes in place of the values."""
    payload = env.payload
    if payload is None:
        payload = env.payload = encode_elements(env.segments)
        env.segments = None
    try:
        head = _FRAMED.pack(FRAME_MAGIC, HEADER_LEN + len(payload),
                            env.protocol_id & 0xFF, env.step_id & 0xFF,
                            env.session_id, env.sender & 0xFF, len(payload))
    except struct.error:
        env.session_id.to_bytes(8, "little")        # OverflowError names it
        raise
    return head + payload


def read_records(data: bytes, out: list[Envelope]) -> tuple[int, int]:
    """Append the envelope of each complete record in `data` to `out`.

    Returns (pos, need): a partial record starts at `pos` and needs `need`
    bytes.  A bad magic or an implausible length raises FrameCorrupt as
    soon as its header is in, with the records before it in `out`.
    """
    decode = Envelope.decode
    pos, size = 0, len(data)
    while size - pos >= 8:
        magic, n = _RECORD.unpack_from(data, pos)
        if magic != FRAME_MAGIC:
            raise FrameCorrupt(f"bad frame magic {magic!r}")
        if n > MAX_FRAME:
            raise FrameCorrupt("frame length implausible")
        end = pos + 8 + n
        if size < end:
            return pos, 8 + n
        out.append(decode(data, pos + 8, end))
        pos = end
    if size - pos >= 4 and data[pos:pos + 4] != FRAME_MAGIC:
        raise FrameCorrupt(f"bad frame magic {data[pos:pos + 4]!r}")
    return pos, 8


def take_frames(buf: bytearray) -> list[Envelope]:
    """Remove every complete record from the front of `buf` and decode it.

    A partial record stays in `buf` for the next read.  A bad magic or an
    implausible length raises FrameCorrupt as soon as its header is in.
    """
    out: list[Envelope] = []
    pos, _ = read_records(bytes(buf), out)
    del buf[:pos]
    return out
