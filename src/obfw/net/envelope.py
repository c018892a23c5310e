"""Wire envelope shared by the simulator and the TCP transport."""
from __future__ import annotations

import struct
from dataclasses import dataclass

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
    payload: bytes

    def encode(self) -> bytes:
        return frame(self)[_RECORD.size:]

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
    payload = env.payload
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
