"""Wire envelope shared by the simulator and the TCP transport."""
from __future__ import annotations

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


@dataclass(frozen=True)
class Envelope:
    protocol_id: int
    step_id: int
    session_id: int
    sender: int
    payload: bytes

    def encode(self) -> bytes:
        head = bytes([self.protocol_id & 0xFF, self.step_id & 0xFF])
        head += self.session_id.to_bytes(8, "little")
        head += bytes([self.sender & 0xFF])
        head += len(self.payload).to_bytes(4, "little")
        return head + self.payload

    @classmethod
    def decode(cls, raw: bytes) -> "Envelope":
        if len(raw) < HEADER_LEN:
            raise FrameCorrupt("short envelope header")
        plen = int.from_bytes(raw[11:15], "little")
        if len(raw) != HEADER_LEN + plen:
            raise FrameCorrupt("payload length mismatch")
        return cls(raw[0], raw[1], int.from_bytes(raw[2:10], "little"),
                   raw[10], raw[HEADER_LEN:])


def frame(env: Envelope) -> bytes:
    body = env.encode()
    return FRAME_MAGIC + len(body).to_bytes(4, "little") + body


def take_frames(buf: bytearray) -> list[Envelope]:
    """Remove every complete record from the front of `buf` and decode it.

    A partial record stays in `buf` for the next read.  A bad magic or an
    implausible length raises FrameCorrupt as soon as its header is in.
    """
    out = []
    pos = 0
    while len(buf) - pos >= 4:
        if buf[pos:pos + 4] != FRAME_MAGIC:
            raise FrameCorrupt(f"bad frame magic {bytes(buf[pos:pos + 4])!r}")
        if len(buf) - pos < 8:
            break
        n = int.from_bytes(buf[pos + 4:pos + 8], "little")
        if n > MAX_FRAME:
            raise FrameCorrupt("frame length implausible")
        end = pos + 8 + n
        if len(buf) < end:
            break
        out.append(Envelope.decode(bytes(buf[pos + 8:end])))
        pos = end
    del buf[:pos]
    return out
