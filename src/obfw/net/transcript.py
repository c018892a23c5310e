"""Per-session transcript: accounting bits, raw bits and rounds.

Transmitted bits are tallied once, at the sender, in the ledger convention
(group accounting widths; framing excluded).  Rounds follow the
send-and-receive-cycle definition: a party's event sequence is greedily
packed into cycles holding at most one send block and one receive block,
and the session's round count is the maximum over its parties.

Recording appends one flat tuple per event and nothing else; the per-step
bit counts, the per-party event lists and the message count are built from
those tuples when first read after a change.  A send records what it
carried: bytes, or the envelope itself, whose bytes `payload_digest` takes
as the socket framed them, or encodes from the simulator's snapshot.
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass

from ..rng import _sha256
from .envelope import Envelope


@dataclass(slots=True)
class _Event:
    kind: str          # 'S' or 'R'
    peer: int
    step: int
    accounting_bits: int
    payload: bytes | Envelope = b""   # what a send carried, for payload_digest()


def _pack_rounds(events: list[_Event]) -> int:
    """Greedy cycle packing: blocks of consecutive same-kind events, at most
    one send block plus one receive block per round, in either order."""
    rounds = 0
    have: set[str] = set()
    last_kind = ""
    for ev in events:
        if ev.kind == last_kind:
            continue  # extends the current block
        if ev.kind in have:
            rounds += 1
            have = {ev.kind}
        else:
            have.add(ev.kind)
        last_kind = ev.kind
    return rounds + (1 if have else 0)


class Transcript:
    def __init__(self, session_id: int = 0, protocol_id: int = 0):
        self.session_id = session_id
        self.protocol_id = protocol_id
        # (kind, party, peer, step, accounting bits, raw bits, payload)
        self._log: list[tuple] = []
        self._built = -1        # len(_log) when the views below were built
        self._step_acc: dict[int, int] = {}
        self._step_raw: dict[int, int] = {}
        self._events: dict[int, list[_Event]] = {}
        self._messages = 0

    def record_send(self, sender: int, receiver: int, step: int,
                    acc_bits: int, raw_bits: int,
                    payload: bytes | Envelope = b"") -> None:
        self._log.append(("S", sender, receiver, step, acc_bits, raw_bits, payload))

    def record_recv(self, receiver: int, sender: int, step: int) -> None:
        self._log.append(("R", receiver, sender, step, 0, 0, b""))

    def merge(self, other: "Transcript") -> None:
        """Add the events of other parties of the same session, as recorded
        by their own transcripts (one per TCP node)."""
        self._log.extend(other._log)

    def _build(self) -> None:
        if self._built == len(self._log):
            return
        step_acc: defaultdict[int, int] = defaultdict(int)
        step_raw: defaultdict[int, int] = defaultdict(int)
        events: defaultdict[int, list[_Event]] = defaultdict(list)
        messages = 0
        for kind, party, peer, step, acc_bits, raw_bits, payload in self._log:
            if kind == "S":
                step_acc[step] += acc_bits
                step_raw[step] += raw_bits
                messages += 1
            events[party].append(_Event(kind, peer, step, acc_bits, payload))
        self._step_acc, self._step_raw = step_acc, step_raw
        self._events, self._messages = events, messages
        self._built = len(self._log)

    @property
    def step_acc_bits(self) -> dict[int, int]:
        self._build()
        return self._step_acc

    @property
    def step_raw_bits(self) -> dict[int, int]:
        self._build()
        return self._step_raw

    @property
    def party_events(self) -> dict[int, list[_Event]]:
        self._build()
        return self._events

    @property
    def messages(self) -> int:
        self._build()
        return self._messages

    def accounting_total(self) -> int:
        return sum(self.step_acc_bits.values())

    def raw_total(self) -> int:
        return sum(self.step_raw_bits.values())

    def rounds(self) -> int:
        if not self.party_events:
            return 0
        return max(_pack_rounds(evs) for evs in self.party_events.values())

    def payload_digest(self) -> str:
        """A digest of every sent payload, one rolling hash per sender so
        the value is independent of delivery interleaving; replaying a
        seeded session must reproduce it byte for byte."""
        acc = _sha256()
        for party, evs in sorted(self.party_events.items()):
            sent = b"".join([bytes((ev.peer & 0xFF, ev.step & 0xFF)) + _bytes(ev.payload)
                             for ev in evs if ev.kind == "S"])
            if sent:                    # two header bytes per send
                acc.update(_sha256(sent).digest())
        return acc.hexdigest()

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "protocol_id": self.protocol_id,
            "total_accounting_bits": self.accounting_total(),
            "total_raw_bits": self.raw_total(),
            "rounds": self.rounds(),
            "messages": self.messages,
            "payload_digest": self.payload_digest(),
            "per_step_accounting_bits": dict(sorted(self.step_acc_bits.items())),
            "per_step_raw_bits": dict(sorted(self.step_raw_bits.items())),
            "events": {
                str(p): [[e.kind, e.peer, e.step, e.accounting_bits] for e in evs]
                for p, evs in sorted(self.party_events.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _bytes(payload: bytes | Envelope) -> bytes:
    return payload if isinstance(payload, bytes) else payload.packed()
