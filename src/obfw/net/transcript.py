"""Per-session transcript: accounting bits, raw bits and rounds.

Transmitted bits are tallied once, at the sender, in the ledger convention
(group accounting widths; framing excluded).  Rounds follow the
send-and-receive-cycle definition: a party's event sequence is greedily
packed into cycles holding at most one send block and one receive block,
and the session's round count is the maximum over its parties.
"""
from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class _Event:
    kind: str          # 'S' or 'R'
    peer: int
    step: int
    accounting_bits: int


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


@dataclass
class Transcript:
    session_id: int = 0
    protocol_id: int = 0
    step_acc_bits: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    step_raw_bits: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    party_events: dict[int, list[_Event]] = field(default_factory=lambda: defaultdict(list))
    messages: int = 0
    # Rolling digest over every sent payload, keyed per sender so the value
    # is independent of delivery interleaving; replaying a seeded session
    # must reproduce it byte for byte.
    payload_digests: dict[int, "hashlib._Hash"] = field(
        default_factory=lambda: defaultdict(lambda: hashlib.sha256()))

    def record_send(self, sender: int, receiver: int, step: int,
                    acc_bits: int, raw_bits: int, payload: bytes = b"") -> None:
        self.step_acc_bits[step] += acc_bits
        self.step_raw_bits[step] += raw_bits
        self.party_events[sender].append(_Event("S", receiver, step, acc_bits))
        self.payload_digests[sender].update(
            bytes([receiver & 0xFF, step & 0xFF]) + payload)
        self.messages += 1

    def record_recv(self, receiver: int, sender: int, step: int) -> None:
        self.party_events[receiver].append(_Event("R", sender, step, 0))

    def merge(self, other: "Transcript") -> None:
        """Add the events of other parties of the same session, as recorded
        by their own transcripts (one per TCP node)."""
        for step, bits in other.step_acc_bits.items():
            self.step_acc_bits[step] += bits
        for step, bits in other.step_raw_bits.items():
            self.step_raw_bits[step] += bits
        for party, evs in other.party_events.items():
            self.party_events[party].extend(evs)
        self.payload_digests.update(other.payload_digests)
        self.messages += other.messages

    def accounting_total(self) -> int:
        return sum(self.step_acc_bits.values())

    def raw_total(self) -> int:
        return sum(self.step_raw_bits.values())

    def rounds(self) -> int:
        if not self.party_events:
            return 0
        return max(_pack_rounds(evs) for evs in self.party_events.values())

    def payload_digest(self) -> str:
        acc = hashlib.sha256()
        for party in sorted(self.payload_digests):
            acc.update(self.payload_digests[party].digest())
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
