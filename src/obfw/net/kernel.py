"""Protocol kernel: party programs are generators yielding Send/Recv.

A party program never touches a socket or a queue; it yields commands and
is resumed with decoded values.  `drive` alone turns those commands into
envelopes and back; the simulator and the TCP runtime supply only the
posting and taking of envelopes, so a peer's message is handled the same
way under both, which is what makes transport-equivalence testable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

from .envelope import Envelope
from .groups import (
    CodecError,
    Group,
    Segment,
    decode_elements,
    encode_elements,
    segments_accounting_bits,
    segments_raw_bits,
)
from .transcript import Transcript


class PartyTimeout(Exception):
    """A peer message this party is blocked on will never arrive."""


@dataclass
class Send:
    to: int
    step: int
    segments: list[Segment]


@dataclass
class Recv:
    frm: int
    step: int
    schema: list[tuple[Group, int]]


def send(to: int, step: int, segments: list[Segment]):
    """Helper usable as `yield from send(...)` inside party programs."""
    yield Send(to, step, segments)


def recv(frm: int, step: int, schema: list[tuple[Group, int]]):
    """Helper usable as `vals = yield from recv(...)`."""
    return (yield Recv(frm, step, schema))


def drive(program: Generator, me: int, session_id: int, protocol_id: int,
          transcript: Transcript, post: Callable[[int, Envelope], None],
          take: Callable[[int], Envelope | None]) -> Generator:
    """Run party `me`'s program to its end; returns the program's value.

    `post(to, envelope)` sends.  `take(frm)` returns the next envelope from
    `frm` in this session, or None while there is none: this generator
    then yields the Recv it waits on and asks again when resumed.  Either
    may raise PartyTimeout.  An envelope with the wrong step or a payload
    that does not decode fails the party the same way.  A PartyTimeout,
    or one thrown in while this generator waits, ends the party: it
    propagates to the caller and is never thrown into the program.
    """
    resume = None
    while True:
        try:
            cmd = program.send(resume)
        except StopIteration as stop:
            return stop.value
        resume = None
        if isinstance(cmd, Send):
            payload = encode_elements(cmd.segments)
            transcript.record_send(
                me, cmd.to, cmd.step,
                segments_accounting_bits(cmd.segments),
                segments_raw_bits(cmd.segments), payload=payload)
            post(cmd.to, Envelope(protocol_id, cmd.step, session_id, me,
                                  payload))
        elif isinstance(cmd, Recv):
            env = take(cmd.frm)
            while env is None:
                yield cmd
                env = take(cmd.frm)
            if env.step_id != cmd.step:
                raise PartyTimeout(
                    f"party {me}: party {cmd.frm} sent step {env.step_id} "
                    f"where step {cmd.step} was due")
            transcript.record_recv(me, cmd.frm, env.step_id)
            try:
                resume = decode_elements(env.payload, cmd.schema)
            except CodecError as exc:
                raise PartyTimeout(
                    f"party {me}: step {cmd.step} from party {cmd.frm} "
                    f"does not decode: {exc}") from exc
        else:
            raise TypeError(f"party {me} yielded {cmd!r}")
