"""Protocol kernel: party programs are generators yielding Send/Recv.

A party program never touches a socket or a queue; it yields commands and
is resumed with values.  `drive` alone turns those commands into
envelopes and back, and records them; the simulator and the TCP runtime
supply only the posting and taking of envelopes.  "Handled the same way
under both" means: every message is posted as an envelope of the Send's
values, and whichever transport carries it, the send fails with what
`encode_elements` raises for those values, and the receiver gets what
`decode_elements` gives for them under its schema, or fails the same way.
Only the transport decides whether bytes are made: TCP frames each
envelope, while the simulator keeps a snapshot of its values (see
`envelope.py`).  A corrupt party is an honest program wrapped in
`rewrite_sends`, so it too runs the same way under both.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

from .envelope import Envelope
from .groups import CodecError, Group, Segment
from .transcript import Transcript


class PartyTimeout(Exception):
    """A peer message this party is blocked on will never arrive."""


@dataclass(slots=True)
class Send:
    to: int
    step: int
    segments: list[Segment]


@dataclass(slots=True)
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


Rewrite = Callable[[Send], Send | None]


def rewrite_sends(program: Generator, rewrite: Rewrite) -> Generator:
    """Run `program`, passing on `rewrite(cmd)` for each Send it yields, or
    nothing when that is None; its Recvs and its value pass unchanged."""
    resume = None
    while True:
        try:
            cmd = program.send(resume)
        except StopIteration as stop:
            return stop.value
        if isinstance(cmd, Send):
            cmd = rewrite(cmd)
            if cmd is None:
                resume = None
                continue
        resume = yield cmd


def add_to_send(cmd: Send, delta: int) -> Send:
    """`cmd` with `delta` added to every element, modulo its group: the
    additive attack of Genkin, Ishai, Prabhakaran, Sahai and Tromer."""
    return Send(cmd.to, cmd.step, [(g, [(v + delta) % g.modulus for v in vals])
                                   for g, vals in cmd.segments])


def drive(program: Generator, me: int, session_id: int, protocol_id: int,
          transcript: Transcript, post: Callable[[int, Envelope], None],
          take: Callable[[int], Envelope | None]) -> Generator:
    """Run party `me`'s program to its end; returns the program's value.

    `post(to, envelope)` sends an envelope of the Send's values; it
    encodes or snapshots them before it returns, and raises what
    encode_elements raises for them.  `take(frm)` returns the next envelope
    from `frm` in this session, or None while there is none: this generator
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
            segments = cmd.segments
            acc_bits = raw_bits = 0
            for group, values in segments:
                acc_bits += group.accounting_bits * len(values)
                raw_bits += group.raw_bits * len(values)
            env = Envelope(protocol_id, cmd.step, session_id, me, None, segments)
            post(cmd.to, env)
            transcript.record_send(me, cmd.to, cmd.step, acc_bits, raw_bits,
                                   payload=env)
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
                resume = env.values(cmd.schema)
            except CodecError as exc:
                raise PartyTimeout(
                    f"party {me}: step {cmd.step} from party {cmd.frm} "
                    f"does not decode: {exc}") from exc
        else:
            raise TypeError(f"party {me} yielded {cmd!r}")
