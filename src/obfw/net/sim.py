"""Deterministic in-process network simulator.

Each registered party program runs under `kernel.drive`; the scheduler
advances them in index order, delivering every sendable message of a
step before the next step begins.  FIFO order holds per ordered party
pair, and the whole run is a pure function of the registered programs.
No message is packed into bytes: each envelope keeps a snapshot of the
values its Send carried (`Envelope.freeze`), made after the checks that
`encode_elements` makes, and a receiver whose schema matches gets fresh
lists of them.  The network is honest: a corrupt party is a program
wrapped in `kernel.rewrite_sends`, which runs the same way over TCP.
"""
from __future__ import annotations

import functools
from collections import deque
from typing import Generator, Iterable

from .envelope import Envelope
from .kernel import PartyTimeout, Recv, drive
from .transcript import Transcript


class Deadlock(Exception):
    pass


class SimNetwork:
    """Round-driven scheduler over generator party programs."""

    def __init__(self, session_id: int = 0, protocol_id: int = 0):
        self.transcript = Transcript(session_id=session_id, protocol_id=protocol_id)
        self.session_id = session_id
        self.protocol_id = protocol_id
        self._programs: dict[int, Generator] = {}
        self._inbox: dict[tuple[int, int], deque[Envelope]] = {}
        self.results: dict[int, object] = {}
        self.errors: dict[int, BaseException] = {}

    def add_party(self, index: int, program: Generator) -> None:
        if index in self._programs:
            raise ValueError(f"party {index} registered twice")
        self._programs[index] = program

    def _deliver(self, to: int, env: Envelope) -> None:
        env.freeze()
        queue = self._inbox.get((env.sender, to))
        if queue is None:
            queue = self._inbox[env.sender, to] = deque()
        queue.append(env)

    def run(self) -> dict[int, object]:
        """Advance all parties to completion; returns per-party results."""
        runners = {idx: drive(gen, idx, self.session_id, self.protocol_id,
                              self.transcript, self._deliver,
                              functools.partial(self._take, idx))
                   for idx, gen in self._programs.items()}
        # The Recv each party is blocked on; a party runs again only when
        # an envelope from that peer is in its inbox.
        waiting: dict[int, Recv] = {}

        def resume(idx: int, exc: PartyTimeout | None = None) -> None:
            """Run one party until it blocks, ends or fails."""
            runner = runners[idx]
            try:
                waiting[idx] = next(runner) if exc is None else runner.throw(exc)
                return
            except StopIteration as stop:
                self.results[idx] = stop.value
            except PartyTimeout as err:
                self.errors[idx] = err
            del runners[idx]
            waiting.pop(idx, None)

        while runners:
            progressed = False
            for idx in sorted(runners):
                want = waiting.get(idx)
                if want is None or self._inbox.get((want.frm, idx)):
                    resume(idx)
                    progressed = True
            if progressed:
                continue
            # Every remaining party is blocked and nothing is in flight.
            for idx in sorted(runners):
                resume(idx, PartyTimeout(f"party {idx} starved waiting for "
                                         f"{waiting.get(idx)}"))
        return self.results

    def _take(self, to: int, frm: int) -> Envelope | None:
        queue = self._inbox.get((frm, to))
        return queue.popleft() if queue else None


def run_session(programs: dict[int, Iterable], session_id: int = 0,
                protocol_id: int = 0) -> SimNetwork:
    """Register, run, and raise Deadlock if no party completed."""
    net = SimNetwork(session_id=session_id, protocol_id=protocol_id)
    for idx, prog in programs.items():
        net.add_party(idx, prog)
    net.run()
    if not net.results and net.errors \
            and all(isinstance(e, PartyTimeout) for e in net.errors.values()):
        raise Deadlock(f"no party completed: {net.errors}")
    return net
