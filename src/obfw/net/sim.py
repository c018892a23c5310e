"""Deterministic in-process network simulator.

Each registered party program runs under `kernel.drive`; the scheduler
advances them in index order, delivering every sendable message of a
step before the next step begins.  FIFO order holds per ordered party
pair, the whole run is a pure function of the registered programs, and
adversary hooks can drop, replace or delay envelopes in flight.
"""
from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, Iterable

from .envelope import Envelope
from .kernel import PartyTimeout, Recv, drive
from .transcript import Transcript


class Deadlock(Exception):
    pass


PASS = "pass"
DROP = "drop"


@dataclass
class Replace:
    payload: bytes


@dataclass
class Delay:
    steps: int


AdversaryHook = Callable[[Envelope], object]  # returns PASS/DROP/Replace/Delay


class SimNetwork:
    """Round-driven scheduler over generator party programs."""

    def __init__(self, session_id: int = 0, protocol_id: int = 0,
                 adversary: AdversaryHook | None = None):
        self.transcript = Transcript(session_id=session_id, protocol_id=protocol_id)
        self.session_id = session_id
        self.protocol_id = protocol_id
        self.adversary = adversary
        self._programs: dict[int, Generator] = {}
        self._inbox: dict[tuple[int, int], deque[Envelope]] = {}
        self._delayed: list[tuple[int, Envelope, int]] = []  # (remaining, env, to)
        self.results: dict[int, object] = {}
        self.errors: dict[int, BaseException] = {}

    def add_party(self, index: int, program: Generator) -> None:
        if index in self._programs:
            raise ValueError(f"party {index} registered twice")
        self._programs[index] = program

    def _deliver(self, to: int, env: Envelope) -> None:
        if self.adversary is not None:
            action = self.adversary(env)
            if action == DROP:
                return
            if isinstance(action, Replace):
                env = Envelope(env.protocol_id, env.step_id, env.session_id,
                               env.sender, action.payload)
            elif isinstance(action, Delay):
                self._delayed.append([action.steps, env, to])
                return
        self._inbox.setdefault((env.sender, to), deque()).append(env)

    def _tick_delayed(self) -> None:
        ready = [d for d in self._delayed if d[0] <= 0]
        self._delayed = [d for d in self._delayed if d[0] > 0]
        for d in self._delayed:
            d[0] -= 1
        for _, env, to in ready:
            self._inbox.setdefault((env.sender, to), deque()).append(env)

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
            if self._delayed:
                self._tick_delayed()
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
                protocol_id: int = 0, adversary: AdversaryHook | None = None
                ) -> SimNetwork:
    """Register, run, and raise Deadlock if no party completed and no
    adversary is there to explain it."""
    net = SimNetwork(session_id=session_id, protocol_id=protocol_id,
                     adversary=adversary)
    for idx, prog in programs.items():
        net.add_party(idx, prog)
    net.run()
    if adversary is None and not net.results and net.errors \
            and all(isinstance(e, PartyTimeout) for e in net.errors.values()):
        raise Deadlock(f"no party completed: {net.errors}")
    return net
