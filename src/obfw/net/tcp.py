"""TCP transport: the same party programs over loopback or LAN sockets.

Envelopes ride length-prefixed records (see envelope.frame).  One mesh
object per process owns the listening socket plus one connection per peer;
any number of sessions multiplex over those connections, demultiplexed by
(session_id, sender).  Received envelopes are routed to per-session queues
by a reader thread per connection.
"""
from __future__ import annotations

import queue
import socket
import threading
from dataclasses import dataclass
from typing import Generator

from .envelope import Envelope, FrameCorrupt, frame, read_frame
from .groups import decode_elements, encode_elements, segments_accounting_bits, segments_raw_bits
from .kernel import PartyTimeout, Recv, Send
from .transcript import Transcript


class ConnectFail(Exception):
    pass


@dataclass(frozen=True)
class Endpoint:
    host: str
    port: int


class TcpNode:
    """One party's endpoint: accepts peers, dials peers, runs sessions."""

    def __init__(self, index: int, listen: Endpoint, timeout: float = 10.0):
        self.index = index
        self.timeout = timeout
        self._conns: dict[int, socket.socket] = {}
        self._send_locks: dict[int, threading.Lock] = {}
        self._queues: dict[tuple[int, int], queue.Queue] = {}
        self._queues_lock = threading.Lock()
        self._readers: list[threading.Thread] = []
        self._closed = False
        self._seen_sessions: set[int] = set()
        self.new_sessions: queue.Queue = queue.Queue()
        self._server = socket.create_server((listen.host, listen.port))
        self._server.settimeout(timeout)
        self.port = self._server.getsockname()[1]
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    # -- wiring ---------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _ = self._server.accept()
            except (socket.timeout, OSError):
                if self._closed:
                    return
                continue
            try:
                peer = int.from_bytes(self._read_exact(sock, 1), "little")
                sock.sendall(self.index.to_bytes(1, "little"))
            except (FrameCorrupt, OSError):
                sock.close()
                continue
            self._register(peer, sock)

    def connect(self, peer: int, ep: Endpoint) -> None:
        try:
            sock = socket.create_connection((ep.host, ep.port), timeout=self.timeout)
        except OSError as exc:
            raise ConnectFail(f"party {self.index} -> {peer} at {ep}: {exc}") from exc
        sock.sendall(self.index.to_bytes(1, "little"))
        ack = int.from_bytes(self._read_exact(sock, 1), "little")
        if ack != peer:
            raise ConnectFail(f"expected peer {peer}, reached {ack}")
        self._register(peer, sock)

    def _register(self, peer: int, sock: socket.socket) -> None:
        sock.settimeout(self.timeout)
        self._conns[peer] = sock
        self._send_locks[peer] = threading.Lock()
        t = threading.Thread(target=self._reader_loop, args=(peer, sock), daemon=True)
        t.start()
        self._readers.append(t)

    @staticmethod
    def _read_exact(sock: socket.socket, n: int) -> bytes:
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise FrameCorrupt("connection closed mid-frame")
            buf += chunk
        return buf

    def _reader_loop(self, peer: int, sock: socket.socket) -> None:
        try:
            while not self._closed:
                env = read_frame(lambda n: self._read_exact(sock, n))
                with self._queues_lock:
                    if env.session_id not in self._seen_sessions:
                        self._seen_sessions.add(env.session_id)
                        self.new_sessions.put((env.session_id, env.protocol_id))
                self._queue_for(env.session_id, env.sender).put(env)
        except (FrameCorrupt, OSError):
            sock.close()

    def mark_session(self, session_id: int) -> None:
        """Suppress the new-session notification for locally started sessions."""
        with self._queues_lock:
            self._seen_sessions.add(session_id)

    def _queue_for(self, session: int, sender: int) -> queue.Queue:
        with self._queues_lock:
            key = (session, sender)
            q = self._queues.get(key)
            if q is None:
                q = self._queues[key] = queue.Queue()
            return q

    # -- session driving -------------------------------------------------
    def run_program(self, program: Generator, session_id: int,
                    protocol_id: int, transcript: Transcript | None = None):
        """Drive one party program over the socket mesh; returns its result.

        The session's receive queues are freed when the program returns or
        raises.
        """
        tr = transcript if transcript is not None else Transcript(
            session_id=session_id, protocol_id=protocol_id)
        resume = None
        try:
            while True:
                try:
                    cmd = program.send(resume)
                except StopIteration as stop:
                    return stop.value, tr
                resume = None
                if isinstance(cmd, Send):
                    payload = encode_elements(cmd.segments)
                    env = Envelope(protocol_id, cmd.step, session_id,
                                   self.index, payload)
                    tr.record_send(self.index, cmd.to, cmd.step,
                                   segments_accounting_bits(cmd.segments),
                                   segments_raw_bits(cmd.segments),
                                   sum(len(v) for _, v in cmd.segments),
                                   payload=payload)
                    sock = self._conns[cmd.to]
                    with self._send_locks[cmd.to]:
                        sock.sendall(frame(env))
                elif isinstance(cmd, Recv):
                    try:
                        env = self._queue_for(session_id, cmd.frm).get(
                            timeout=self.timeout)
                    except queue.Empty:
                        raise PartyTimeout(
                            f"party {self.index} timed out waiting for "
                            f"step {cmd.step} from {cmd.frm}") from None
                    if env.step_id != cmd.step:
                        raise PartyTimeout(
                            f"party {self.index} expected step {cmd.step}, "
                            f"got {env.step_id}")
                    tr.record_recv(self.index, cmd.frm, env.step_id)
                    resume = decode_elements(env.payload, cmd.schema)
                else:
                    raise TypeError(f"unknown command {cmd!r}")
        except PartyTimeout as exc:
            try:
                program.throw(exc)
            except StopIteration as stop:
                return stop.value, tr
            except PartyTimeout:
                pass
            raise
        finally:
            with self._queues_lock:
                for key in [k for k in self._queues if k[0] == session_id]:
                    del self._queues[key]

    def close(self) -> None:
        self._closed = True
        for sock in self._conns.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        self._server.close()


def build_mesh(indices: list[int], host: str = "127.0.0.1",
               timeout: float = 10.0) -> dict[int, TcpNode]:
    """Fully connected loopback mesh for tests and demos."""
    nodes = {i: TcpNode(i, Endpoint(host, 0), timeout=timeout) for i in indices}
    for i in indices:
        for j in indices:
            if i < j:
                nodes[i].connect(j, Endpoint(host, nodes[j].port))
    # Wait until both directions are registered.
    import time
    deadline = time.monotonic() + timeout
    for i in indices:
        for j in indices:
            if i != j:
                while j not in nodes[i]._conns:
                    if time.monotonic() > deadline:
                        raise ConnectFail("mesh wiring timed out")
                    time.sleep(0.001)
    return nodes


def run_tcp_session(nodes: dict[int, TcpNode], programs: dict[int, Generator],
                    session_id: int, protocol_id: int):
    """Run one session across mesh nodes, one thread per party.

    Returns (results, merged transcript).  The merged transcript has the
    same totals as a simulator run of the same programs.
    """
    results: dict[int, object] = {}
    errors: dict[int, BaseException] = {}
    transcripts: dict[int, Transcript] = {}

    def drive(idx: int) -> None:
        try:
            res, tr = nodes[idx].run_program(
                programs[idx], session_id, protocol_id)
            results[idx] = res
            transcripts[idx] = tr
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            errors[idx] = exc

    threads = [threading.Thread(target=drive, args=(i,)) for i in programs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    merged = Transcript(session_id=session_id, protocol_id=protocol_id)
    for tr in transcripts.values():
        for step, bits in tr.step_acc_bits.items():
            merged.step_acc_bits[step] += bits
        for step, bits in tr.step_raw_bits.items():
            merged.step_raw_bits[step] += bits
        for step, n in tr.step_elements.items():
            merged.step_elements[step] += n
        for party, evs in tr.party_events.items():
            merged.party_events[party].extend(evs)
        for party, digest in tr.payload_digests.items():
            merged.payload_digests[party] = digest
        merged.messages += tr.messages
    return results, errors, merged
