"""TCP transport: the same party programs over loopback or LAN sockets.

Envelopes ride length-prefixed records (see envelope.frame).  One TcpNode
per party owns its connections to its peers, and a listening socket
unless it only dials; any number of sessions multiplex over those
connections, demultiplexed by (session_id, sender).  The sender is the
peer that the connection's handshake named: an envelope whose sender byte
says otherwise closes the connection.  Every peer socket sets
TCP_NODELAY: a session trades many envelopes of a few bytes each, and
Nagle's algorithm would hold each one behind an unacknowledged one until
the peer's delayed ACK fires.

Each node has one reader thread, started with the node.  It runs a
`poll` loop over a table of file descriptors: the listener, the peer
sockets and the handshakes of peers that dialled in.  It parses the
records of each read in place, keeping a buffer only for a record that
the read left partial, and appends each envelope to its (session,
sender) queue.  `run_program` runs a party program under `kernel.drive`.
One driven from another thread (the gateway's connection threads,
run_tcp_session, tests) waits on a lock of its own, which the reader
releases only when an envelope for that (session, sender) arrives.

The daemons are a star: the gateway dials every server, and no envelope
travels between servers.  A serving node (see `serve`) runs each session
that a peer starts on the node thread, to its end, as soon as the read
that opened it is queued.  Such a session never waits: a firewall CHECK's
server session, in sum mode or the zero test, is one envelope in and one
out, and a served session whose `Recv` finds no envelope queued ends at
once with PartyTimeout, which the node logs.
"""
from __future__ import annotations

import functools
import select
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator

from .envelope import Envelope, FrameCorrupt, frame, read_records
from .kernel import PartyTimeout, drive
from .transcript import Transcript


def _log():
    # Imported on first use: only failures log, and the logging package
    # costs an obfw process about 8 ms and 0.4 MB when imported at start.
    import logging
    return logging.getLogger(__name__)


# Longest the node thread sleeps in poll before it looks at the clock
# (handshake deadlines; sessions that nothing runs, to drop).
TICK = 0.2
# How long, in node timeouts, a node that does not serve holds the envelopes
# of a session that nothing runs: one sent before its session starts, or
# after it ended.  A node keeps nothing of a session once it ends.
FORGET_AFTER = 2

# program_for(session_id, protocol_id) -> party program, or None to ignore.
ProgramFor = Callable[[int, int], "Generator | None"]


class ConnectFail(Exception):
    pass


@dataclass(frozen=True)
class Endpoint:
    host: str
    port: int


class _Conn:
    """The read side of one socket: its peer (None until the handshake), and
    the partial record its last read left, parsed again at `need` bytes."""

    __slots__ = ("sock", "peer", "buf", "need")

    def __init__(self, sock: socket.socket, peer: int | None):
        self.sock = sock
        self.peer = peer
        self.buf = bytearray()
        self.need = 0


class TcpNode:
    """One party's endpoint: accepts peers on `listen` (none if it is None:
    a node that only dials), dials peers, runs sessions."""

    def __init__(self, index: int, listen: Endpoint | None,
                 timeout: float = 10.0):
        self.index = index
        self.timeout = timeout
        self._conns: dict[int, socket.socket] = {}
        self._send_locks: dict[int, threading.Lock] = {}
        self._closed = False
        # Guarded by _lock: the received envelopes; the lock that each
        # thread other than the node thread waits on for its next one; the
        # sessions a program runs; those that nothing runs, each with its
        # protocol and the time to drop it, soonest first; the serving
        # callback; the node thread's tasks.
        self._lock = threading.Lock()
        self._forget = FORGET_AFTER * timeout
        self._queues: dict[tuple[int, int], deque[Envelope]] = {}
        self._waiters: dict[tuple[int, int], threading.Lock] = {}
        self._live: set[int] = set()
        self._unserved: dict[int, tuple[int, float]] = {}
        self._program_for: ProgramFor | None = None
        self._tasks: list[Callable[[], None]] = []
        # Node thread only: the polled peer sockets by file descriptor;
        # accepted sockets awaiting their index byte, with deadlines.
        self._fds: dict[int, _Conn] = {}
        self._handshakes: dict[_Conn, float] = {}

        self._server = self.port = None
        self._poller = select.poll()
        if listen is not None:
            self._server = socket.create_server((listen.host, listen.port))
            self._server.setblocking(False)
            self.port = self._server.getsockname()[1]
            self._poller.register(self._server, select.POLLIN)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._poller.register(self._wake_r, select.POLLIN)
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name=f"obfw-node-{index}")
        self._thread.start()

    # -- wiring ---------------------------------------------------------
    def connect(self, peer: int, ep: Endpoint) -> None:
        try:
            sock = socket.create_connection((ep.host, ep.port), timeout=self.timeout)
        except OSError as exc:
            raise ConnectFail(f"party {self.index} -> {peer} at {ep}: {exc}") from exc
        try:
            sock.sendall(self.index.to_bytes(1, "little"))
            ack = sock.recv(1)
            if not ack:
                raise FrameCorrupt("connection closed mid-handshake")
            if ack[0] != peer:
                raise ConnectFail(f"expected peer {peer}, reached {ack[0]}")
        except BaseException:
            sock.close()
            raise
        self._install(peer, sock)
        self._call_soon(lambda: self._watch(_Conn(sock, peer)))

    def serve(self, program_for: ProgramFor) -> None:
        """Run every session a peer starts, `program_for` giving its program,
        on the node thread: a `Recv` there whose envelope is not queued
        ends the session with PartyTimeout.

        Sessions that arrived before this call, and not longer ago than
        FORGET_AFTER timeouts, start now.
        """
        with self._lock:
            self._program_for = program_for
            pending, self._unserved = self._unserved, {}
            self._live.update(pending)

        def start_pending() -> None:
            for session_id, (protocol_id, _) in pending.items():
                self._start(session_id, protocol_id)
        self._call_soon(start_pending)

    def _install(self, peer: int, sock: socket.socket) -> None:
        # Non-blocking: reads wait in poll and _send waits for room itself,
        # where a socket with a timeout would poll before every call.
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            self._send_locks.setdefault(peer, threading.Lock())
            self._conns[peer] = sock

    def _call_soon(self, task: Callable[[], None]) -> None:
        with self._lock:
            self._tasks.append(task)
        self._wake()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass    # a wake-up is already pending, or the node is closed

    # -- the node thread ---------------------------------------------------
    def _loop(self) -> None:
        try:
            while not self._closed:
                self._poll()
        finally:
            self._shut()

    def _poll(self) -> None:
        """Handle what the sockets have for up to TICK seconds."""
        fds = self._fds
        for fd, _ in self._poller.poll(TICK * 1000):
            conn = fds.get(fd)
            if conn is not None:
                self._read(conn)
            elif fd == self._wake_r.fileno():
                self._run_tasks()
            elif self._server is not None and fd == self._server.fileno():
                self._accept()
        if self._handshakes:
            now = time.monotonic()
            for conn, deadline in list(self._handshakes.items()):
                if deadline < now:
                    self._drop(conn, "no handshake")
        if self._unserved:
            now = time.monotonic()
            with self._lock:
                expired = []
                for session_id, (_, drop_at) in self._unserved.items():
                    if drop_at > now:
                        break
                    expired.append(session_id)
                for session_id in expired:
                    self._finish(session_id)

    def _run_tasks(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except BlockingIOError:
            pass
        with self._lock:
            tasks, self._tasks = self._tasks, []
        for task in tasks:
            task()

    def _accept(self) -> None:
        try:
            sock, _ = self._server.accept()
        except OSError:
            return
        sock.setblocking(False)
        conn = _Conn(sock, None)
        self._handshakes[conn] = time.monotonic() + self.timeout
        self._watch(conn)

    def _watch(self, conn: _Conn) -> None:
        try:
            self._poller.register(conn.sock, select.POLLIN)
        except (ValueError, OSError):
            conn.sock.close()   # closed before the node thread got to it
        else:
            self._fds[conn.sock.fileno()] = conn

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._drop(conn, None)
            return
        if conn.peer is None:
            # Handshake: the peer names its index and we answer with ours,
            # once the connection is installed for sends (`build_mesh`
            # relies on this order).
            del self._handshakes[conn]
            conn.peer = data[0]
            self._install(conn.peer, conn.sock)
            try:
                conn.sock.send(self.index.to_bytes(1, "little"))
            except OSError:
                self._drop(conn, None)
                return
            data = data[1:]
        buf = conn.buf
        if buf:
            buf += data
            if len(buf) < conn.need:
                return
            data = bytes(buf)
            buf.clear()
        # The records before the first bad one are delivered, then it closes.
        envs: list[Envelope] = []
        bad = None
        try:
            pos, conn.need = read_records(data, envs)
        except FrameCorrupt as exc:
            bad = str(exc)
        else:
            if pos < len(data):
                buf += memoryview(data)[pos:]
        peer = conn.peer
        for i, env in enumerate(envs):
            if env.sender != peer:
                bad = f"envelope claims sender {env.sender}"
                del envs[i:]
                break
        if envs:
            self._deliver(envs)
        if bad is not None:
            self._drop(conn, bad)

    def _drop(self, conn: _Conn, why: str | None) -> None:
        if why is not None:
            _log().warning("party %d: closing the connection from party %s: %s",
                           self.index, conn.peer, why)
        self._handshakes.pop(conn, None)
        self._poller.unregister(conn.sock)
        del self._fds[conn.sock.fileno()]
        with self._lock:
            if conn.peer is not None and self._conns.get(conn.peer) is conn.sock:
                del self._conns[conn.peer]
        conn.sock.close()

    def _deliver(self, envs: list[Envelope]) -> None:
        """Queue the envelopes of one read, waking their waiters and
        starting the sessions they open."""
        starts, woken = [], []
        with self._lock:
            for env in envs:
                sid = env.session_id
                key = (sid, env.sender)
                q = self._queues.get(key)
                if q is None:
                    q = self._queues[key] = deque()
                q.append(env)
                waiter = self._waiters.pop(key, None)
                if waiter is not None:
                    woken.append(waiter)
                if sid in self._live or sid in self._unserved:
                    continue
                if self._program_for is None:
                    self._unserved[sid] = (env.protocol_id,
                                           time.monotonic() + self._forget)
                    continue
                self._live.add(sid)
                starts.append((sid, env.protocol_id))
        for waiter in woken:
            waiter.release()
        for sid, protocol_id in starts:
            self._start(sid, protocol_id)

    def _start(self, session_id: int, protocol_id: int) -> None:
        """Run a session that a peer started, here on the node thread."""
        program_for = self._program_for
        program = None
        try:
            if program_for is not None:
                program = program_for(session_id, protocol_id)
        except Exception:   # noqa: BLE001 - one session must not stop the node
            _log().exception("party %d: no program for session %d (protocol %d)",
                             self.index, session_id, protocol_id)
        if program is None:
            with self._lock:
                self._finish(session_id)
            return
        try:
            self.run_program(program, session_id, protocol_id)
        except PartyTimeout as exc:
            _log().warning("party %d: session %d (protocol %d): %s",
                           self.index, session_id, protocol_id, exc)
        except Exception:   # noqa: BLE001 - one session must not stop the node
            _log().exception("party %d: session %d (protocol %d) failed",
                             self.index, session_id, protocol_id)

    def _shut(self) -> None:
        with self._lock:
            self._program_for = None
            self._tasks.clear()
            waiters, self._waiters = self._waiters, {}
        for waiter in waiters.values():
            waiter.release()
        for conn in self._fds.values():
            conn.sock.close()
        for sock in list(self._conns.values()):
            sock.close()
        if self._server is not None:
            self._server.close()
        self._wake_r.close()
        self._wake_w.close()

    # -- session driving -------------------------------------------------
    def run_program(self, program: Generator, session_id: int,
                    protocol_id: int):
        """Drive one party program over the socket mesh.

        Returns (result, transcript).  The session takes the envelopes
        already held for it; its receive queues are freed when the program
        returns or raises.
        """
        tr = Transcript(session_id=session_id, protocol_id=protocol_id)
        with self._lock:
            self._live.add(session_id)
            self._unserved.pop(session_id, None)
        steps = drive(program, self.index, session_id, protocol_id, tr,
                      self._send, functools.partial(self._take, session_id))
        try:
            while True:
                next(steps)     # never yields: _take returns or raises
        except StopIteration as stop:
            return stop.value, tr
        finally:
            with self._lock:
                self._finish(session_id)

    def _send(self, to: int, env: Envelope) -> None:
        sock = self._conns.get(to)
        if sock is None:
            raise PartyTimeout(f"party {self.index} has no connection to {to}")
        data = frame(env)
        try:
            with self._send_locks[to]:
                try:
                    sent = sock.send(data)
                except BlockingIOError:
                    sent = 0
                if sent < len(data):
                    self._send_rest(sock, memoryview(data)[sent:])
        except OSError as exc:
            raise PartyTimeout(
                f"party {self.index} could not send to {to}: {exc}") from exc

    def _send_rest(self, sock: socket.socket, view: memoryview) -> None:
        """Send what the kernel buffer had no room for, waiting for room
        for up to the node timeout."""
        deadline = time.monotonic() + self.timeout
        room = select.poll()
        room.register(sock, select.POLLOUT)
        while view:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not room.poll(remaining * 1000):
                raise TimeoutError("send timed out")
            try:
                view = view[sock.send(view):]
            except BlockingIOError:
                pass

    def _take(self, session_id: int, frm: int) -> Envelope:
        """The next envelope from `frm` in this session; PartyTimeout if it
        is not queued yet on the node thread, or if none arrives within the
        node timeout on any other."""
        key = (session_id, frm)
        deadline = None
        while True:
            with self._lock:
                q = self._queues.get(key)
                if q:
                    return q.popleft()
                if threading.current_thread() is self._thread:
                    raise PartyTimeout(
                        f"party {self.index} is missing the envelope from "
                        f"party {frm} in session {session_id}")
                if deadline is None:    # the envelope is not in yet
                    deadline = time.monotonic() + self.timeout
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    self._waiters.pop(key, None)
                    break
                waiter = self._waiters[key] = threading.Lock()
                waiter.acquire()
            waiter.acquire(timeout=remaining)
        raise PartyTimeout(f"party {self.index} timed out waiting for "
                           f"party {frm} in session {session_id}")

    def _finish(self, session_id: int) -> None:
        """Forget a session and free its queues (under _lock).  An envelope
        that arrives for it later is one more that nothing runs: a serving
        node starts a session for it, any other holds it for FORGET_AFTER
        timeouts."""
        self._live.discard(session_id)
        self._unserved.pop(session_id, None)
        for key in [k for k in self._queues if k[0] == session_id]:
            del self._queues[key]

    def close(self) -> None:
        """Close every connection and the listener; the node thread exits."""
        self._closed = True
        self._program_for = None
        for sock in list(self._conns.values()):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._wake()
        if threading.current_thread() is not self._thread:
            self._thread.join(self.timeout)


def build_mesh(indices: list[int], timeout: float = 10.0) -> dict[int, TcpNode]:
    """Fully connected loopback mesh for tests and demos.  Both directions
    of a link are registered once its `connect` returns: the acceptor
    installs the connection before it sends the ack `connect` awaits."""
    nodes = {i: TcpNode(i, Endpoint("127.0.0.1", 0), timeout=timeout)
             for i in indices}
    for i in indices:
        for j in indices:
            if i < j:
                nodes[i].connect(j, Endpoint("127.0.0.1", nodes[j].port))
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

    def run_party(idx: int) -> None:
        try:
            res, tr = nodes[idx].run_program(
                programs[idx], session_id, protocol_id)
            results[idx] = res
            transcripts[idx] = tr
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            errors[idx] = exc

    threads = [threading.Thread(target=run_party, args=(i,)) for i in programs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    merged = Transcript(session_id=session_id, protocol_id=protocol_id)
    for tr in transcripts.values():
        merged.merge(tr)
    return results, errors, merged
