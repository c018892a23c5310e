"""TCP transport: the same party programs over loopback or LAN sockets.

Envelopes ride length-prefixed records (see envelope.frame).  One TcpNode
per party owns a listening socket plus one connection per peer; any number
of sessions multiplex over those connections, demultiplexed by
(session_id, sender).  The sender is the peer that the connection's
handshake named: an envelope whose sender byte says otherwise closes the
connection.

Each node has one reader thread, started with the node.  It runs a
selectors loop over the listener, the peer sockets and the handshakes of
peers that dialled in, parses frames from a buffer per connection and
appends each envelope to its (session, sender) queue.  `run_program`
runs a party program under `kernel.drive`.  One driven from another
thread (the gateway's connection threads, run_tcp_session, tests) waits
for its envelopes on the node's condition; one driven on the node thread
keeps reading the sockets while it waits.

A serving node (see `serve`) runs each session that a peer starts on the
node thread itself.  It starts a thread only for a session that arrives
while another session is in flight on the node thread: two servers that
each queued the other's next session behind a blocked one would deadlock.
"""
from __future__ import annotations

import select
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator

from .envelope import Envelope, FrameCorrupt, frame, take_frames
from .kernel import PartyTimeout, drive
from .transcript import Transcript


def _log():
    # Imported on first use: only failures log, and the logging package
    # costs an obfw process about 8 ms and 0.4 MB when imported at start.
    import logging
    return logging.getLogger(__name__)


# Longest the node thread sleeps in select before it looks at the clock
# (handshake deadlines; a waiting session's deadline).
TICK = 0.2
# How long, in node timeouts, a node remembers a finished session, so that a
# late envelope for it is dropped instead of queued or taken for a new
# session; also how long it holds the envelopes of a session that nothing
# runs (a reply that came later still, or one sent before `serve`).
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
    """The read side of one socket: its peer (None until the handshake)."""

    __slots__ = ("sock", "peer", "buf")

    def __init__(self, sock: socket.socket, peer: int | None):
        self.sock = sock
        self.peer = peer
        self.buf = bytearray()


class TcpNode:
    """One party's endpoint: accepts peers, dials peers, runs sessions."""

    def __init__(self, index: int, listen: Endpoint, timeout: float = 10.0):
        self.index = index
        self.timeout = timeout
        self._conns: dict[int, socket.socket] = {}
        self._send_locks: dict[int, threading.Lock] = {}
        self._closed = False
        # Guarded by _lock, which _cond wakes waiting readers on: the
        # received envelopes; the live sessions; the finished ones, each
        # with the time to forget it (and, in _forget_order, oldest first);
        # the sessions that nothing runs yet, each with its protocol and
        # the time to drop it; the serving callback; the node thread's tasks.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._forget = FORGET_AFTER * timeout
        self._queues: dict[tuple[int, int], deque[Envelope]] = {}
        self._live: set[int] = set()
        self._finished: dict[int, float] = {}
        self._forget_order: deque[tuple[float, int]] = deque()
        self._unserved: dict[int, tuple[int, float]] = {}
        self._program_for: ProgramFor | None = None
        self._tasks: list[Callable[[], None]] = []
        # Node thread only: accepted sockets awaiting their index byte, with
        # deadlines; sessions to run once the current events are handled;
        # whether a session is in flight on the node thread.
        self._handshakes: dict[_Conn, float] = {}
        self._starts: list[tuple[Generator, int, int]] = []
        self._inline = False

        self._server = socket.create_server((listen.host, listen.port))
        self._server.setblocking(False)
        self.port = self._server.getsockname()[1]
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._server, selectors.EVENT_READ)
        self._sel.register(self._wake_r, selectors.EVENT_READ)
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
        """Run every session a peer starts, `program_for` giving its program.

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
        # Non-blocking: reads wait in select and _send waits for room itself,
        # where a socket with a timeout would poll before every call.
        sock.setblocking(False)
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
                self._poll(TICK)
                starts, self._starts = self._starts, []
                for args in starts[1:]:
                    self._spawn(*args)
                if starts:
                    self._inline = True
                    try:
                        self._serve_session(*starts[0])
                    finally:
                        self._inline = False
        finally:
            self._shut()

    def _poll(self, timeout: float) -> None:
        """Handle what the sockets have for up to `timeout` seconds."""
        for key, _ in self._sel.select(timeout):
            if key.fileobj is self._server:
                self._accept()
            elif key.fileobj is self._wake_r:
                self._run_tasks()
            else:
                self._read(key.data)
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
            self._sel.register(conn.sock, selectors.EVENT_READ, conn)
        except (ValueError, OSError):
            conn.sock.close()   # closed before the node thread got to it

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
            # once the connection is installed for sends.
            del self._handshakes[conn]
            conn.peer = data[0]
            self._install(conn.peer, conn.sock)
            try:
                conn.sock.send(self.index.to_bytes(1, "little"))
            except OSError:
                self._drop(conn, None)
                return
            data = data[1:]
        conn.buf += data
        try:
            envs = take_frames(conn.buf)
        except FrameCorrupt as exc:
            self._drop(conn, str(exc))
            return
        for env in envs:
            if env.sender != conn.peer:
                self._drop(conn, f"envelope claims sender {env.sender}")
                return
            self._deliver(env)

    def _drop(self, conn: _Conn, why: str | None) -> None:
        if why is not None:
            _log().warning("party %d: closing the connection from party %s: %s",
                           self.index, conn.peer, why)
        self._handshakes.pop(conn, None)
        self._sel.unregister(conn.sock)
        with self._lock:
            if conn.peer is not None and self._conns.get(conn.peer) is conn.sock:
                del self._conns[conn.peer]
        conn.sock.close()

    def _deliver(self, env: Envelope) -> None:
        sid = env.session_id
        key = (sid, env.sender)
        with self._lock:
            if sid in self._finished:
                return      # the session finished here: a late envelope
            q = self._queues.get(key)
            if q is None:
                q = self._queues[key] = deque()
            q.append(env)
            self._cond.notify_all()
            if sid in self._live or sid in self._unserved:
                return
            if self._program_for is None:
                self._unserved[sid] = (env.protocol_id,
                                       time.monotonic() + self._forget)
                return
            self._live.add(sid)
        self._start(sid, env.protocol_id)

    def _start(self, session_id: int, protocol_id: int) -> None:
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
        elif self._inline:
            self._spawn(program, session_id, protocol_id)
        else:
            self._starts.append((program, session_id, protocol_id))

    def _spawn(self, program: Generator, session_id: int, protocol_id: int) -> None:
        threading.Thread(target=self._serve_session, daemon=True,
                         args=(program, session_id, protocol_id)).start()

    def _serve_session(self, program: Generator, session_id: int,
                       protocol_id: int) -> None:
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
            self._cond.notify_all()
        for key in list(self._sel.get_map().values()):
            key.fileobj.close()
        for sock in list(self._conns.values()):
            sock.close()
        self._sel.close()
        self._wake_w.close()

    # -- session driving -------------------------------------------------
    def run_program(self, program: Generator, session_id: int,
                    protocol_id: int):
        """Drive one party program over the socket mesh.

        Returns (result, transcript).  The session's receive queues are
        freed when the program returns or raises, and envelopes that
        arrive for it later are dropped.
        """
        tr = Transcript(session_id=session_id, protocol_id=protocol_id)
        with self._lock:
            self._claim(session_id)
        steps = drive(program, self.index, session_id, protocol_id, tr,
                      self._send, lambda frm: self._take(session_id, frm))
        try:
            while True:
                next(steps)     # never yields: _take waits itself
        except StopIteration as stop:
            return stop.value, tr
        finally:
            with self._lock:
                self._finish(session_id)

    def _send(self, to: int, env: Envelope) -> None:
        sock = self._conns.get(to)
        if sock is None:
            raise PartyTimeout(f"party {self.index} has no connection to {to}")
        deadline = time.monotonic() + self.timeout
        try:
            with self._send_locks[to]:
                view = memoryview(frame(env))
                while view:
                    try:
                        view = view[sock.send(view):]
                    except BlockingIOError:
                        room = select.poll()
                        room.register(sock, select.POLLOUT)
                        remaining = deadline - time.monotonic()
                        if remaining <= 0 or not room.poll(remaining * 1000):
                            raise TimeoutError("send timed out") from None
        except OSError as exc:
            raise PartyTimeout(
                f"party {self.index} could not send to {to}: {exc}") from exc

    def _take(self, session_id: int, frm: int) -> Envelope:
        """The next envelope from `frm` in this session; PartyTimeout if
        none arrives within the node timeout."""
        key = (session_id, frm)
        deadline = time.monotonic() + self.timeout
        if threading.current_thread() is self._thread:
            while True:
                with self._lock:
                    q = self._queues.get(key)
                    if q:
                        return q.popleft()
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    break
                # Keep reading the sockets, this session's included.
                self._poll(min(remaining, TICK))
        else:
            with self._lock:
                while True:
                    q = self._queues.get(key)
                    if q:
                        return q.popleft()
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or self._closed:
                        break
                    self._cond.wait(remaining)
        raise PartyTimeout(f"party {self.index} timed out waiting for "
                           f"party {frm} in session {session_id}")

    def _claim(self, session_id: int) -> None:
        """Mark a session live, whatever this node knew of it (under _lock)."""
        self._live.add(session_id)
        self._finished.pop(session_id, None)
        self._unserved.pop(session_id, None)

    def _finish(self, session_id: int) -> None:
        """Free a session's queues and remember it as finished for a while,
        forgetting those finished longer ago (under _lock)."""
        self._live.discard(session_id)
        self._unserved.pop(session_id, None)
        now = time.monotonic()
        self._finished[session_id] = now + self._forget
        self._forget_order.append((now + self._forget, session_id))
        while self._forget_order[0][0] < now:
            forget_at, old = self._forget_order.popleft()
            if self._finished.get(old) == forget_at:
                del self._finished[old]
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


def build_mesh(indices: list[int], host: str = "127.0.0.1",
               timeout: float = 10.0) -> dict[int, TcpNode]:
    """Fully connected loopback mesh for tests and demos."""
    nodes = {i: TcpNode(i, Endpoint(host, 0), timeout=timeout) for i in indices}
    for i in indices:
        for j in indices:
            if i < j:
                nodes[i].connect(j, Endpoint(host, nodes[j].port))
    # Wait until both directions are registered.
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
