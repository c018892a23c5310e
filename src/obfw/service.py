"""Firewall daemons: share-store servers, the gateway line protocol, and
the authenticated admin update channel.

Wire surfaces:
  * gateway public port  -- "CHECK <dotted-quad>\n" ->
        "BLOCK\n" | "FORWARD\n" | "ALERT <i,j,...>\n" | "ALERT\n" (an alert
        that names no suspect)
  * server admin port    -- "UPDATE <dotted-quad> <v1,v2,...>\n" then
        "HMAC <hex over the UPDATE line>\n" -> "OK\n" | "AUTHFAIL\n" |
        "ERROR <why>\n" (the store file could not be written)
  * on either text port, a line longer than MAX_LINE characters is answered
        "ERROR line too long\n", and the connection closes; a connection
        made while MAX_CONNECTIONS others are open is answered
        "ERROR busy\n" and closed at once
  * server eval port     -- envelope sessions with the gateway; firewall.py
        builds each (gateway_session, server_program).  Sum mode runs
        protocol 9 and product mode the zero test, protocol 13.

The daemons are a star: the gateway's TcpNode dials every server and
listens nowhere, and a server's node dials no one.  Each node reads all of
its connections on one thread.  A server runs the evaluation sessions the
gateway starts on that thread, one after another, each to its end: a
session of either mode is one envelope in and one out, so it never waits
(see TcpNode.serve).  The gateway runs each CHECK on the thread of the
client connection that asked for it.
"""
from __future__ import annotations

import os
import socket
import threading
from typing import Callable

from .errors import IoError
from .firewall import (
    CHECK_PROTOCOLS,
    BadConfig,
    EvalVerdict,
    FirewallConfig,
    AuthFail,
    ServerTimeout,
    ShareStore,
    check_product_config,
    gateway_session,
    parse_ipv4,
    server_program,
    verify_admin_mac,
)
from .net import Endpoint, PartyTimeout, TcpNode

# Characters a text line may hold, newline included (UPDATE lines stay under 800).
MAX_LINE = 4096
# Connections a text port serves at once, one thread each.
MAX_CONNECTIONS = 64


class _LineServer:
    """A text port: one accept thread, and one thread per connection that
    writes `answer(line, read_line)` for each line, in the order the lines
    came; `answer` reads further lines of its request with `read_line()`.
    At most MAX_CONNECTIONS connections are served at once; one more is
    answered "ERROR busy" and closed."""

    def __init__(self, listen: Endpoint, answer: Callable[[str, Callable], str]):
        self._answer = answer
        self._sock = socket.create_server((listen.host, listen.port))
        self.port = self._sock.getsockname()[1]
        # The listener and the connections still open; None once stopped.
        self._lock = threading.Lock()
        self._open: set[socket.socket] | None = {self._sock}
        self._thread = threading.Thread(target=self._accept, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Close the port and every open connection.  A connection's thread
        ends once the answer it is computing, if any, returns."""
        with self._lock:
            socks, self._open = self._open or set(), None
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)     # wakes accept() and reads
            except OSError:
                pass
        if self._thread.is_alive():
            self._thread.join()
        self._sock.close()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return                              # stop() shut it down
            with self._lock:
                if self._open is None:
                    conn.close()
                    return
                busy = len(self._open) > MAX_CONNECTIONS    # the listener too
                if not busy:
                    self._open.add(conn)
            if busy:
                with conn:
                    try:
                        conn.sendall(b"ERROR busy\n")    # fits an empty buffer
                    except OSError:
                        pass
                continue
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        # Separate reader and writer: a write through a shared "rw" text file
        # discards the reader's buffered input, which holds pipelined lines.
        try:
            with conn, conn.makefile("r", newline="\n") as rfh, \
                    conn.makefile("w", newline="\n") as wfh:
                def read_line() -> str:
                    line = rfh.readline(MAX_LINE)
                    if len(line) == MAX_LINE and not line.endswith("\n"):
                        wfh.write("ERROR line too long\n")
                        wfh.flush()
                        raise ConnectionAbortedError("line too long")
                    return line
                for line in iter(read_line, ""):
                    wfh.write(self._answer(line, read_line))
                    wfh.flush()
        except (OSError, UnicodeDecodeError):
            pass    # the client left or sent no text, or stop() closed it
        finally:
            with self._lock:
                if self._open is not None:
                    self._open.discard(conn)


class FirewallServerDaemon:
    """Hosts one share store: envelope sessions plus the admin text port.

    No session a server runs draws randomness: the zero test's comes from
    the store's PRSS keys.  A Shamir store without them refuses each zero
    test at once, so the CHECK ends in an ERROR naming this server rather
    than in the gateway's party timeout.  `seed` is accepted and unused,
    so that callers that pass one keep working.
    """

    def __init__(self, store: ShareStore, node: TcpNode, psk: bytes,
                 admin_listen: Endpoint = Endpoint("127.0.0.1", 0),
                 seed: bytes | int | None = None):
        self.store = store
        self.node = node
        self.psk = psk
        self._admin = _LineServer(admin_listen, self._answer)
        self.admin_port = self._admin.port

    def start(self) -> None:
        self.node.serve(self._program_for)
        self._admin.start()

    def stop(self) -> None:
        self._admin.stop()
        self.node.close()

    # -- envelope sessions -------------------------------------------------
    def _program_for(self, session_id: int, protocol_id: int):
        if protocol_id in CHECK_PROTOCOLS:
            return server_program(self.store, protocol_id, session_id)
        return None

    # -- admin text protocol -------------------------------------------------
    def _answer(self, line: str, read_line: Callable[[], str]) -> str:
        mac_line = read_line()
        try:
            if not mac_line.startswith("HMAC "):
                raise AuthFail("missing HMAC line")
            verify_admin_mac(self.psk, line.rstrip("\n"), mac_line[5:])
            parts = line.split()
            if len(parts) != 3 or parts[0] != "UPDATE":
                raise AuthFail("malformed admin command")
            addr = parse_ipv4(parts[1])
            values = [int(v) % self.store.config.N for v in parts[2].split(",")]
            positions = sorted(set(self.store.hash_indices(addr)))
            if len(values) != len(positions):
                raise AuthFail("need one value per filter position")
            self.store.apply_update(list(zip(positions, values)))
        except (AuthFail, ValueError):
            # A bad MAC, or a MAC'd line with a bad address or a value that
            # is no integer: nothing was applied.
            return "AUTHFAIL\n"
        except IoError as exc:
            return f"ERROR {exc}\n"     # the store file kept the old values
        return "OK\n"


class GatewayDaemon:
    """Public CHECK endpoint; evaluates each address against the servers."""

    def __init__(self, cfg: FirewallConfig, node: TcpNode,
                 listen: Endpoint = Endpoint("127.0.0.1", 0),
                 mode: str = "sum"):
        if mode not in ("sum", "product"):
            raise BadConfig(f"gateway mode must be sum or product, got {mode!r}")
        if mode == "product":
            check_product_config(cfg)
        self.cfg = cfg
        self.node = node
        self.mode = mode
        # Session ids start at a random 64-bit epoch, so the zero test's
        # random multipliers, which the id and address fix, do not repeat
        # across gateway restarts.  Servers remember no finished id.
        self._session_counter = int.from_bytes(os.urandom(8), "little")
        self._lock = threading.Lock()
        self._lines = _LineServer(listen, self._answer)
        self.port = self._lines.port

    def start(self) -> None:
        self._lines.start()

    def stop(self) -> None:
        self._lines.stop()
        self.node.close()

    def check(self, addr_text: str) -> EvalVerdict:
        addr = parse_ipv4(addr_text)
        with self._lock:
            self._session_counter = (self._session_counter + 1) % 2 ** 64
            session = self._session_counter
        program, proto, decide = gateway_session(
            self.cfg, self.mode, addr, range(1, self.cfg.m + 1))
        try:
            responses, _ = self.node.run_program(program, session, proto)
        except PartyTimeout as exc:
            raise ServerTimeout(str(exc)) from exc
        return decide(self.cfg, responses)

    def _answer(self, line: str, _read_line: Callable[[], str]) -> str:
        parts = line.split()
        try:
            if len(parts) != 2 or parts[0] != "CHECK":
                raise ValueError("expected CHECK <dotted-quad>")
            verdict = self.check(parts[1])
        except (ValueError, ServerTimeout) as exc:
            return f"ERROR {exc}\n"
        if verdict.decision != "alert":
            return verdict.decision.upper() + "\n"     # BLOCK or FORWARD
        suspects = ",".join(str(s) for s in sorted(verdict.suspects))
        return f"ALERT {suspects}\n" if suspects else "ALERT\n"


def admin_push_update(host: str, port: int, psk: bytes, addr_text: str,
                      values: list[int], timeout: float = 5.0) -> str:
    """Send one authenticated UPDATE to a server's admin port."""
    from .firewall import admin_mac
    line = f"UPDATE {addr_text} {','.join(str(v) for v in values)}"
    with socket.create_connection((host, port), timeout=timeout) as conn:
        fh = conn.makefile("rw", newline="\n")
        fh.write(line + "\n")
        fh.write("HMAC " + admin_mac(psk, line) + "\n")
        fh.flush()
        reply = fh.readline().strip()
    if reply != "OK":
        raise AuthFail(f"server replied {reply!r}")
    return reply
