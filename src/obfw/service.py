"""Firewall daemons: share-store servers, the gateway line protocol, and
the authenticated admin update channel.

Wire surfaces:
  * gateway public port  -- "CHECK <dotted-quad>\n" ->
        "BLOCK\n" | "FORWARD\n" | "ALERT <suspects>\n"
  * server admin port    -- "UPDATE <dotted-quad> <v1,v2,...>\n" then
        "HMAC <hex over the UPDATE line>\n" -> "OK\n" | "AUTHFAIL\n" |
        "ERROR <why>\n" (the store file could not be written)
  * server eval port     -- envelope protocol (ids 9/10) with the gateway
        and the other servers.

Each daemon's TcpNode reads all of its peer connections on one thread.  A
server runs the evaluation sessions the gateway starts on that thread (see
TcpNode.serve); the gateway runs each CHECK on the thread of the client
connection that asked for it.
"""
from __future__ import annotations

import os
import socket
import threading
from typing import Callable, TextIO

from .errors import IoError
from .firewall import (
    EvalVerdict,
    FirewallConfig,
    AuthFail,
    NoMajority,
    ServerTimeout,
    ShareStore,
    check_product_config,
    decide_product,
    decide_sum,
    gateway_product_program,
    gateway_sum_program,
    parse_ipv4,
    server_product_program,
    server_sum_program,
    verify_admin_mac,
)
from .net import PROTO_FW_EVAL_PRODUCT, PROTO_FW_EVAL_SUM, Endpoint, PartyTimeout, TcpNode
from .rng import RandomSource


class _LineServer:
    """A text port: one accept thread, and one thread per connection that
    writes `answer(line, reader)` for each line, in the order the lines
    came; `answer` may read further lines of its request from `reader`."""

    def __init__(self, listen: Endpoint, answer: Callable[[str, TextIO], str]):
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
                self._open.add(conn)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        # Separate reader and writer: a write through a shared "rw" text file
        # discards the reader's buffered input, which holds pipelined lines.
        try:
            with conn, conn.makefile("r", newline="\n") as rfh, \
                    conn.makefile("w", newline="\n") as wfh:
                for line in iter(rfh.readline, ""):
                    wfh.write(self._answer(line, rfh))
                    wfh.flush()
        except (OSError, UnicodeDecodeError):
            pass    # the client left or sent no text, or stop() closed it
        finally:
            with self._lock:
                if self._open is not None:
                    self._open.discard(conn)


class FirewallServerDaemon:
    """Hosts one share store: envelope sessions plus the admin text port."""

    def __init__(self, store: ShareStore, node: TcpNode, psk: bytes,
                 admin_listen: Endpoint = Endpoint("127.0.0.1", 0),
                 seed: bytes | int = 0):
        self.store = store
        self.node = node
        self.psk = psk
        self.rng = RandomSource(seed)
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
        if protocol_id == PROTO_FW_EVAL_SUM:
            return server_sum_program(self.store)
        if protocol_id == PROTO_FW_EVAL_PRODUCT:
            return server_product_program(
                self.store, self.rng.child(f"s/{session_id}"))
        return None

    # -- admin text protocol -------------------------------------------------
    def _answer(self, line: str, reader: TextIO) -> str:
        mac_line = reader.readline()
        try:
            if not mac_line.startswith("HMAC "):
                raise AuthFail("missing HMAC line")
            verify_admin_mac(self.psk, line.rstrip("\n"), mac_line[5:])
            parts = line.split()
            if len(parts) != 3 or parts[0] != "UPDATE":
                raise AuthFail("malformed admin command")
            addr = parse_ipv4(parts[1])
            values = [int(v) % self.store.config.N for v in parts[2].split(",")]
            indices = self.store.hash_indices(addr)
            pairs = list(zip(sorted(set(indices)), values))
            if len(pairs) != len(values):
                raise AuthFail("value count does not match index count")
            self.store.apply_update(pairs)
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
        if mode == "product":
            check_product_config(cfg)
        self.cfg = cfg
        self.node = node
        self.mode = mode
        # Session ids start at a random 64-bit epoch, so a restarted gateway
        # does not reuse the ids that the servers remember as finished.
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
        if self.mode == "product":
            program = gateway_product_program(self.cfg, addr)
            proto = PROTO_FW_EVAL_PRODUCT
        else:
            live = list(range(1, self.cfg.m + 1))
            program = gateway_sum_program(self.cfg, addr, live)
            proto = PROTO_FW_EVAL_SUM
        try:
            responses, _ = self.node.run_program(program, session, proto)
        except PartyTimeout as exc:
            raise ServerTimeout(str(exc)) from exc
        if self.mode == "product":
            return decide_product(self.cfg, responses)
        return decide_sum(self.cfg, responses)

    def _answer(self, line: str, _reader: TextIO) -> str:
        parts = line.split()
        try:
            if len(parts) != 2 or parts[0] != "CHECK":
                raise ValueError("expected CHECK <dotted-quad>")
            verdict = self.check(parts[1])
        except NoMajority:
            # The reveals disagree with no majority: more servers cheat
            # than the analysis can place.
            verdict = EvalVerdict("alert")
        except (ValueError, ServerTimeout) as exc:
            return f"ERROR {exc}\n"
        if verdict.decision == "block":
            return "BLOCK\n"
        if verdict.decision == "forward":
            return "FORWARD\n"
        return f"ALERT {','.join(str(s) for s in sorted(verdict.suspects))}\n"


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
