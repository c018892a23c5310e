"""Firewall daemons: share-store servers, the gateway line protocol, and
the authenticated admin update channel.

Wire surfaces:
  * gateway public port  -- "CHECK <dotted-quad>\n" ->
        "BLOCK\n" | "FORWARD\n" | "ALERT <suspects>\n"
  * server admin port    -- "UPDATE <dotted-quad> <v1,v2,...>\n" then
        "HMAC <hex over the UPDATE line>\n" -> "OK\n" | "AUTHFAIL\n"
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
from dataclasses import dataclass

from .firewall import (
    EvalVerdict,
    FirewallConfig,
    AuthFail,
    NoMajority,
    ServerTimeout,
    ShareStore,
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


@dataclass
class ServerEndpoints:
    index: int
    host: str
    eval_port: int
    admin_port: int


class FirewallServerDaemon:
    """Hosts one share store: envelope sessions plus the admin text port."""

    def __init__(self, store: ShareStore, node: TcpNode, psk: bytes,
                 admin_listen: Endpoint = Endpoint("127.0.0.1", 0),
                 seed: bytes | int = 0):
        self.store = store
        self.node = node
        self.psk = psk
        self.rng = RandomSource(seed)
        self._stop = threading.Event()
        self._admin_srv = socket.create_server((admin_listen.host, admin_listen.port))
        self._admin_srv.settimeout(0.2)
        self.admin_port = self._admin_srv.getsockname()[1]
        self._admin_thread = threading.Thread(target=self._admin_loop, daemon=True)

    def start(self) -> None:
        self.node.serve(self._program_for)
        self._admin_thread.start()

    def stop(self) -> None:
        self._stop.set()
        try:
            self._admin_srv.shutdown(socket.SHUT_RDWR)  # wakes accept() now
        except OSError:
            pass
        self._admin_srv.close()
        self.node.close()
        if self._admin_thread.is_alive():
            self._admin_thread.join(1.0)

    # -- envelope sessions -------------------------------------------------
    def _program_for(self, session_id: int, protocol_id: int):
        if protocol_id == PROTO_FW_EVAL_SUM:
            return server_sum_program(self.store)
        if protocol_id == PROTO_FW_EVAL_PRODUCT:
            return server_product_program(
                self.store, self.rng.child(f"s/{session_id}"))
        return None

    # -- admin text protocol -------------------------------------------------
    def _admin_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._admin_srv.accept()
            except (socket.timeout, OSError):
                continue
            threading.Thread(target=self._admin_conn, args=(conn,),
                             daemon=True).start()

    def _admin_conn(self, conn: socket.socket) -> None:
        # Separate reader and writer: a write through a shared "rw" text file
        # discards the reader's buffered input, which holds pipelined lines.
        with conn, conn.makefile("r", newline="\n") as rfh, \
                conn.makefile("w", newline="\n") as fh:
            while not self._stop.is_set():
                line = rfh.readline()
                if not line:
                    return
                mac_line = rfh.readline()
                try:
                    if not mac_line.startswith("HMAC "):
                        raise AuthFail("missing HMAC line")
                    verify_admin_mac(self.psk, line.rstrip("\n"), mac_line[5:])
                    parts = line.split()
                    if len(parts) != 3 or parts[0] != "UPDATE":
                        raise AuthFail("malformed admin command")
                    addr = parse_ipv4(parts[1])
                    values = [int(v) % self.store.config.N
                              for v in parts[2].split(",")]
                    indices = self.store.hash_indices(addr)
                    pairs = list(zip(sorted(set(indices)), values))
                    if len(pairs) != len(values):
                        raise AuthFail("value count does not match index count")
                    self.store.apply_update(pairs)
                    fh.write("OK\n")
                except (AuthFail, ValueError):
                    # A bad MAC, or a MAC'd line with a bad address or a
                    # value that is no integer: nothing was applied.
                    fh.write("AUTHFAIL\n")
                fh.flush()


class GatewayDaemon:
    """Public CHECK endpoint; evaluates each address against the servers."""

    def __init__(self, cfg: FirewallConfig, node: TcpNode,
                 listen: Endpoint = Endpoint("127.0.0.1", 0),
                 mode: str = "sum"):
        if mode == "product" and cfg.scheme != "shamir":
            raise ValueError("product evaluation needs Shamir share stores")
        self.cfg = cfg
        self.node = node
        self.mode = mode
        # Session ids start at a random 64-bit epoch, so a restarted gateway
        # does not reuse the ids that the servers remember as finished.
        self._session_counter = int.from_bytes(os.urandom(8), "little")
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._srv = socket.create_server((listen.host, listen.port))
        self._srv.settimeout(0.2)
        self.port = self._srv.getsockname()[1]
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._srv.close()
        self.node.close()

    def check(self, addr_text: str) -> EvalVerdict:
        addr = parse_ipv4(addr_text)
        with self._lock:
            self._session_counter = (self._session_counter + 1) % 2 ** 64
            session = self._session_counter
        self.node.mark_session(session)
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

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._srv.accept()
            except (socket.timeout, OSError):
                continue
            threading.Thread(target=self._conn, args=(conn,), daemon=True).start()

    def _conn(self, conn: socket.socket) -> None:
        # Separate reader and writer, as in _admin_conn.
        with conn, conn.makefile("r", newline="\n") as rfh, \
                conn.makefile("w", newline="\n") as fh:
            while not self._stop.is_set():
                line = rfh.readline()
                if not line:
                    return
                parts = line.split()
                try:
                    if len(parts) != 2 or parts[0] != "CHECK":
                        raise ValueError("expected CHECK <dotted-quad>")
                    verdict = self.check(parts[1])
                except NoMajority:
                    # The reveals disagree with no majority: more servers
                    # cheat than the analysis can place.
                    verdict = EvalVerdict("alert")
                except (ValueError, ServerTimeout) as exc:
                    fh.write(f"ERROR {exc}\n")
                    fh.flush()
                    continue
                if verdict.decision == "block":
                    fh.write("BLOCK\n")
                elif verdict.decision == "forward":
                    fh.write("FORWARD\n")
                else:
                    suspects = ",".join(str(s) for s in sorted(verdict.suspects))
                    fh.write(f"ALERT {suspects}\n")
                fh.flush()


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
