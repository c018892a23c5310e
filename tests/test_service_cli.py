"""Daemons (gateway CHECK, admin UPDATE) and the CLI surface."""
import contextlib
import gc
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref

import pytest

from obfw.bloom import BloomFilter, derive_params
from obfw.cli import (EXIT_OK, EXIT_PROTOCOL, EXIT_TRANSPORT, EXIT_USAGE,
                      _node, main)
from obfw.firewall import (
    GATEWAY,
    REFUSAL_STEP,
    AuthFail,
    BadConfig,
    FirewallConfig,
    ServerTamper,
    ShareStore,
    fw_init,
    fw_update_pairs,
    parse_ipv4,
    run_eval_sum,
    server_sum_program,
    server_zero_test_program,
)
from obfw.net import (
    PROTO_FW_EVAL_PRODUCT,
    PROTO_FW_EVAL_SUM,
    PROTO_FW_UPDATE,
    PROTO_FW_ZERO_TEST,
    PROTO_MAJORITY_VOTE,
    Endpoint,
    Recv,
    Send,
    TcpNode,
    build_mesh,
    group_addr32,
    group_zp,
    recv,
    rewrite_sends,
    send,
)
from obfw.rng import RandomSource
from obfw.service import FirewallServerDaemon, GatewayDaemon, admin_push_update


STACK_FP = 0.01    # the stack filter's false-positive target


@pytest.fixture
def stack():
    """Three additive share servers plus a sum-mode gateway on loopback."""
    bp = derive_params(60, STACK_FP)
    cfg = FirewallConfig(scheme="additive", m=3, N=11, bloom=bp)
    rng = RandomSource(b"stack" + bytes(27))
    blacklist = [f"10.0.0.{i}" for i in range(1, 31)]
    flt, stores = fw_init(blacklist, cfg, rng)
    nodes = build_mesh([0, 1, 2, 3])
    daemons = [FirewallServerDaemon(stores[i - 1], nodes[i], psk=b"pskpsk",
                                    seed=i) for i in (1, 2, 3)]
    for d in daemons:
        d.start()
    gw = GatewayDaemon(cfg, nodes[0], mode="sum")
    gw.start()
    yield cfg, flt, stores, daemons, gw
    gw.stop()
    for d in daemons:
        d.stop()


def keyless_copy(store):
    """`store` without its PRSS keys, as a server that lost its key file."""
    return ShareStore(config=store.config, party_index=store.party_index,
                      instance_keys=store.instance_keys, values=store.values,
                      family=store.family)


def check_line(port, addr):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as c:
        fh = c.makefile("rw", newline="\n")
        fh.write(f"CHECK {addr}\n")
        fh.flush()
        return fh.readline().strip()


class TestDaemons:
    def test_blacklisted_blocks(self, stack):
        _, _, _, _, gw = stack
        assert check_line(gw.port, "10.0.0.7") == "BLOCK"

    def test_fresh_addresses_mostly_forward(self, stack):
        _, _, _, _, gw = stack
        hits = sum(check_line(gw.port, f"172.16.{i // 256}.{i % 256}") == "BLOCK"
                   for i in range(80))
        assert hits / 80 <= 3 * STACK_FP + 0.05

    def test_update_then_block(self, stack):
        cfg, flt, _, daemons, gw = stack
        addr = "44.33.22.11"
        assert check_line(gw.port, addr) == "FORWARD"
        per_server = fw_update_pairs(flt, cfg, parse_ipv4(addr), RandomSource(3))
        for i, d in enumerate(daemons, start=1):
            reply = admin_push_update("127.0.0.1", d.admin_port, b"pskpsk",
                                      addr, [v for _, v in per_server[i - 1]])
            assert reply == "OK"
        assert check_line(gw.port, addr) == "BLOCK"

    def test_bad_psk_rejected(self, stack):
        _, _, _, daemons, _ = stack
        from obfw.firewall import AuthFail
        with pytest.raises(AuthFail):
            admin_push_update("127.0.0.1", daemons[0].admin_port,
                              b"wrong", "1.2.3.4", [1, 2, 3])

    def test_partial_update_is_refused(self, stack):
        _, _, stores, daemons, _ = stack
        from obfw.firewall import admin_mac
        addr = "10.9.9.9"
        assert len(set(stores[0].hash_indices(parse_ipv4(addr)))) > 2
        before = list(stores[0].values)
        line = f"UPDATE {addr} 5,6"
        with socket.create_connection(("127.0.0.1", daemons[0].admin_port),
                                      timeout=5) as c:
            c.sendall(f"{line}\nHMAC {admin_mac(b'pskpsk', line)}\n".encode())
            assert c.makefile("r").readline() == "AUTHFAIL\n"
        assert list(stores[0].values) == before

    def test_server_runs_only_check_protocols(self, stack):
        _, _, _, daemons, _ = stack
        program = daemons[0]._program_for(1, PROTO_FW_EVAL_SUM)
        assert program is not None
        program.close()
        # The zero test needs PRSS keys, which an additive store never
        # holds; the paper's product and the vote run in the simulator only.
        for proto in (PROTO_FW_ZERO_TEST, PROTO_FW_EVAL_PRODUCT,
                      PROTO_MAJORITY_VOTE, PROTO_FW_UPDATE, 99):
            assert daemons[0]._program_for(1, proto) is None

    def test_zero_test_needs_the_prss_keys(self):
        # A server whose store lacks its PRSS keys refuses a zero test: it
        # takes the address and answers at a step that no CHECK receives
        # at, where its program would fail on the first key it looked up.
        cfg = FirewallConfig(scheme="shamir", m=5, t=2, N=101,
                             bloom=derive_params(20, 0.05))
        _, stores = fw_init(["10.9.0.1"], cfg, RandomSource(b"keys" + bytes(28)))
        daemons = [FirewallServerDaemon(s, TcpNode(2, Endpoint("127.0.0.1", 0)),
                                        psk=b"psk")
                   for s in (stores[1], keyless_copy(stores[1]))]
        try:
            program = daemons[0]._program_for(1, PROTO_FW_ZERO_TEST)
            assert program is not None
            program.close()
            refusal = daemons[1]._program_for(1, PROTO_FW_ZERO_TEST)
            assert isinstance(next(refusal), Recv)
            answer = refusal.send([[0x0A090001]])
            assert isinstance(answer, Send)
            assert (answer.to, answer.step) == (GATEWAY, REFUSAL_STEP)
            refusal.close()
        finally:
            for d in daemons:
                d.stop()

    def test_keyless_server_fails_the_check_at_once(self):
        # One server of a 5/2 product-mode stack has lost its key file: each
        # CHECK ends in an ERROR naming it, well before the gateway's 10 s
        # party timeout.
        cfg = FirewallConfig(scheme="shamir", m=5, t=2, N=101,
                             bloom=derive_params(20, 0.05))
        _, stores = fw_init(["10.9.0.1"], cfg, RandomSource(b"keys" + bytes(28)))
        stores[2] = keyless_copy(stores[2])
        nodes = build_mesh(list(range(cfg.m + 1)))
        daemons = [FirewallServerDaemon(stores[i - 1], nodes[i], psk=b"psk")
                   for i in range(1, cfg.m + 1)]
        gw = GatewayDaemon(cfg, nodes[0], mode="product")
        for d in [*daemons, gw]:
            d.start()
        try:
            for addr in ("10.9.0.1", "10.9.0.2"):
                t0 = time.monotonic()
                line = check_line(gw.port, addr)
                assert time.monotonic() - t0 < 1.0
                assert line.startswith("ERROR") and "party 3" in line, line
        finally:
            for d in [gw, *daemons]:
                d.stop()

    def test_malformed_check_rejected(self, stack):
        _, _, _, _, gw = stack
        with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as c:
            fh = c.makefile("rw", newline="\n")
            fh.write("CHECK not-an-address\n")
            fh.flush()
            assert fh.readline().startswith("ERROR")


class TestProductModeDaemons:
    def test_shamir_product_gateway(self):
        bp = derive_params(20, 0.02)
        cfg = FirewallConfig(scheme="shamir", m=7, t=3, N=11, bloom=bp)
        rng = RandomSource(b"product-stack" + bytes(19))
        blacklist = [f"10.5.0.{i}" for i in range(1, 21)]
        flt, stores = fw_init(blacklist, cfg, rng)
        nodes = build_mesh(list(range(8)))
        daemons = []
        gw = None
        try:
            daemons = [FirewallServerDaemon(stores[i - 1], nodes[i],
                                            psk=b"psk", seed=i)
                       for i in range(1, 8)]
            for d in daemons:
                d.start()
            gw = GatewayDaemon(cfg, nodes[0], mode="product")
            gw.start()
            assert check_line(gw.port, "10.5.0.3") == "BLOCK"
            reply = check_line(gw.port, "172.31.0.9")
            assert reply in ("FORWARD", "BLOCK")  # fp possible, never an error
        finally:
            if gw is not None:
                gw.stop()
            for d in daemons:
                d.stop()

    def test_product_mode_requires_shamir(self):
        bp = derive_params(5, 0.1)
        cfg = FirewallConfig(scheme="additive", m=3, N=11, bloom=bp)
        node = TcpNode(0, Endpoint("127.0.0.1", 0))
        try:
            with pytest.raises(ValueError):
                GatewayDaemon(cfg, node, mode="product")
        finally:
            node.close()

    @pytest.mark.parametrize("mode", ["prodcut", "", "Sum"])
    def test_unknown_mode_rejected(self, mode):
        # Any mode but sum ran sum CHECKs, so a typo of "product" silently
        # dropped the cheater-tolerant product evaluation.
        cfg = FirewallConfig(scheme="shamir", m=5, t=2, N=101,
                             bloom=derive_params(5, 0.1))
        node = TcpNode(0, Endpoint("127.0.0.1", 0))
        try:
            with pytest.raises(BadConfig, match="mode"):
                GatewayDaemon(cfg, node, mode=mode)
        finally:
            node.close()


@pytest.fixture
def mesh_stack(request):
    """m share servers plus a gateway, wired with build_mesh as perfbench
    wires them: unlike `obfw serve` and `obfw gateway`, every node listens
    and the servers dial each other."""
    scheme, m, t, mode = request.param
    cfg = FirewallConfig(scheme=scheme, m=m, t=t, N=101,
                         bloom=derive_params(20, 0.05))
    flt, stores = fw_init([f"10.8.0.{i}" for i in range(20)], cfg,
                          RandomSource(b"mesh-stack" + bytes(22)))
    nodes = build_mesh(list(range(m + 1)))
    daemons = [FirewallServerDaemon(stores[i - 1], nodes[i], psk=b"psk", seed=i)
               for i in range(1, m + 1)]
    for d in daemons:
        d.start()
    gw = GatewayDaemon(cfg, nodes[0], mode=mode)
    gw.start()
    yield flt, nodes, gw
    gw.stop()
    for d in daemons:
        d.stop()


class TestSessionQueues:
    @pytest.mark.parametrize("mesh_stack", [("additive", 3, 0, "sum"),
                                            ("shamir", 5, 2, "product")],
                             indirect=True, ids=["sum", "product"])
    def test_finished_sessions_leave_no_queues(self, mesh_stack):
        flt, nodes, gw = mesh_stack
        addrs = [f"10.8.0.{i}" for i in range(4)] + ["172.20.0.1", "172.20.0.2"]
        for addr in addrs:
            want = "BLOCK" if flt.query(parse_ipv4(addr)) else "FORWARD"
            assert check_line(gw.port, addr) == want
        # Servers finish their side of a session just after the gateway's
        # reply, so give their threads a moment.
        deadline = time.monotonic() + 2.0
        while (any(node._queues for node in nodes.values())
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert {i: sorted(node._queues) for i, node in nodes.items()
                if node._queues} == {}


@pytest.fixture
def star_stack(request):
    """m share servers and a gateway wired as `obfw serve` and `obfw gateway`
    wire them: each server listens and dials no one, and the gateway's node
    dials every server and listens nowhere."""
    scheme, m, t, mode = request.param
    cfg = FirewallConfig(scheme=scheme, m=m, t=t, N=101,
                         bloom=derive_params(20, 0.05))
    flt, stores = fw_init([f"10.8.0.{i}" for i in range(20)], cfg,
                          RandomSource(b"star-stack" + bytes(22)))
    servers = [FirewallServerDaemon(stores[i - 1],
                                    TcpNode(i, Endpoint("127.0.0.1", 0)),
                                    psk=b"psk") for i in range(1, m + 1)]
    for d in servers:
        d.start()
    gw = GatewayDaemon(cfg, _node([{"index": d.node.index, "host": "127.0.0.1",
                                    "port": d.node.port} for d in servers]),
                       mode=mode)
    gw.start()
    yield flt, servers, gw
    gw.stop()
    for d in servers:
        d.stop()


def listening_ports():
    """The TCP ports that this process has a listening socket on."""
    ports = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            sock = socket.socket(fileno=os.dup(int(name)))
        except OSError:
            continue    # not a socket, or closed since the listing
        with sock:
            if (sock.type == socket.SOCK_STREAM
                    and sock.family in (socket.AF_INET, socket.AF_INET6)
                    and sock.getsockopt(socket.SOL_SOCKET,
                                        socket.SO_ACCEPTCONN)):
                ports.add(sock.getsockname()[1])
    return ports


class TestStar:
    @pytest.mark.parametrize("star_stack", [("additive", 3, 0, "sum"),
                                            ("shamir", 5, 2, "product")],
                             indirect=True, ids=["sum", "product"])
    def test_only_the_gateway_dials(self, star_stack):
        flt, servers, gw = star_stack
        for addr in [f"10.8.0.{i}" for i in range(4)] + ["172.20.0.1",
                                                         "172.20.0.2"]:
            want = "BLOCK" if flt.query(parse_ipv4(addr)) else "FORWARD"
            assert check_line(gw.port, addr) == want
        assert {d.node.index: sorted(d.node._conns) for d in servers} == \
            {d.node.index: [0] for d in servers}

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists this process's sockets in /proc")
    def test_gateway_node_cannot_be_reached(self):
        # Nothing dials the gateway in a star, so its node has no port on
        # which another process could connect and name a server's index.
        cfg = FirewallConfig(scheme="additive", m=3, N=101,
                             bloom=derive_params(20, 0.05))
        _, stores = fw_init(["10.9.0.1"], cfg,
                            RandomSource(b"no-port" + bytes(25)))
        servers = [FirewallServerDaemon(stores[i - 1],
                                        TcpNode(i, Endpoint("127.0.0.1", 0)),
                                        psk=b"psk") for i in (1, 2, 3)]
        for d in servers:
            d.start()
        node = None
        try:
            before = listening_ports()
            node = _node([{"index": d.node.index, "host": "127.0.0.1",
                           "port": d.node.port} for d in servers])
            assert listening_ports() == before
            assert node.port is None
            assert sorted(node._conns) == [1, 2, 3]
        finally:
            if node is not None:
                node.close()
            for d in servers:
                d.stop()


def check_lines(port, addrs):
    """CHECK each address in turn over one connection; the replies."""
    with socket.create_connection(("127.0.0.1", port), timeout=15) as c:
        rfh, wfh = c.makefile("r", newline="\n"), c.makefile("w", newline="\n")
        replies = []
        for addr in addrs:
            wfh.write(f"CHECK {addr}\n")
            wfh.flush()
            replies.append(rfh.readline().strip())
        return replies


class TestServing:
    @pytest.mark.parametrize("mesh_stack", [("shamir", 5, 2, "product")],
                             indirect=True, ids=["product"])
    def test_concurrent_product_clients(self, mesh_stack):
        flt, _, gw = mesh_stack
        addrs = [f"10.8.0.{i}" for i in range(8)] + \
                [f"172.21.0.{i}" for i in range(8)]
        want = {a: "BLOCK" if flt.query(parse_ipv4(a)) else "FORWARD"
                for a in addrs}
        got = {}

        def client(k):
            mine = addrs[k::4]
            got[k] = dict(zip(mine, check_lines(gw.port, mine)))

        threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert {a: r for part in got.values() for a, r in part.items()} == want

    @pytest.mark.parametrize("mesh_stack", [("additive", 3, 0, "sum"),
                                            ("shamir", 5, 2, "product")],
                             indirect=True, ids=["sum", "product"])
    def test_thread_count_steady(self, mesh_stack):
        # A CHECK session of either mode never waits on a peer, so no
        # server starts a thread for one: under concurrent clients the live
        # threads peak at the idle count plus the gateway's thread for each
        # client connection, besides this test's clients and sampler.
        flt, _, gw = mesh_stack
        clients = 4
        addrs = [f"10.8.0.{i}" for i in range(20)] + \
                [f"172.22.0.{i}" for i in range(80)]
        want = {a: "BLOCK" if flt.query(parse_ipv4(a)) else "FORWARD"
                for a in addrs}
        got = {}
        done = threading.Event()
        idle = peak = threading.active_count()

        def sample():
            nonlocal peak
            while not done.is_set():
                peak = max(peak, threading.active_count())
                time.sleep(0.0005)

        def client(k):
            mine = addrs[k::clients]
            got.update(zip(mine, check_lines(gw.port, mine)))

        sampler = threading.Thread(target=sample)
        sampler.start()
        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        done.set()
        sampler.join()
        assert got == want
        assert peak <= idle + 1 + 2 * clients
        deadline = time.monotonic() + 2.0
        while threading.active_count() > idle and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= idle

    def test_gateway_restart(self, stack):
        cfg, _, _, daemons, gw = stack
        assert check_line(gw.port, "10.0.0.7") == "BLOCK"
        gw.stop()
        node = TcpNode(0, Endpoint("127.0.0.1", 0), timeout=2)
        for i, d in enumerate(daemons, start=1):
            node.connect(i, Endpoint("127.0.0.1", d.node.port))
        again = GatewayDaemon(cfg, node, mode="sum")
        again.start()
        try:
            assert check_line(again.port, "10.0.0.7") == "BLOCK"
            assert check_line(again.port, "10.0.0.8") == "BLOCK"
        finally:
            again.stop()

    def test_store_freed_after_stop(self):
        cfg = FirewallConfig(scheme="additive", m=3, N=101,
                             bloom=derive_params(20, 0.05))
        flt, stores = fw_init(["10.9.0.1"], cfg, RandomSource(b"freed" + bytes(27)))
        nodes = build_mesh([0, 1, 2, 3])
        daemons = [FirewallServerDaemon(stores[i - 1], nodes[i], psk=b"psk", seed=i)
                   for i in (1, 2, 3)]
        for d in daemons:
            d.start()
        gw = GatewayDaemon(cfg, nodes[0], mode="sum")
        gw.start()
        try:
            assert check_line(gw.port, "10.9.0.1") == "BLOCK"
        finally:
            gw.stop()
            for d in daemons:
                d.stop()
        ref = weakref.ref(stores[0])
        del stores, daemons, nodes
        gc.collect()
        assert ref() is None


class TestGatewayAnswersEveryLine:
    def test_undecodable_reply_is_an_error(self, stack):
        _, _, _, daemons, gw = stack

        def out_of_range(session_id, protocol_id):
            # Z_11 and Z_16 both travel in 4 bits: the gateway gets 11.
            yield from recv(0, 1, [(group_addr32(), 1)])
            yield from send(0, 2, [(group_zp(16), [11])])

        daemons[0].node.serve(out_of_range)
        assert check_line(gw.port, "10.0.0.7").startswith("ERROR")

    @staticmethod
    @contextlib.contextmanager
    def _no_majority_gateway():
        """A product-mode gateway whose five servers split: two of them add
        different offsets to their zero-test values, two errors in each
        word that no degree-2 polynomial within one error explains."""
        cfg = FirewallConfig(scheme="shamir", m=5, t=2, N=101,
                             bloom=derive_params(20, 0.05))
        _, stores = fw_init(["10.8.0.1"], cfg,
                            RandomSource(b"no-majority" + bytes(21)))
        nodes = build_mesh(list(range(6)))
        tampers = {1: ServerTamper(1), 2: ServerTamper(2)}
        for i in range(1, 6):
            nodes[i].serve(
                lambda sid, proto, i=i: rewrite_sends(
                    server_zero_test_program(stores[i - 1], sid),
                    tampers.get(i, ServerTamper(0))))
        gw = GatewayDaemon(cfg, nodes[0], mode="product")
        gw.start()
        try:
            yield gw
        finally:
            gw.stop()
            for node in nodes.values():
                node.close()

    def test_no_majority_is_an_alert(self):
        with self._no_majority_gateway() as gw:
            assert check_line(gw.port, "10.8.0.1") == "ALERT"

    def test_alert_without_suspects_has_no_trailing_space(self):
        with self._no_majority_gateway() as gw:
            with socket.create_connection(("127.0.0.1", gw.port),
                                          timeout=5) as c:
                c.sendall(b"CHECK 10.8.0.1\n")
                assert c.makefile("rb").readline() == b"ALERT\n"

    def test_shamir_sum_alert_names_the_cheater(self):
        cfg = FirewallConfig(scheme="shamir", m=5, t=2, N=101,
                             bloom=derive_params(20, 0.05))
        _, stores = fw_init(["10.8.0.1"], cfg,
                            RandomSource(b"sum-cheater" + bytes(21)))
        nodes = build_mesh(list(range(6)))
        # Server 3 adds 1 to its sigma share; servers 1 and 2 alone would
        # reconstruct the honest sigma.
        for i in range(1, 6):
            nodes[i].serve(
                lambda sid, proto, i=i: rewrite_sends(
                    server_sum_program(stores[i - 1]),
                    ServerTamper(1 if i == 3 else 0)))
        gw = GatewayDaemon(cfg, nodes[0], mode="sum")
        gw.start()
        try:
            assert check_line(gw.port, "10.8.0.1") == "ALERT 3"
        finally:
            gw.stop()
            for node in nodes.values():
                node.close()

class TestPipelinedLines:
    def test_three_checks_in_one_write(self, stack):
        _, flt, _, _, gw = stack
        fresh = next(a for a in (f"172.16.0.{i}" for i in range(256))
                     if not flt.query(parse_ipv4(a)))
        with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as c:
            c.sendall(f"CHECK 10.0.0.7\nCHECK {fresh}\nCHECK 10.0.0.9\n"
                      .encode())
            fh = c.makefile("r", newline="\n")
            replies = [fh.readline().strip() for _ in range(3)]
        assert replies == ["BLOCK", "FORWARD", "BLOCK"]

    def test_two_updates_in_one_write(self, stack):
        cfg, flt, _, daemons, gw = stack
        from obfw.firewall import admin_mac
        lines = []
        for k, addr in enumerate(("44.33.22.11", "44.33.22.12")):
            per_server = fw_update_pairs(flt, cfg, parse_ipv4(addr),
                                         RandomSource(k))
            update = (f"UPDATE {addr} "
                      + ",".join(str(v) for _, v in per_server[0]))
            lines += [update, "HMAC " + admin_mac(b"pskpsk", update)]
        with socket.create_connection(("127.0.0.1", daemons[0].admin_port),
                                      timeout=5) as c:
            c.sendall(("\n".join(lines) + "\n").encode())
            fh = c.makefile("r", newline="\n")
            replies = [fh.readline().strip() for _ in range(2)]
        assert replies == ["OK", "OK"]

    def test_malformed_authenticated_update_keeps_connection(self, stack):
        cfg, flt, stores, daemons, _ = stack
        from obfw.firewall import admin_mac
        addr = "44.33.22.11"
        pairs = fw_update_pairs(flt, cfg, parse_ipv4(addr), RandomSource(1))
        good = f"UPDATE {addr} " + ",".join(str(v) for _, v in pairs[0])
        before = list(stores[0].values)
        with socket.create_connection(("127.0.0.1", daemons[0].admin_port),
                                      timeout=5) as c:
            fh = c.makefile("r", newline="\n")

            def push(line):
                c.sendall(f"{line}\nHMAC {admin_mac(b'pskpsk', line)}\n"
                          .encode())
                return fh.readline().strip()

            assert push(f"UPDATE {addr} 1,x,3") == "AUTHFAIL"
            assert push("UPDATE 10.0.0.999 1,2,3") == "AUTHFAIL"
            assert list(stores[0].values) == before
            assert push(good) == "OK"
        assert list(stores[0].values) != before


def reply_until_eof(conn) -> bytes:
    """Everything the peer sends before it closes the connection."""
    data = b""
    try:
        while chunk := conn.recv(4096):
            data += chunk
    except ConnectionResetError:
        pass    # it closed with our unread bytes still queued
    return data


class TestLineLimit:
    """A line without end must not grow a daemon: past the line limit the
    port answers one error and closes."""

    FLOOD = b"A" * (1 << 16)      # far past the limit, and no newline

    def test_gateway_refuses_endless_line(self, stack):
        _, _, _, _, gw = stack
        with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as c:
            c.sendall(self.FLOOD)
            assert reply_until_eof(c) == b"ERROR line too long\n"
        assert check_line(gw.port, "10.0.0.7") == "BLOCK"

    def test_admin_refuses_endless_hmac_line(self, stack):
        _, _, stores, daemons, _ = stack
        before = list(stores[0].values)
        with socket.create_connection(("127.0.0.1", daemons[0].admin_port),
                                      timeout=5) as c:
            c.sendall(b"UPDATE 10.9.9.9 1,2,3\nHMAC " + self.FLOOD)
            assert reply_until_eof(c) == b"ERROR line too long\n"
        assert list(stores[0].values) == before

    def test_long_line_within_limit_is_answered(self, stack):
        _, _, _, _, gw = stack
        padded = "CHECK" + " " * 2000 + "10.0.0.7\n"
        with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as c:
            c.sendall(padded.encode() + b"CHECK 10.0.0.7\n")
            fh = c.makefile("r", newline="\n")
            assert [fh.readline(), fh.readline()] == ["BLOCK\n", "BLOCK\n"]


class TestStop:
    def test_stop_closes_client_connections(self):
        before = threading.active_count()
        cfg = FirewallConfig(scheme="additive", m=3, N=101,
                             bloom=derive_params(20, 0.05))
        _, stores = fw_init(["10.9.0.1"], cfg, RandomSource(b"stop" + bytes(28)))
        nodes = build_mesh([0, 1, 2, 3])
        daemons = [FirewallServerDaemon(stores[i - 1], nodes[i], psk=b"psk",
                                        seed=i) for i in (1, 2, 3)]
        for d in daemons:
            d.start()
        gw = GatewayDaemon(cfg, nodes[0], mode="sum")
        gw.start()
        with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as gc_, \
                socket.create_connection(("127.0.0.1", daemons[0].admin_port),
                                         timeout=5) as ac:
            # One request on each, so that both connections are being served.
            gc_.sendall(b"CHECK 10.9.0.1\n")
            assert gc_.makefile("r").readline() == "BLOCK\n"
            ac.sendall(b"UPDATE 10.9.0.1 1\nHMAC 00\n")
            assert ac.makefile("r").readline() == "AUTHFAIL\n"
            gw.stop()
            for d in daemons:
                d.stop()
            for conn in (gc_, ac):
                conn.settimeout(1.0)
                assert conn.recv(1) == b""
        deadline = time.monotonic() + 1.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before


def saved_stores(tmp_path, cfg, blacklist):
    """fw_init's stores, saved and loaded back, so that each has a path."""
    flt, stores = fw_init(blacklist, cfg, RandomSource(b"durable" + bytes(25)))
    paths = [str(tmp_path / f"s{s.party_index}.share") for s in stores]
    for store, path in zip(stores, paths):
        store.save(path)
    return flt, [ShareStore.load(path) for path in paths], paths


class TestDurableUpdates:
    def test_update_survives_restart(self, tmp_path):
        cfg = FirewallConfig(scheme="additive", m=3, N=2 ** 31 - 1,
                             bloom=derive_params(50, 0.01))
        flt, stores, paths = saved_stores(
            tmp_path, cfg, [f"10.7.0.{i}" for i in range(20)])
        addr = "198.51.100.9"
        assert not flt.query(parse_ipv4(addr))
        per_server = fw_update_pairs(flt, cfg, parse_ipv4(addr), RandomSource(9))
        nodes = build_mesh([1, 2, 3])
        daemons = [FirewallServerDaemon(stores[i - 1], nodes[i], psk=b"psk",
                                        seed=i) for i in (1, 2, 3)]
        for d in daemons:
            d.start()
        try:
            for d, pairs in zip(daemons, per_server):
                assert admin_push_update("127.0.0.1", d.admin_port, b"psk", addr,
                                         [v for _, v in pairs]) == "OK"
        finally:
            for d in daemons:
                d.stop()
        reloaded = [ShareStore.load(path) for path in paths]
        verdict, _ = run_eval_sum(reloaded, parse_ipv4(addr))
        assert verdict.decision == "block"

    def test_failed_write_is_an_error_and_changes_nothing(self, tmp_path):
        cfg = FirewallConfig(scheme="additive", m=3, N=101,
                             bloom=derive_params(20, 0.05))
        flt, stores, _ = saved_stores(tmp_path, cfg, ["10.7.0.1"])
        on_disk = (tmp_path / "s1.share").read_bytes()
        in_memory = stores[0].values.tobytes()
        stores[0].path = str(tmp_path / "gone" / "s1.share")
        addr = "198.51.100.9"
        pairs = fw_update_pairs(flt, cfg, parse_ipv4(addr), RandomSource(9))[0]
        daemon = FirewallServerDaemon(stores[0], TcpNode(1, Endpoint("127.0.0.1", 0)),
                                      psk=b"psk")
        daemon.start()
        try:
            with pytest.raises(AuthFail, match="replied .ERROR "):
                admin_push_update("127.0.0.1", daemon.admin_port, b"psk", addr,
                                  [v for _, v in pairs])
        finally:
            daemon.stop()
        assert stores[0].values.tobytes() == in_memory
        assert (tmp_path / "s1.share").read_bytes() == on_disk
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["s1.share", "s2.share", "s3.share"]


SERVER_WITH_PEERS = {"party_index": 1, "m": 3, "N": 11, "psk": "0011",
                     "peers": [{"index": 2, "host": "127.0.0.1",
                                "port": 7002}]}


class TestCli:
    def test_compare_prints_verdict(self, capsys):
        assert main(["compare", "alg4", "15", "13", "--l", "5"]) == EXIT_OK
        assert "a >= b" in capsys.readouterr().out
        assert main(["compare", "alg4", "3", "13", "--l", "5"]) == EXIT_OK
        assert "a < b" in capsys.readouterr().out

    def test_compare_all_variants(self, capsys):
        for variant in ("alg4", "alg5", "alg6", "alg7"):
            assert main(["compare", variant, "9", "4", "--l", "4"]) == EXIT_OK
            assert "a >= b" in capsys.readouterr().out

    def test_bench_markdown_and_csv(self, capsys):
        assert main(["bench", "alg4", "--l", "8,16"]) == EXIT_OK
        md = capsys.readouterr().out
        assert "| alg4 | 8 |" in md and "yes" in md
        assert main(["bench", "alg4", "--l", "8", "--format", "csv"]) == EXIT_OK
        csv = capsys.readouterr().out
        assert csv.splitlines()[0].startswith("variant,l,measured_bits")

    def test_bench_alg7_annotates_tree(self, capsys):
        assert main(["bench", "alg7", "--l", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tree" in out and "informational" in out

    def test_fw_init_and_artifacts(self, tmp_path, capsys):
        cfg = {
            "scheme": "additive", "m": 3, "N": 11,
            "bloom": {"eta": 20, "target_fp": 0.05},
            "store_prefix": str(tmp_path / "fw"),
            "test_mode": True, "seed": "ab" * 32,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        bl = tmp_path / "blacklist.txt"
        bl.write_text("1.2.3.4\n5.6.7.8\n9.9.9.9\n")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_OK
        from obfw.firewall import ShareStore, reveal_position
        from obfw.bloom import BloomFilter
        stores = [ShareStore.load(str(tmp_path / f"fw.server{i}.share"))
                  for i in (1, 2, 3)]
        flt = BloomFilter.load(str(tmp_path / "fw.filter"))
        assert all(reveal_position(stores, i) == flt.bit(i)
                   for i in range(flt.params.beta))

    def test_fw_init_empty_blacklist(self, tmp_path):
        cfg = {"scheme": "additive", "m": 3, "N": 11,
               "bloom": {"eta": 5, "target_fp": 0.1},
               "store_prefix": str(tmp_path / "fw")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        bl = tmp_path / "empty.txt"
        bl.write_text("")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_OK
        from obfw.firewall import ShareStore, reveal_position
        stores = [ShareStore.load(str(tmp_path / f"fw.server{i}.share"))
                  for i in (1, 2, 3)]
        beta = stores[0].config.bloom.beta
        assert all(reveal_position(stores, i) == 0 for i in range(beta))

    def test_fw_init_malformed_line_exit2(self, tmp_path, capsys):
        cfg = {"scheme": "additive", "m": 3, "N": 11,
               "bloom": {"eta": 5, "target_fp": 0.1},
               "store_prefix": str(tmp_path / "fw")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        bl = tmp_path / "bad.txt"
        bl.write_text("1.2.3.4\nnot-an-ip\n")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_USAGE
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("fw", [
        {"scheme": "additive", "m": 3, "N": 4294967311},
        {"scheme": "shamir", "m": 3, "t": 7, "N": 2 ** 31 - 1},
        {"scheme": "shamir", "m": 5, "t": 2, "N": 1000},
    ], ids=["modulus-above-32-bits", "shamir-t-above-m",
            "shamir-composite-modulus"])
    def test_bad_firewall_config_exit2_writes_nothing(self, tmp_path, capsys,
                                                      fw):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            **fw, "bloom": {"eta": 5, "target_fp": 0.1},
            "store_prefix": str(tmp_path / "fw")}))
        bl = tmp_path / "b.txt"
        bl.write_text("8.8.8.8\n")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.txt", "cfg.json"]

    @pytest.mark.parametrize("bloom,missing", [
        ({"beta": 5000}, "kappa"), ({"kappa": 3}, "beta"),
        ({"eta": 5, "target_fp": 0.1, "kappa": 3}, "beta")])
    def test_half_given_filter_size_exit2(self, tmp_path, capsys, bloom,
                                          missing):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "m": 3, "N": 11, "bloom": bloom,
            "store_prefix": str(tmp_path / "fw")}))
        bl = tmp_path / "b.txt"
        bl.write_text("8.8.8.8\n")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert f"no {missing!r}" in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.txt", "cfg.json"]

    def test_config_schema_rejects_unknown_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert main(["--config", str(cfg_path), "fw-init", "x"]) == EXIT_USAGE

    @pytest.mark.parametrize("key,value", [("p", 11), ("n", 3), ("lbits", 8),
                                           ("transcript", "t.json")])
    def test_config_schema_rejects_unread_key(self, tmp_path, capsys, key,
                                              value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "m": 3, "N": 11, "bloom": {"eta": 5, "target_fp": 0.1},
            "store_prefix": str(tmp_path / "fw"), key: value}))
        bl = tmp_path / "b.txt"
        bl.write_text("8.8.8.8\n")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.txt", "cfg.json"]

    def test_seed_requires_test_mode(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"m": 3, "seed": "00" * 32}))
        assert main(["--config", str(cfg_path), "fw-init", "x"]) == EXIT_USAGE

    def test_seed_flag_requires_test_mode(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"m": 3, "N": 11,
                                        "bloom": {"eta": 5, "target_fp": 0.1},
                                        "store_prefix": str(tmp_path / "fw")}))
        bl = tmp_path / "b.txt"
        bl.write_text("8.8.8.8\n")
        assert main(["--config", str(cfg_path), "--seed", "ab" * 32,
                     "fw-init", str(bl)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.txt", "cfg.json"]

    @pytest.mark.parametrize("argv", [["fw-init", "b.txt"],
                                      ["compare", "alg4", "9", "4"]],
                             ids=["fw-init", "compare"])
    def test_non_hex_seed_flag_exit2(self, tmp_path, argv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"m": 3, "test_mode": True,
                                        "store_prefix": str(tmp_path / "fw")}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--seed", "zz", *argv])
        assert exc.value.code == EXIT_USAGE
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_non_hex_psk_exit2_keeps_filter(self, tmp_path, capsys):
        cfg = {"m": 3, "N": 11, "bloom": {"eta": 5, "target_fp": 0.1},
               "store_prefix": str(tmp_path / "fw")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        bl = tmp_path / "b.txt"
        bl.write_text("8.8.8.8\n")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_OK
        filter_bytes = (tmp_path / "fw.filter").read_bytes()
        cfg_path.write_text(json.dumps({**cfg, "psk": "nothex"}))
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "admin-update",
                     "1.2.3.4"]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert (tmp_path / "fw.filter").read_bytes() == filter_bytes

    def test_refused_update_exit1(self, tmp_path, capsys):
        cfg = {"m": 3, "N": 11, "bloom": {"eta": 5, "target_fp": 0.1},
               "store_prefix": str(tmp_path / "fw"), "psk": "0011"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        bl = tmp_path / "b.txt"
        bl.write_text("8.8.8.8\n")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_OK
        filter_bytes = (tmp_path / "fw.filter").read_bytes()
        store = ShareStore.load(str(tmp_path / "fw.server1.share"))
        daemon = FirewallServerDaemon(store, TcpNode(1, Endpoint("127.0.0.1", 0)),
                                      psk=b"other")
        daemon.start()
        try:
            # Server 1 refuses; the push stops there, before servers 2, 3.
            cfg_path.write_text(json.dumps({**cfg, "peers": [
                {"index": i, "host": "127.0.0.1", "port": daemon.admin_port}
                for i in (1, 2, 3)]}))
            capsys.readouterr()
            assert main(["--config", str(cfg_path), "admin-update",
                         "1.2.3.4"]) == EXIT_PROTOCOL
        finally:
            daemon.stop()
        err = capsys.readouterr().err.splitlines()
        assert err == ["update refused: server replied 'AUTHFAIL'"]
        assert (tmp_path / "fw.filter").read_bytes() == filter_bytes

    def test_unreachable_peer_exit3_keeps_filter(self, tmp_path, capsys):
        with socket.socket() as unused:
            unused.bind(("127.0.0.1", 0))
            port = unused.getsockname()[1]
        cfg = {"m": 3, "N": 11, "bloom": {"eta": 5, "target_fp": 0.1},
               "store_prefix": str(tmp_path / "fw"), "psk": "0011"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        bl = tmp_path / "b.txt"
        bl.write_text("8.8.8.8\n")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_OK
        filter_bytes = (tmp_path / "fw.filter").read_bytes()
        cfg_path.write_text(json.dumps({**cfg, "peers": [
            {"index": i, "host": "127.0.0.1", "port": port} for i in (1, 2, 3)]}))
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "admin-update",
                     "1.2.3.4"]) == EXIT_TRANSPORT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("transport failure:")
        assert (tmp_path / "fw.filter").read_bytes() == filter_bytes

    def test_update_without_psk_exit2_keeps_filter(self, tmp_path, capsys):
        # The peers refuse connections: a push would exit 3, not 2.
        with socket.socket() as unused:
            unused.bind(("127.0.0.1", 0))
            port = unused.getsockname()[1]
        cfg = {"m": 3, "N": 11, "bloom": {"eta": 5, "target_fp": 0.1},
               "store_prefix": str(tmp_path / "fw"),
               "peers": [{"index": i, "host": "127.0.0.1", "port": port}
                         for i in (1, 2, 3)]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        bl = tmp_path / "b.txt"
        bl.write_text("8.8.8.8\n")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_OK
        filter_bytes = (tmp_path / "fw.filter").read_bytes()
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "admin-update",
                     "1.2.3.4"]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: config has no 'psk'"]
        assert (tmp_path / "fw.filter").read_bytes() == filter_bytes

    def test_serve_without_psk_exit2(self, tmp_path):
        # A loadable store and free ports: with a psk the server would
        # serve until it is stopped.
        cfg = {"party_index": 1, "m": 3, "N": 11,
               "bloom": {"eta": 5, "target_fp": 0.1},
               "store_prefix": str(tmp_path / "fw"),
               "listen": {"host": "127.0.0.1", "port": 0},
               "admin_listen": {"host": "127.0.0.1", "port": 0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        bl = tmp_path / "b.txt"
        bl.write_text("8.8.8.8\n")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_OK
        proc = subprocess.run(
            [sys.executable, "-m", "obfw.cli", "--config", str(cfg_path),
             "serve"], capture_output=True, text=True, timeout=30)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.splitlines() == ["config error: config has no 'psk'"]

    def test_serve_product_mode_needs_the_key_file(self, tmp_path, capsys):
        # fw-init writes each Shamir store's PRSS keys beside it; a
        # product-mode server refuses a store without them before it
        # opens a port.
        cfg = {"party_index": 2, "scheme": "shamir", "m": 5, "t": 2,
               "N": 101, "eval_mode": "product", "psk": "0011",
               "bloom": {"eta": 5, "target_fp": 0.1},
               "store_prefix": str(tmp_path / "fw")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        bl = tmp_path / "b.txt"
        bl.write_text("8.8.8.8\n")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.glob("*.keys")) == [
            f"fw.server{i}.share.keys" for i in range(1, 6)]
        (tmp_path / "fw.server2.share.keys").unlink()
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "serve"]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: product mode needs the PRSS keys")

    @pytest.mark.parametrize("argv,cfg,why", [
        (["fw-init", "b.txt"], {"N": 11}, "config has no"),
        (["serve"], {"m": 3, "N": 11, "psk": "0011"}, "config has no"),
        # A server dials no one: `peers` would be read by nothing.  The
        # store is absent, so reading it first would be a file error.
        (["serve"], SERVER_WITH_PEERS, "a server reads no 'peers'"),
        (["run", "--role", "party"], SERVER_WITH_PEERS,
         "a server reads no 'peers'"),
    ], ids=["fw-init-without-m", "serve-without-party-index",
            "serve-with-peers", "run-party-with-peers"])
    def test_missing_required_key_exit2(self, tmp_path, capsys, argv, cfg,
                                        why):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {**cfg, "store_prefix": str(tmp_path / "fw")}))
        assert main(["--config", str(cfg_path), *argv]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {why}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("indices", [[], [1, 2], [1, 2, 2, 3], [0, 1, 2]],
                             ids=["no-peers", "server-missing",
                                  "duplicate-index", "index-zero"])
    def test_update_needs_every_server_exit2_keeps_filter(self, tmp_path,
                                                          capsys, indices):
        # Every peer port refuses connections: a push to any of them would
        # exit 3, and with no peers at all the update would "succeed".
        with socket.socket() as unused:
            unused.bind(("127.0.0.1", 0))
            port = unused.getsockname()[1]
        cfg = {"m": 3, "N": 11, "bloom": {"eta": 5, "target_fp": 0.1},
               "store_prefix": str(tmp_path / "fw"), "psk": "0011"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        bl = tmp_path / "b.txt"
        bl.write_text("8.8.8.8\n")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_OK
        filter_bytes = (tmp_path / "fw.filter").read_bytes()
        cfg_path.write_text(json.dumps({**cfg, "peers": [
            {"index": i, "host": "127.0.0.1", "port": port} for i in indices]}))
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "admin-update",
                     "1.2.3.4"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert (tmp_path / "fw.filter").read_bytes() == filter_bytes

    @pytest.mark.parametrize("fw", [
        {"scheme": "additive", "m": 3},
        {"scheme": "shamir", "m": 3, "t": 2, "N": 101},
    ], ids=["additive", "shamir-m-below-2t+1"])
    def test_gateway_product_mode_checked_before_dialing(self, tmp_path, capsys,
                                                         fw):
        with socket.socket() as unused:
            unused.bind(("127.0.0.1", 0))
            port = unused.getsockname()[1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            **fw, "eval_mode": "product", "bloom": {"eta": 5, "target_fp": 0.1},
            "peers": [{"index": 1, "host": "127.0.0.1", "port": port}]}))
        assert main(["--config", str(cfg_path), "gateway"]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_missing_config_uses_env(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"m": 3, "N": 11,
                                        "bloom": {"eta": 5, "target_fp": 0.1},
                                        "store_prefix": str(tmp_path / "fw")}))
        bl = tmp_path / "b.txt"
        bl.write_text("8.8.8.8\n")
        monkeypatch.setenv("OBFW_CONFIG", str(cfg_path))
        assert main(["fw-init", str(bl)]) == EXIT_OK

    def test_transcript_flag(self, tmp_path):
        out = tmp_path / "tr.json"
        assert main(["--transcript", str(out),
                     "compare", "alg4", "5", "3", "--l", "8"]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["total_accounting_bits"] == 441
        assert data["rounds"] == 5

    def test_run_dispatch_rejects_unknown_role(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"m": 3}))
        assert main(["--config", str(cfg_path), "run"]) == EXIT_USAGE

    def test_missing_files_exit2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "party_index": 1, "m": 3, "N": 11,
            "bloom": {"eta": 5, "target_fp": 0.1},
            "store_prefix": str(tmp_path / "absent"), "psk": "0011"}))
        assert main(["--config", str(cfg_path), "serve"]) == EXIT_USAGE
        assert main(["--config", str(cfg_path), "admin-update",
                     "1.2.3.4"]) == EXIT_USAGE
        assert len(capsys.readouterr().err.splitlines()) == 2

    def test_damaged_store_header_exit2(self, tmp_path, capsys):
        cfg = FirewallConfig(scheme="additive", m=3, N=11,
                             bloom=derive_params(5, 0.1))
        _, stores = fw_init([], cfg, RandomSource(1))
        path = tmp_path / "s1.share"
        stores[0].save(str(path))
        blob = bytearray(path.read_bytes())
        blob[18] = 1                    # server count m = 1
        path.write_bytes(bytes(blob))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "party_index": 1, "m": 3, "N": 11,
            "bloom": {"eta": 5, "target_fp": 0.1},
            "store_path": str(path), "psk": "0011"}))
        assert main(["--config", str(cfg_path), "serve"]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("file error:")

    def test_damaged_filter_header_exit2(self, tmp_path, capsys):
        cfg = {"scheme": "additive", "m": 3, "N": 11,
               "bloom": {"eta": 5, "target_fp": 0.1},
               "store_prefix": str(tmp_path / "fw"), "psk": "0011"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        bl = tmp_path / "b.txt"
        bl.write_text("8.8.8.8\n")
        assert main(["--config", str(cfg_path), "fw-init", str(bl)]) == EXIT_OK
        path = tmp_path / "fw.filter"
        blob = bytearray(path.read_bytes())
        blob[13:15] = b"\x00\x00"           # kappa = 0
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "admin-update",
                     "1.2.3.4"]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("file error:")

    def test_console_script_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "obfw.cli", "compare", "alg5", "7", "7",
             "--l", "4"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_OK
        assert "a >= b" in proc.stdout


def free_ports(n):
    """n loopback TCP ports that were free a moment ago."""
    socks = [socket.socket() for _ in range(n)]
    try:
        for sock in socks:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def start_daemon(cfg_path, cmd):
    """`obfw --config cfg_path cmd` as a child that writes to pipes, without
    PYTHONUNBUFFERED: its banner reaches the pipe only if it is flushed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.Popen(
        [sys.executable, "-m", "obfw.cli", "--config", str(cfg_path), cmd],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)


def read_banner(proc, timeout=10.0):
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    assert ready, f"no banner from {proc.args[-1]} within {timeout} s"
    return proc.stdout.readline().strip()


def interrupt(procs):
    """SIGINT each daemon; their exit codes."""
    for proc in procs:
        proc.send_signal(signal.SIGINT)
    return [proc.wait(10) for proc in procs]


@contextlib.contextmanager
def children():
    """A list to put child processes in; each still running is killed."""
    procs = []
    try:
        yield procs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()


class TestCliStack:
    """The daemons as the CLI deploys them: one process each."""

    BLOOM = {"eta": 20, "target_fp": 0.05}

    def test_gateway_banner_reaches_a_pipe(self, tmp_path):
        cfg = FirewallConfig(scheme="additive", m=3, N=101,
                             bloom=derive_params(20, 0.05))
        _, stores = fw_init(["10.9.0.1"], cfg,
                            RandomSource(b"banner" + bytes(26)))
        servers = [FirewallServerDaemon(stores[i - 1],
                                        TcpNode(i, Endpoint("127.0.0.1", 0)),
                                        psk=b"psk") for i in (1, 2, 3)]
        for d in servers:
            d.start()
        cfg_path = tmp_path / "gateway.json"
        cfg_path.write_text(json.dumps({
            "m": 3, "N": 101, "bloom": self.BLOOM,
            "peers": [{"index": d.node.index, "host": "127.0.0.1",
                       "port": d.node.port} for d in servers]}))
        try:
            with children() as procs:
                procs.append(start_daemon(cfg_path, "gateway"))
                assert read_banner(procs[0]).startswith("gateway on port ")
                assert interrupt(procs) == [EXIT_OK]
        finally:
            for d in servers:
                d.stop()

    @pytest.mark.parametrize("indices", [None, [1, 2], [1, 2, 2, 3]],
                             ids=["no-peers", "server-missing",
                                  "duplicate-index"])
    def test_gateway_needs_every_server_exit2(self, tmp_path, indices):
        # A child process, so that a gateway which starts anyway is killed
        # rather than left serving; every peer port refuses connections.
        cfg = {"m": 3, "N": 11, "bloom": self.BLOOM}
        if indices is not None:
            port = free_ports(1)[0]
            cfg["peers"] = [{"index": i, "host": "127.0.0.1", "port": port}
                            for i in indices]
        cfg_path = tmp_path / "gateway.json"
        cfg_path.write_text(json.dumps(cfg))
        with children() as procs:
            procs.append(start_daemon(cfg_path, "gateway"))
            assert procs[0].wait(10) == EXIT_USAGE
            assert procs[0].stdout.read() == ""
            assert procs[0].stderr.read().startswith(
                "config error: gateway needs one peer for each server 1..3")

    def test_serve_refuses_another_servers_store_exit2(self, tmp_path):
        # A child process, so that a server which starts anyway is killed
        # rather than left serving server 1's shares as server 2's.
        base = {"scheme": "additive", "m": 3, "N": 11, "bloom": self.BLOOM,
                "store_prefix": str(tmp_path / "fw")}
        (tmp_path / "b.txt").write_text("10.1.0.1\n")
        init_path = tmp_path / "init.json"
        init_path.write_text(json.dumps(base))
        assert main(["--config", str(init_path), "fw-init",
                     str(tmp_path / "b.txt")]) == EXIT_OK
        store = tmp_path / "fw.server1.share"
        cfg_path = tmp_path / "server2.json"
        cfg_path.write_text(json.dumps({
            **base, "party_index": 2, "psk": "0011", "store_path": str(store),
            "listen": {"host": "127.0.0.1", "port": 0},
            "admin_listen": {"host": "127.0.0.1", "port": 0}}))
        with children() as procs:
            procs.append(start_daemon(cfg_path, "serve"))
            assert procs[0].wait(10) == EXIT_USAGE
            assert procs[0].stdout.read() == ""
            assert procs[0].stderr.read() == (
                f"config error: party_index is 2, but {store} holds the "
                f"shares of server 1\n")

    def test_serve_and_gateway_processes_answer_checks(self, tmp_path):
        base = {"scheme": "additive", "m": 3, "N": 11, "bloom": self.BLOOM,
                "store_prefix": str(tmp_path / "fw")}
        blacklist = [f"10.1.0.{i}" for i in range(1, 11)]
        bl = tmp_path / "b.txt"
        bl.write_text("\n".join(blacklist) + "\n")
        init_path = tmp_path / "init.json"
        init_path.write_text(json.dumps(base))
        assert main(["--config", str(init_path), "fw-init", str(bl)]) == EXIT_OK
        flt = BloomFilter.load(str(tmp_path / "fw.filter"))
        fresh = next(a for a in (f"172.16.0.{i}" for i in range(256))
                     if not flt.query(parse_ipv4(a)))
        ports = free_ports(3)
        paths = []
        for i, port in enumerate(ports, start=1):
            paths.append(tmp_path / f"server{i}.json")
            paths[-1].write_text(json.dumps({
                **base, "party_index": i, "psk": "0011",
                "listen": {"host": "127.0.0.1", "port": port},
                "admin_listen": {"host": "127.0.0.1", "port": 0}}))
        paths.append(tmp_path / "gateway.json")
        paths[-1].write_text(json.dumps({
            **base, "eval_mode": "sum",
            "peers": [{"index": i, "host": "127.0.0.1", "port": port}
                      for i, port in enumerate(ports, start=1)]}))
        with children() as procs:
            procs += [start_daemon(path, "serve") for path in paths[:3]]
            procs.append(start_daemon(paths[3], "gateway"))
            banners = [read_banner(proc) for proc in procs]
            assert [b.split(" on ")[0] for b in banners] == \
                ["server 1", "server 2", "server 3", "gateway"]
            gw_port = int(banners[3].rsplit(" ", 1)[1])
            assert check_line(gw_port, "10.1.0.7") == "BLOCK"
            assert check_line(gw_port, fresh) == "FORWARD"
            assert interrupt(procs) == [EXIT_OK] * 4


class TestConnectionCap:
    """A text port serves at most MAX_CONNECTIONS connections at once, so
    idle connections cannot hold an unbounded number of daemon threads."""

    def test_connection_past_the_cap_is_refused(self):
        from obfw.service import MAX_CONNECTIONS, _LineServer
        server = _LineServer(Endpoint("127.0.0.1", 0), lambda line, _: "OK\n")
        before = threading.active_count()
        server.start()
        conns = []
        try:
            for _ in range(MAX_CONNECTIONS):
                conns.append(socket.create_connection(("127.0.0.1", server.port),
                                                      timeout=5))
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=2) as extra:
                assert reply_until_eof(extra) == b"ERROR busy\n"
            # The accept thread plus one thread per served connection.
            assert threading.active_count() <= before + 1 + MAX_CONNECTIONS
            conns[0].sendall(b"x\n")
            assert conns[0].makefile("r").readline() == "OK\n"
            # A closed connection frees its place.
            conns.pop().close()
            deadline = time.monotonic() + 5
            while True:
                with socket.create_connection(("127.0.0.1", server.port),
                                              timeout=2) as again:
                    again.sendall(b"x\n")
                    reply = again.makefile("r").readline()
                if reply == "OK\n" or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            assert reply == "OK\n"
        finally:
            for c in conns:
                c.close()
            server.stop()


class TestTranscriptFlag:
    def test_bench_writes_one_line_per_run(self, tmp_path, capsys):
        out = tmp_path / "bench.jsonl"
        assert main(["--transcript", str(out), "bench", "alg7", "--l", "8,16",
                     "--format", "csv"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        lines = out.read_text().splitlines()
        assert len(lines) == len(rows) == 2
        for line, row in zip(lines, rows):
            data = json.loads(line)
            assert len(data["payload_digest"]) == 64
            int(data["payload_digest"], 16)
            assert str(data["total_accounting_bits"]) == row.split(",")[2]

    @pytest.mark.parametrize("argv", [
        ["fw-init", "bl.txt"], ["serve"], ["gateway"],
        ["admin-update", "10.0.0.1"], ["run", "--role", "party"],
    ])
    def test_other_subcommands_refuse_it(self, tmp_path, capsys, argv):
        out = tmp_path / "tr.json"
        assert main(["--transcript", str(out)] + argv) == EXIT_USAGE
        assert "--transcript" in capsys.readouterr().err
        assert not out.exists()
