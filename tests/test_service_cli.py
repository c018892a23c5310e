"""Daemons (gateway CHECK, admin UPDATE) and the CLI surface."""
import contextlib
import gc
import json
import socket
import subprocess
import sys
import threading
import time
import weakref

import pytest

from obfw.bloom import derive_params
from obfw.cli import EXIT_OK, EXIT_PROTOCOL, EXIT_TRANSPORT, EXIT_USAGE, main
from obfw.firewall import (
    AuthFail,
    BadConfig,
    FirewallConfig,
    ServerTamper,
    ShareStore,
    fw_init,
    fw_update_pairs,
    parse_ipv4,
    run_eval_sum,
    server_product_program,
    server_sum_program,
)
from obfw.net import (
    PROTO_FW_EVAL_PRODUCT,
    PROTO_FW_EVAL_SUM,
    PROTO_FW_UPDATE,
    PROTO_MAJORITY_VOTE,
    Endpoint,
    TcpNode,
    build_mesh,
    group_addr32,
    group_zp,
    recv,
    send,
)
from obfw.rng import RandomSource
from obfw.service import FirewallServerDaemon, GatewayDaemon, admin_push_update


@pytest.fixture
def stack():
    """Three additive share servers plus a sum-mode gateway on loopback."""
    bp = derive_params(60, 0.01)
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
        cfg, _, _, _, gw = stack
        hits = sum(check_line(gw.port, f"172.16.{i // 256}.{i % 256}") == "BLOCK"
                   for i in range(80))
        assert hits / 80 <= 3 * cfg.bloom.target_fp + 0.05

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

    def test_server_runs_only_check_protocols(self, stack):
        _, _, _, daemons, _ = stack
        for proto in (PROTO_FW_EVAL_SUM, PROTO_FW_EVAL_PRODUCT):
            program = daemons[0]._program_for(1, proto)
            assert program is not None
            program.close()
        for proto in (PROTO_MAJORITY_VOTE, PROTO_FW_UPDATE, 99):
            assert daemons[0]._program_for(1, proto) is None

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
    """build_mesh wiring of m share servers plus a gateway, as `obfw` runs them."""
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

    @pytest.mark.parametrize("mesh_stack", [("additive", 3, 0, "sum")],
                             indirect=True, ids=["sum"])
    def test_thread_count_steady(self, mesh_stack):
        flt, _, gw = mesh_stack
        with socket.create_connection(("127.0.0.1", gw.port), timeout=15) as c:
            rfh, wfh = c.makefile("r", newline="\n"), c.makefile("w", newline="\n")

            def check(addr):
                wfh.write(f"CHECK {addr}\n")
                wfh.flush()
                return rfh.readline().strip()

            assert check("10.8.0.1") == "BLOCK"
            before = threading.active_count()
            for i in range(50):
                want = "BLOCK" if flt.query(parse_ipv4(f"10.8.0.{i}")) else "FORWARD"
                assert check(f"10.8.0.{i}") == want
            deadline = time.monotonic() + 2.0
            while threading.active_count() > before and time.monotonic() < deadline:
                time.sleep(0.01)
            assert threading.active_count() <= before

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
        different offsets to their result share."""
        cfg = FirewallConfig(scheme="shamir", m=5, t=2, N=101,
                             bloom=derive_params(20, 0.05))
        _, stores = fw_init(["10.8.0.1"], cfg,
                            RandomSource(b"no-majority" + bytes(21)))
        nodes = build_mesh(list(range(6)))
        tampers = {1: ServerTamper(1), 2: ServerTamper(2)}
        for i in range(1, 6):
            nodes[i].serve(
                lambda sid, proto, i=i: server_product_program(
                    stores[i - 1], RandomSource(i).child(f"s/{sid}"),
                    tampers.get(i)))
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
                lambda sid, proto, i=i: server_sum_program(
                    stores[i - 1], ServerTamper(1) if i == 3 else None))
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

    @pytest.mark.parametrize("argv,cfg", [
        (["fw-init", "b.txt"], {"N": 11}),
        (["serve"], {"m": 3, "N": 11, "psk": "0011"}),
    ], ids=["fw-init-without-m", "serve-without-party-index"])
    def test_missing_required_key_exit2(self, tmp_path, capsys, argv, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {**cfg, "store_prefix": str(tmp_path / "fw")}))
        assert main(["--config", str(cfg_path), *argv]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: config has no")
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
