#!/usr/bin/env python3
"""Loopback walkthrough of the distributed oblivious firewall.

Stands up two stacks on 127.0.0.1: three additive share servers behind a
sum-mode gateway, and five Shamir (t = 2) share servers behind a
product-mode gateway, which runs the zero test.  Each stack is wired as
`obfw serve` and `obfw gateway` wire it: every server listens and dials no
one, and the gateway's node dials each server and listens nowhere.  Each
stack answers CHECKs and an authenticated UPDATE through the public line
protocols, and every verdict is asserted against the admin's plaintext
filter.

At N = 11 each zero-test server answers K = 9 values, 18 draws from each
of its 4 PRSS keys' streams, and about one stream in 22 holds too few
in-range draws in its first block and reads on; over the product stack's
CHECKs the chance that no stream reads on is below 10^-16.
"""
import socket

from obfw.bloom import derive_params
from obfw.firewall import FirewallConfig, fw_init, fw_update_pairs, parse_ipv4
from obfw.net import Endpoint, TcpNode
from obfw.rng import RandomSource
from obfw.service import FirewallServerDaemon, GatewayDaemon, admin_push_update

PSK = b"demo-pre-shared-key"
BLACKLIST = [f"203.0.113.{i}" for i in range(1, 40)]
SHOWN = ("203.0.113.7", "198.51.100.9", "8.8.8.8")
# Blacklisted and fresh addresses, checked without printing each verdict.
PROBES = ([f"203.0.113.{i}" for i in range(1, 40, 2)]
          + [f"198.51.100.{i}" for i in range(20, 40)])


def check(port, addr):
    with socket.create_connection(("127.0.0.1", port)) as c:
        fh = c.makefile("rw", newline="\n")
        fh.write(f"CHECK {addr}\n")
        fh.flush()
        return fh.readline().strip()


def walkthrough(cfg, mode, seed):
    """Serve `cfg` in `mode`, CHECK and UPDATE through the line protocols,
    and assert every verdict against the admin's filter."""
    print(f"\n{mode} mode: beta={cfg.bloom.beta} kappa={cfg.bloom.kappa} "
          f"scheme={cfg.scheme} m={cfg.m} t={cfg.t} N={cfg.N}")
    flt, stores = fw_init(BLACKLIST, cfg, RandomSource(seed))
    daemons = [FirewallServerDaemon(stores[i - 1],
                                    TcpNode(i, Endpoint("127.0.0.1", 0)),
                                    psk=PSK)
               for i in range(1, cfg.m + 1)]
    gw_node = TcpNode(0, None)
    for d in daemons:
        gw_node.connect(d.node.index, Endpoint("127.0.0.1", d.node.port))
    gw = GatewayDaemon(cfg, gw_node, mode=mode)
    for d in [*daemons, gw]:
        d.start()

    def checked(addr):
        verdict = check(gw.port, addr)
        expected = "BLOCK" if flt.query(parse_ipv4(addr)) else "FORWARD"
        assert verdict == expected, (mode, addr, verdict, expected)
        return verdict

    try:
        print(f"servers on eval ports {[d.node.port for d in daemons]}, "
              f"gateway on {gw.port}")
        for addr in SHOWN:
            print(f"CHECK {addr:<14} -> {checked(addr)}")
        blocked = sum(checked(addr) == "BLOCK" for addr in PROBES)
        print(f"{len(PROBES)} more CHECKs agree with the filter "
              f"({blocked} BLOCK)")

        new_addr = "198.51.100.9"
        print(f"admin UPDATE {new_addr} ...")
        per_server = fw_update_pairs(flt, cfg, parse_ipv4(new_addr),
                                     RandomSource(b"update" + bytes(26)))
        flt.insert(parse_ipv4(new_addr))    # the admin keeps its filter in step
        for i, d in enumerate(daemons, start=1):
            admin_push_update("127.0.0.1", d.admin_port, PSK, new_addr,
                              [v for _, v in per_server[i - 1]])
        print(f"CHECK {new_addr:<14} -> {checked(new_addr)}")
    finally:
        for d in [gw, *daemons]:
            d.stop()


def main():
    bloom = derive_params(len(BLACKLIST), 0.01)
    walkthrough(FirewallConfig(scheme="additive", m=3, N=11, bloom=bloom),
                "sum", b"demo" + bytes(28))
    walkthrough(FirewallConfig(scheme="shamir", m=5, t=2, N=11, bloom=bloom),
                "product", b"demo-product" + bytes(20))


if __name__ == "__main__":
    main()
