#!/usr/bin/env python3
"""Loopback walkthrough of the distributed oblivious firewall.

Initializes a shared blacklist filter, starts three share servers and a
gateway over TCP on 127.0.0.1, then exercises CHECK and an authenticated
UPDATE through the public line protocols.
"""
import socket

from obfw.bloom import derive_params
from obfw.firewall import FirewallConfig, fw_init, fw_update_pairs, parse_ipv4
from obfw.net import build_mesh
from obfw.rng import RandomSource
from obfw.service import FirewallServerDaemon, GatewayDaemon, admin_push_update

PSK = b"demo-pre-shared-key"


def check(port, addr):
    with socket.create_connection(("127.0.0.1", port)) as c:
        fh = c.makefile("rw", newline="\n")
        fh.write(f"CHECK {addr}\n")
        fh.flush()
        return fh.readline().strip()


def main():
    blacklist = [f"203.0.113.{i}" for i in range(1, 40)]
    cfg = FirewallConfig(scheme="additive", m=3, N=11,
                         bloom=derive_params(len(blacklist), 0.01))
    print(f"filter: beta={cfg.bloom.beta} kappa={cfg.bloom.kappa} "
          f"scheme={cfg.scheme} m={cfg.m}")
    flt, stores = fw_init(blacklist, cfg, RandomSource(b"demo" + bytes(28)))

    nodes = build_mesh([0, 1, 2, 3])
    daemons = [FirewallServerDaemon(stores[i - 1], nodes[i], psk=PSK)
               for i in (1, 2, 3)]
    for d in daemons:
        d.start()
    gw = GatewayDaemon(cfg, nodes[0], mode="sum")
    gw.start()
    print(f"servers on eval ports {[nodes[i].port for i in (1, 2, 3)]}, "
          f"gateway on {gw.port}")

    for addr in ("203.0.113.7", "198.51.100.9", "8.8.8.8"):
        print(f"CHECK {addr:<14} -> {check(gw.port, addr)}")

    new_addr = "198.51.100.9"
    print(f"admin UPDATE {new_addr} ...")
    per_server = fw_update_pairs(flt, cfg, parse_ipv4(new_addr),
                                 RandomSource(b"update" + bytes(26)))
    for i, d in enumerate(daemons, start=1):
        admin_push_update("127.0.0.1", d.admin_port, PSK, new_addr,
                          [v for _, v in per_server[i - 1]])
    print(f"CHECK {new_addr:<14} -> {check(gw.port, new_addr)}")

    gw.stop()
    for d in daemons:
        d.stop()


if __name__ == "__main__":
    main()
