"""What an obfw process loads: no OpenSSL until an UPDATE is authenticated.

Each check runs in a child interpreter, because pytest and its plugins
import hashlib themselves.
"""
import importlib.util
import json
import subprocess
import sys

import pytest

from obfw.firewall import AuthFail, admin_mac, verify_admin_mac

BUILTIN_SHA256 = any(importlib.util.find_spec(name) is not None
                     for name in ("_sha2", "_sha256"))

# The CHECK paths of the simulator and of a loopback product-mode stack,
# then one admin UPDATE; prints the OpenSSL modules loaded after each.
CHECKS_THEN_UPDATE = """
import json, socket, sys
import obfw, obfw.service
from obfw.bloom import derive_params
from obfw.firewall import (FirewallConfig, fw_init, fw_update_pairs,
                           parse_ipv4, run_eval_product, run_eval_sum)
from obfw.net import Endpoint, TcpNode
from obfw.rng import RandomSource
from obfw.service import FirewallServerDaemon, GatewayDaemon, admin_push_update

def openssl():
    return sorted(m for m in ("_hashlib", "_ssl") if m in sys.modules)

def check(port, addr):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as c:
        fh = c.makefile("rw", newline="\\n")
        fh.write(f"CHECK {addr}\\n")
        fh.flush()
        return fh.readline().strip()

out = {}
blacklist = [f"10.7.0.{i}" for i in range(1, 11)]
bloom = derive_params(20, 0.05)
add = FirewallConfig(scheme="additive", m=3, N=101, bloom=bloom)
_, add_stores = fw_init(blacklist, add, RandomSource("footprint additive"))
shamir = FirewallConfig(scheme="shamir", m=5, t=2, N=101, bloom=bloom)
flt, stores = fw_init(blacklist, shamir, RandomSource("footprint shamir"))
out["sim"] = [run_eval_sum(add_stores, parse_ipv4("10.7.0.3"))[0].decision,
              run_eval_product(stores, parse_ipv4("10.7.0.3"))[0].decision]
servers = [FirewallServerDaemon(stores[i - 1],
                                TcpNode(i, Endpoint("127.0.0.1", 0)), psk=b"psk")
           for i in range(1, 6)]
for d in servers:
    d.start()
node = TcpNode(0, None)
for d in servers:
    node.connect(d.node.index, Endpoint("127.0.0.1", d.node.port))
gw = GatewayDaemon(shamir, node, mode="product")
gw.start()
fresh = next(a for a in (f"172.16.0.{i}" for i in range(256))
             if not flt.query(parse_ipv4(a)))
out["checks"] = [check(gw.port, "10.7.0.5"), check(gw.port, fresh)]
out["before_update"] = openssl()
pairs = fw_update_pairs(flt, shamir, parse_ipv4(fresh), RandomSource(7))
out["update"] = [admin_push_update("127.0.0.1", d.admin_port, b"psk", fresh,
                                   [v for _, v in pairs[d.node.index - 1]])
                 for d in servers]
out["after_update"] = check(gw.port, fresh)
gw.stop()
for d in servers:
    d.stop()
print(json.dumps(out))
"""

# The SHA-256 outputs obfw computes: string and short-bytes seeds, and the
# payload digests of a sum CHECK and a comparison.
DIGESTS = """
import json, sys
from obfw.bloom import derive_params
from obfw.compare import run_semi_honest
from obfw.firewall import FirewallConfig, fw_init, parse_ipv4, run_eval_sum
from obfw.rng import RandomSource

cfg = FirewallConfig(scheme="additive", m=3, N=101, bloom=derive_params(20, 0.05))
_, stores = fw_init(["10.7.0.1"], cfg, RandomSource("digests"))
print(json.dumps({
    "str_seed": RandomSource("a string seed").randbelow_many(1000, 8),
    "bytes_seed": RandomSource(b"short").bytes(16).hex(),
    "eval_sum": run_eval_sum(stores, parse_ipv4("10.7.0.1"))[1]
                .transcript.payload_digest(),
    "alg4": run_semi_honest(3, 5, 8, seed=b"digests").transcript.payload_digest(),
}))
"""

# Before obfw is imported: the builtin SHA-256 modules count as missing.
BLOCK_BUILTIN = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
import obfw.rng
assert obfw.rng._sha256 is hashlib.sha256
"""


def run_child(code: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not BUILTIN_SHA256, reason="no builtin SHA-256 module")
def test_checks_map_no_openssl_until_an_update():
    out = run_child(CHECKS_THEN_UPDATE)
    assert out["sim"] == ["block", "block"]
    assert out["checks"] == ["BLOCK", "FORWARD"]
    assert out["before_update"] == []
    assert out["update"] == ["OK"] * 5
    assert out["after_update"] == "BLOCK"


def test_hashlib_fallback_gives_the_same_digests():
    builtin = run_child(DIGESTS)
    fallback = run_child(BLOCK_BUILTIN + DIGESTS)
    assert fallback == builtin


def test_admin_mac_is_rfc4231_hmac_sha256():
    line = "what do ya want for nothing?"
    mac = admin_mac(b"Jefe", line)
    assert mac == ("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b9"
                   "64ec3843")       # RFC 4231, test case 2
    verify_admin_mac(b"Jefe", line, mac)
    for i in (0, 63):
        flipped = mac[:i] + ("0" if mac[i] != "0" else "1") + mac[i + 1:]
        with pytest.raises(AuthFail):
            verify_admin_mac(b"Jefe", line, flipped)
