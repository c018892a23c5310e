"""What an obfw process loads: no OpenSSL, for CHECKs or for UPDATEs.

Each footprint check runs in a child interpreter, because pytest and its
plugins import hashlib themselves.  This process may import `hmac` as the
reference for the admin MAC; obfw may not.
"""
import hmac
import importlib.util
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from obfw.firewall import AuthFail, admin_mac, verify_admin_mac
from obfw.rng import hmac_sha256

BUILTIN_SHA256 = any(importlib.util.find_spec(name) is not None
                     for name in ("_sha2", "_sha256"))

# The CHECK paths of the simulator and of a loopback product-mode stack,
# then an admin UPDATE to each server and one more CHECK; prints the
# OpenSSL modules loaded before the UPDATEs and after the last CHECK.
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
out["at_end"] = openssl()
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
def test_no_check_or_update_maps_openssl():
    out = run_child(CHECKS_THEN_UPDATE)
    assert out["sim"] == ["block", "block"]
    assert out["checks"] == ["BLOCK", "FORWARD"]
    assert out["before_update"] == []
    assert out["update"] == ["OK"] * 5
    assert out["after_update"] == "BLOCK"
    assert out["at_end"] == []


def test_hashlib_fallback_gives_the_same_digests():
    builtin = run_child(DIGESTS)
    fallback = run_child(BLOCK_BUILTIN + DIGESTS)
    assert fallback == builtin


# RFC 4231 test cases 1-4, 6 and 7 for HMAC-SHA-256: key, data, MAC.  The
# 131-byte keys of cases 6 and 7 are longer than the block, so hashed first.
RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131, b"This is a test using a larger than block-size key and a "
     b"larger than block-size data. The key needs to be hashed before being "
     b"used by the HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


def test_admin_mac_is_rfc4231_hmac_sha256():
    for key, data, mac in RFC4231:
        assert hmac_sha256(key, data).hex() == mac
        if data.isascii():
            assert admin_mac(key, data.decode()) == mac
    line = "what do ya want for nothing?"
    mac = admin_mac(b"Jefe", line)
    assert mac == RFC4231[1][2]
    verify_admin_mac(b"Jefe", line, mac)
    for i in (0, 63):
        flipped = mac[:i] + ("0" if mac[i] != "0" else "1") + mac[i + 1:]
        with pytest.raises(AuthFail):
            verify_admin_mac(b"Jefe", line, flipped)
    for bad in ("", "éé", mac[:-1] + "é", mac.upper()):
        with pytest.raises(AuthFail):
            verify_admin_mac(b"Jefe", line, bad)


@settings(derandomize=True, max_examples=200)
@given(st.binary(max_size=200), st.text())
@example(bytes(64), "UPDATE 1.2.3.4 1,2,3,4")
@example(b"k" * 65, "UPDATE é ☃ 𝄞")
def test_admin_mac_is_hmacs(key, line):
    # Keys from empty to past three blocks, and lines of any text.
    assert admin_mac(key, line) == hmac.new(key, line.encode(),
                                            "sha256").hexdigest()
