"""Operator entry points.

Subcommands: fw-init, serve, gateway, admin-update, compare, bench, and a
`run --role` dispatcher.  All protocol logic lives in the library modules;
every path here is a thin wrapper.

Exit codes: 0 ok, 1 protocol abort (zero-check/degree violation/alert),
2 usage or config error, 3 transport error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import jsonschema

from .bloom import BloomFilter, BloomParams, derive_params
from .compare import (
    ROUNDS,
    alg4_online,
    alg4_total,
    alg5_online,
    alg5_total,
    alg6_total,
    alg7_constant_round_total,
    run_malicious,
    run_semi_honest,
    run_shared_inputs,
)
from .errors import BadParams, IoError
from .firewall import (
    MAX_MODULUS,
    BadConfig,
    FirewallConfig,
    ShareStore,
    fw_init,
    fw_update_pairs,
    parse_ipv4,
)
from .net import ConnectFail, Endpoint, TcpNode
from .rng import RandomSource
from .service import FirewallServerDaemon, GatewayDaemon, admin_push_update

EXIT_OK = 0
EXIT_PROTOCOL = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "role": {"enum": ["party", "gateway", "admin"]},
        "party_index": {"type": "integer", "minimum": 1},
        "listen": {"type": "object",
                   "properties": {"host": {"type": "string"},
                                  "port": {"type": "integer"}},
                   "required": ["host", "port"]},
        "admin_listen": {"type": "object",
                         "properties": {"host": {"type": "string"},
                                        "port": {"type": "integer"}},
                         "required": ["host", "port"]},
        "peers": {"type": "array", "items": {
            "type": "object",
            "properties": {"index": {"type": "integer"},
                           "host": {"type": "string"},
                           "port": {"type": "integer"}},
            "required": ["index", "host", "port"]}},
        "scheme": {"enum": ["additive", "shamir"]},
        "m": {"type": "integer", "minimum": 2},
        "t": {"type": "integer", "minimum": 0},
        "N": {"type": "integer", "minimum": 2, "maximum": MAX_MODULUS},
        "p": {"type": "integer", "minimum": 2},
        "n": {"type": "integer", "minimum": 2},
        "lbits": {"type": "integer", "minimum": 4},
        "eval_mode": {"enum": ["sum", "product"]},
        "bloom": {"type": "object",
                  "properties": {"eta": {"type": "integer", "minimum": 1},
                                 "target_fp": {"type": "number"},
                                 "beta": {"type": "integer", "minimum": 1},
                                 "kappa": {"type": "integer", "minimum": 1}}},
        "psk": {"type": "string"},
        "store_path": {"type": "string"},
        "filter_path": {"type": "string"},
        "store_prefix": {"type": "string"},
        "test_mode": {"type": "boolean"},
        "seed": {"type": "string"},
        "transcript": {"type": "string"},
    },
    "additionalProperties": False,
}


class ConfigError(Exception):
    pass


def load_config(path: str | None) -> dict:
    path = path or os.environ.get("OBFW_CONFIG")
    if not path:
        raise ConfigError("no config: pass --config or set OBFW_CONFIG")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config invalid: {exc.message}") from exc
    if cfg.get("seed") and not cfg.get("test_mode"):
        raise ConfigError("seed is only allowed with test_mode: true")
    return cfg


def _seed_from(cfg: dict, override: str | None) -> bytes:
    hexseed = override or cfg.get("seed")
    if hexseed:
        return bytes.fromhex(hexseed)
    return os.urandom(32)


def _bloom_params(cfg: dict) -> BloomParams:
    b = cfg.get("bloom", {})
    if "beta" in b and "kappa" in b:
        return BloomParams(beta=b["beta"], kappa=b["kappa"],
                           eta=b.get("eta", 1), target_fp=b.get("target_fp", 0.5))
    return derive_params(b.get("eta", 1000), b.get("target_fp", 0.01))


def _firewall_config(cfg: dict) -> FirewallConfig:
    try:
        return FirewallConfig(scheme=cfg.get("scheme", "additive"),
                              m=cfg["m"], N=cfg.get("N", 11),
                              t=cfg.get("t", 0), bloom=_bloom_params(cfg))
    except (BadConfig, BadParams) as exc:
        raise ConfigError(f"firewall config invalid: {exc}") from exc


def _store_path(cfg: dict, index: int) -> str:
    prefix = cfg.get("store_prefix", "obfw")
    return f"{prefix}.server{index}.share"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fw_init(args) -> int:
    cfg = load_config(args.config)
    fw_cfg = _firewall_config(cfg)
    rng = RandomSource(_seed_from(cfg, args.seed))
    blacklist = []
    try:
        with open(args.blacklist) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    parse_ipv4(line)
                except ValueError as exc:
                    print(f"{args.blacklist}:{ln}: {exc}", file=sys.stderr)
                    return EXIT_USAGE
                blacklist.append(line)
    except OSError as exc:
        print(f"cannot read blacklist: {exc}", file=sys.stderr)
        return EXIT_USAGE
    flt, stores = fw_init(blacklist, fw_cfg, rng)
    filter_path = cfg.get("filter_path", cfg.get("store_prefix", "obfw") + ".filter")
    flt.save(filter_path)
    for store in stores:
        store.save(_store_path(cfg, store.party_index))
    print(f"initialized {len(blacklist)} addresses into beta={fw_cfg.bloom.beta} "
          f"kappa={fw_cfg.bloom.kappa}; {fw_cfg.m} share stores written")
    return EXIT_OK


def _connect_peers(node: TcpNode, peers: list[dict], retries: int = 50) -> None:
    for peer in peers:
        if peer["index"] == node.index:
            continue
        if peer["index"] > node.index:
            continue  # lower index dials higher; higher accepts
        for attempt in range(retries):
            try:
                node.connect(peer["index"], Endpoint(peer["host"], peer["port"]))
                break
            except ConnectFail:
                if attempt == retries - 1:
                    raise
                time.sleep(0.1)


def cmd_serve(args) -> int:
    cfg = load_config(args.config)
    index = cfg["party_index"]
    store = ShareStore.load(cfg.get("store_path") or _store_path(cfg, index))
    listen = cfg.get("listen", {"host": "127.0.0.1", "port": 0})
    admin = cfg.get("admin_listen", {"host": "127.0.0.1", "port": 0})
    try:
        node = TcpNode(index, Endpoint(listen["host"], listen["port"]))
        _connect_peers(node, cfg.get("peers", []))
    except (ConnectFail, OSError) as exc:
        print(f"transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    daemon = FirewallServerDaemon(
        store, node, psk=bytes.fromhex(cfg.get("psk", "00")),
        admin_listen=Endpoint(admin["host"], admin["port"]),
        seed=_seed_from(cfg, args.seed))
    daemon.start()
    print(f"server {index} on eval port {node.port}, admin port {daemon.admin_port}")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        daemon.stop()
    return EXIT_OK


def cmd_gateway(args) -> int:
    cfg = load_config(args.config)
    fw_cfg = _firewall_config(cfg)
    listen = cfg.get("listen", {"host": "127.0.0.1", "port": 0})
    try:
        node = TcpNode(0, Endpoint("127.0.0.1", 0))
        for peer in cfg.get("peers", []):
            node.connect(peer["index"], Endpoint(peer["host"], peer["port"]))
    except (ConnectFail, OSError) as exc:
        print(f"transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    daemon = GatewayDaemon(fw_cfg, node,
                           listen=Endpoint(listen["host"], listen["port"]),
                           mode=cfg.get("eval_mode", "sum"))
    daemon.start()
    print(f"gateway on port {daemon.port}")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        daemon.stop()
    return EXIT_OK


def cmd_admin_update(args) -> int:
    cfg = load_config(args.config)
    fw_cfg = _firewall_config(cfg)
    try:
        addr = parse_ipv4(args.address)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    filter_path = cfg.get("filter_path", cfg.get("store_prefix", "obfw") + ".filter")
    flt = BloomFilter.load(filter_path)
    rng = RandomSource(_seed_from(cfg, args.seed))
    per_server = fw_update_pairs(flt, fw_cfg, addr, rng)
    flt.insert(addr)
    flt.save(filter_path)
    psk = bytes.fromhex(cfg.get("psk", "00"))
    try:
        for peer in cfg.get("peers", []):
            values = [v for _, v in per_server[peer["index"] - 1]]
            admin_push_update(peer["host"], peer["port"], psk,
                              args.address, values)
    except OSError as exc:
        print(f"transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    print(f"updated {args.address} on {fw_cfg.m} servers")
    return EXIT_OK


_VARIANTS = {
    "alg4": lambda a, b, l, seed: run_semi_honest(a, b, l, seed=seed),
    "alg5": lambda a, b, l, seed: run_semi_honest(a, b, l, seed=seed, variant="alg5"),
    "alg6": lambda a, b, l, seed: run_shared_inputs(a, b, l, m=3, seed=seed),
    "alg7": lambda a, b, l, seed: run_malicious(a, b, l, t=1, seed=seed),
}


def cmd_compare(args) -> int:
    if args.variant not in _VARIANTS:
        print(f"unknown variant {args.variant}", file=sys.stderr)
        return EXIT_USAGE
    seed = bytes.fromhex(args.seed) if args.seed else os.urandom(32)
    out = _VARIANTS[args.variant](args.a, args.b, args.l, seed)
    print(f"a {'>=' if out.f == 1 else '<'} b")
    if args.transcript:
        with open(args.transcript, "w") as fh:
            fh.write(out.transcript.to_json())
    return EXIT_OK


def _bench_rows(variant: str, lvalues: list[int], m: int, seed: bytes) -> list[dict]:
    rows = []
    for l in lvalues:
        if variant == "alg4":
            out = run_semi_honest(3, 5, l, seed=seed)
            formula = alg4_total(l)
            frounds = ROUNDS["alg4"]
            note = f"online formula {alg4_online(l)}"
        elif variant == "alg5":
            out = run_semi_honest(3, 5, l, seed=seed, variant="alg5")
            formula = alg5_total(l)
            frounds = ROUNDS["alg5"]
            note = f"online formula {alg5_online(l)}"
        elif variant == "alg6":
            out = run_shared_inputs(3, 5, l, m=m, seed=seed)
            formula = alg6_total(l, m)
            frounds = ROUNDS["alg6"]
            note = f"m={m}"
        elif variant == "alg7":
            out = run_malicious(3, 5, l, t=1, seed=seed)
            formula = None
            frounds = None
            note = (f"tree-based rounds; constant-round fan-in figure "
                    f"{alg7_constant_round_total(l)} bits (informational)")
        else:
            raise ValueError(variant)
        measured = out.transcript.accounting_total()
        rows.append({
            "variant": variant, "l": l,
            "measured_bits": measured,
            "formula_bits": formula if formula is not None else "",
            "bits_match": "" if formula is None else ("yes" if measured == formula else "NO"),
            "measured_rounds": out.transcript.rounds(),
            "formula_rounds": frounds if frounds is not None else "",
            "note": note,
        })
    return rows


def cmd_bench(args) -> int:
    lvalues = [int(x) for x in args.l.split(",")]
    seed = bytes.fromhex(args.seed) if args.seed else bytes(32)
    rows = _bench_rows(args.variant, lvalues, args.m, seed)
    cols = ["variant", "l", "measured_bits", "formula_bits", "bits_match",
            "measured_rounds", "formula_rounds", "note"]
    if args.format == "csv":
        print(",".join(cols))
        for r in rows:
            print(",".join(str(r[c]) for c in cols))
    else:
        print("| " + " | ".join(cols) + " |")
        print("|" + "|".join("---" for _ in cols) + "|")
        for r in rows:
            print("| " + " | ".join(str(r[c]) for c in cols) + " |")
    mismatch = any(r["bits_match"] == "NO" for r in rows)
    return EXIT_PROTOCOL if mismatch else EXIT_OK


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    role = args.role or cfg.get("role")
    if role == "party":
        return cmd_serve(args)
    if role == "gateway":
        return cmd_gateway(args)
    if role == "admin":
        print("admin role: use admin-update <address>", file=sys.stderr)
        return EXIT_USAGE
    print(f"unknown role {role!r}", file=sys.stderr)
    return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="obfw")
    ap.add_argument("--config", help="JSON run config (or $OBFW_CONFIG)")
    ap.add_argument("--seed", help="hex seed, test mode only")
    ap.add_argument("--transcript", help="write the session transcript JSON here")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("fw-init", help="build and share the blacklist filter")
    p.add_argument("blacklist", help="file with one dotted-quad per line")
    p.set_defaults(fn=cmd_fw_init)

    p = sub.add_parser("serve", help="run a share-store server daemon")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("gateway", help="run the CHECK gateway daemon")
    p.set_defaults(fn=cmd_gateway)

    p = sub.add_parser("admin-update", help="add an address to the shared filter")
    p.add_argument("address")
    p.set_defaults(fn=cmd_admin_update)

    p = sub.add_parser("compare", help="run a comparison protocol demo")
    p.add_argument("variant", choices=sorted(_VARIANTS))
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--l", type=int, default=8, help="input bit width")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("bench", help="measure bits/rounds vs the closed forms")
    p.add_argument("variant", choices=sorted(_VARIANTS))
    p.add_argument("--l", default="8,16,32", help="comma-separated bit widths")
    p.add_argument("--m", type=int, default=3, help="party count for alg6")
    p.add_argument("--format", choices=["md", "csv"], default="md")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("run", help="dispatch by --role or config role")
    p.add_argument("--role", choices=["party", "gateway", "admin"])
    p.set_defaults(fn=cmd_run)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IoError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConnectFail as exc:
        print(f"transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())
