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
    AuthFail,
    BadConfig,
    FirewallConfig,
    ShareStore,
    check_product_config,
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

_ENDPOINT = {"type": "object",
             "properties": {"host": {"type": "string"},
                            "port": {"type": "integer"}},
             "required": ["host", "port"]}
_HEX = {"type": "string", "pattern": "^([0-9a-fA-F]{2})+$"}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "role": {"enum": ["party", "gateway", "admin"]},
        "party_index": {"type": "integer", "minimum": 1},
        "listen": _ENDPOINT,
        "admin_listen": _ENDPOINT,
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
        "eval_mode": {"enum": ["sum", "product"]},
        "bloom": {"type": "object",
                  "properties": {"eta": {"type": "integer", "minimum": 1},
                                 "target_fp": {"type": "number"},
                                 "beta": {"type": "integer", "minimum": 1},
                                 "kappa": {"type": "integer", "minimum": 1}}},
        "psk": _HEX,
        "store_path": {"type": "string"},
        "filter_path": {"type": "string"},
        "store_prefix": {"type": "string"},
        "test_mode": {"type": "boolean"},
        "seed": _HEX,
    },
    "additionalProperties": False,
}


class ConfigError(Exception):
    pass


def load_config(args) -> dict:
    """The run config that `args.config` or $OBFW_CONFIG names, validated;
    a seed, in the config or from `args.seed`, needs test_mode."""
    path = args.config or os.environ.get("OBFW_CONFIG")
    if not path:
        raise ConfigError("no config: pass --config or set OBFW_CONFIG")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # Imported here: bench and compare read no config, and jsonschema
    # would cost them about 75 ms and 3.7 MB.
    import jsonschema
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config invalid: {exc.message}") from exc
    if (args.seed is not None or "seed" in cfg) and not cfg.get("test_mode"):
        raise ConfigError("seed is only allowed with test_mode: true")
    return cfg


def _required(cfg: dict, key: str):
    """`cfg[key]`, or a ConfigError naming the missing key."""
    if key not in cfg:
        raise ConfigError(f"config has no {key!r}")
    return cfg[key]


def _seed_from(cfg: dict, override: bytes | None) -> bytes:
    if override:
        return override
    return bytes.fromhex(cfg["seed"]) if "seed" in cfg else os.urandom(32)


def _bloom_params(cfg: dict) -> BloomParams:
    b = cfg.get("bloom", {})
    for key, other in (("beta", "kappa"), ("kappa", "beta")):
        if key in b and other not in b:
            raise ConfigError(f"bloom has {key!r} but no {other!r}")
    if "beta" in b:
        return BloomParams(b["beta"], b["kappa"])
    return derive_params(b.get("eta", 1000), b.get("target_fp", 0.01))


def _firewall_config(cfg: dict) -> FirewallConfig:
    try:
        fw_cfg = FirewallConfig(scheme=cfg.get("scheme", "additive"),
                                m=_required(cfg, "m"), N=cfg.get("N", 11),
                                t=cfg.get("t", 0), bloom=_bloom_params(cfg))
        if cfg.get("eval_mode") == "product":
            check_product_config(fw_cfg)
    except (BadConfig, BadParams) as exc:
        raise ConfigError(f"firewall config invalid: {exc}") from exc
    return fw_cfg


def _store_path(cfg: dict, index: int) -> str:
    prefix = cfg.get("store_prefix", "obfw")
    return f"{prefix}.server{index}.share"


def _filter_path(cfg: dict) -> str:
    return cfg.get("filter_path", cfg.get("store_prefix", "obfw") + ".filter")


def _endpoint(cfg: dict, key: str) -> Endpoint:
    ep = cfg.get(key, {"host": "127.0.0.1", "port": 0})
    return Endpoint(ep["host"], ep["port"])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fw_init(args) -> int:
    cfg = load_config(args)
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
    flt.save(_filter_path(cfg))
    for store in stores:
        store.save(_store_path(cfg, store.party_index))
    print(f"initialized {len(blacklist)} addresses into beta={fw_cfg.bloom.beta} "
          f"kappa={fw_cfg.bloom.kappa}; {fw_cfg.m} share stores written")
    return EXIT_OK


def _server_peers(cfg: dict, m: int, cmd: str) -> list[dict]:
    """`cfg`'s peers in index order, or a ConfigError unless they name each
    server 1..m once: a server left out would never answer a CHECK, nor
    get the update that the filter then records."""
    peers = sorted(cfg.get("peers", []), key=lambda peer: peer["index"])
    indices = [peer["index"] for peer in peers]
    if indices != list(range(1, m + 1)):
        raise ConfigError(f"{cmd} needs one peer for each server 1..{m}, "
                          f"got indices {indices}")
    return peers


def _node(peers: list[dict]) -> TcpNode:
    """The gateway's TcpNode, party 0: it dials `peers`, retrying each for
    up to 5 s while it is not up yet, and listens nowhere, since in the
    star of the gateway and its servers nothing dials the gateway."""
    try:
        node = TcpNode(0, None)
        for peer in peers:
            for attempt in range(50):
                try:
                    node.connect(peer["index"], Endpoint(peer["host"], peer["port"]))
                    break
                except ConnectFail:
                    if attempt == 49:
                        raise
                    time.sleep(0.1)
    except OSError as exc:
        raise ConnectFail(f"party 0: {exc}") from exc
    return node


def _serve_until_interrupted(daemon, banner: str) -> int:
    daemon.start()
    try:
        # Flushed for a supervisor that reads a pipe; inside the try, so
        # that an interrupt sent once it shows stops the daemon cleanly.
        print(banner, flush=True)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        daemon.stop()
    return EXIT_OK


def cmd_serve(args) -> int:
    cfg = load_config(args)
    if "peers" in cfg:
        raise ConfigError("a server reads no 'peers': only the gateway and "
                          "admin-update dial the servers")
    index = _required(cfg, "party_index")
    psk = bytes.fromhex(_required(cfg, "psk"))
    path = cfg.get("store_path") or _store_path(cfg, index)
    store = ShareStore.load(path)
    if store.party_index != index:
        raise ConfigError(f"party_index is {index}, but {path} holds the "
                          f"shares of server {store.party_index}")
    if cfg.get("eval_mode") == "product" and not store.prss_keys:
        raise ConfigError(f"product mode needs the PRSS keys that fw-init "
                          f"writes to {path}.keys for a Shamir store")
    try:
        node = TcpNode(index, _endpoint(cfg, "listen"))
    except OSError as exc:
        raise ConnectFail(f"party {index}: {exc}") from exc
    daemon = FirewallServerDaemon(store, node, psk=psk,
                                  admin_listen=_endpoint(cfg, "admin_listen"))
    return _serve_until_interrupted(
        daemon, f"server {index} on eval port {node.port}, "
                f"admin port {daemon.admin_port}")


def cmd_gateway(args) -> int:
    cfg = load_config(args)
    fw_cfg = _firewall_config(cfg)
    node = _node(_server_peers(cfg, fw_cfg.m, "gateway"))
    daemon = GatewayDaemon(fw_cfg, node, listen=_endpoint(cfg, "listen"),
                           mode=cfg.get("eval_mode", "sum"))
    return _serve_until_interrupted(daemon, f"gateway on port {daemon.port}")


def cmd_admin_update(args) -> int:
    cfg = load_config(args)
    fw_cfg = _firewall_config(cfg)
    psk = bytes.fromhex(_required(cfg, "psk"))
    try:
        addr = parse_ipv4(args.address)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    filter_path = _filter_path(cfg)
    flt = BloomFilter.load(filter_path)
    rng = RandomSource(_seed_from(cfg, args.seed))
    peers = _server_peers(cfg, fw_cfg.m, "admin-update")
    per_server = fw_update_pairs(flt, fw_cfg, addr, rng)
    try:
        for peer, pairs in zip(peers, per_server):
            values = [v for _, v in pairs]
            admin_push_update(peer["host"], peer["port"], psk,
                              args.address, values)
    except OSError as exc:
        print(f"transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except AuthFail as exc:
        print(f"update refused: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    # Every server holds the update: only now does the filter take it.
    flt.insert(addr)
    flt.save(filter_path)
    print(f"updated {args.address} on {fw_cfg.m} servers")
    return EXIT_OK


# variant -> (run(a, b, l, m, seed), closed-form bits(l, m) or None,
#             closed-form rounds or None, bench note(l, m))
_VARIANTS = {
    "alg4": (lambda a, b, l, m, seed: run_semi_honest(a, b, l, seed=seed),
             lambda l, m: alg4_total(l), ROUNDS["alg4"],
             lambda l, m: f"online formula {alg4_online(l)}"),
    "alg5": (lambda a, b, l, m, seed: run_semi_honest(a, b, l, seed=seed,
                                                      variant="alg5"),
             lambda l, m: alg5_total(l), ROUNDS["alg5"],
             lambda l, m: f"online formula {alg5_online(l)}"),
    "alg6": (lambda a, b, l, m, seed: run_shared_inputs(a, b, l, m=m, seed=seed),
             alg6_total, ROUNDS["alg6"], lambda l, m: f"m={m}"),
    "alg7": (lambda a, b, l, m, seed: run_malicious(a, b, l, t=1, seed=seed),
             None, None,
             lambda l, m: (f"tree-based rounds; constant-round fan-in figure "
                           f"{alg7_constant_round_total(l)} bits (informational)")),
}


def cmd_compare(args) -> int:
    run = _VARIANTS[args.variant][0]
    out = run(args.a, args.b, args.l, 3, args.seed or os.urandom(32))
    print(f"a {'>=' if out.f == 1 else '<'} b")
    if args.transcript:
        with open(args.transcript, "w") as fh:
            fh.write(out.transcript.to_json())
    return EXIT_OK


def _bench_rows(variant: str, lvalues: list[int], m: int, seed: bytes) -> list[dict]:
    run, bits, rounds, note = _VARIANTS[variant]
    rows = []
    for l in lvalues:
        out = run(3, 5, l, m, seed)
        formula = bits(l, m) if bits else None
        measured = out.transcript.accounting_total()
        rows.append({
            "variant": variant, "l": l,
            "measured_bits": measured,
            "formula_bits": formula if formula is not None else "",
            "bits_match": "" if formula is None else ("yes" if measured == formula else "NO"),
            "measured_rounds": out.transcript.rounds(),
            "formula_rounds": rounds if rounds is not None else "",
            "note": note(l, m),
            "transcript": out.transcript,
        })
    return rows


def cmd_bench(args) -> int:
    lvalues = [int(x) for x in args.l.split(",")]
    rows = _bench_rows(args.variant, lvalues, args.m, args.seed or bytes(32))
    if args.transcript:
        with open(args.transcript, "w") as fh:
            fh.writelines(r["transcript"].to_json() + "\n" for r in rows)
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
    cfg = load_config(args)
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
    ap.add_argument("--seed", type=bytes.fromhex,
                    help="hex seed; with a config, test mode only")
    ap.add_argument("--transcript",
                    help="write the session transcript JSON here (compare; "
                         "bench writes one line per measured run)")
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


# The subcommands that honour the global --transcript flag; the daemons
# keep no session records yet.
_WRITES_TRANSCRIPTS = ("compare", "bench")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.transcript and args.cmd not in _WRITES_TRANSCRIPTS:
        print(f"--transcript: {args.cmd} records no session transcript",
              file=sys.stderr)
        return EXIT_USAGE
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
