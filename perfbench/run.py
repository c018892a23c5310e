#!/usr/bin/env python3
"""obfw benchmark: gateway CHECKs over loopback TCP and the simulator mix.

    python3 perfbench/run.py --workload sum-tcp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --short        # every workload briefly, all checks

Run it from the root of a checkout.  It starts `perfbench/host.py`, where
obfw runs, and for the TCP workloads drives the gateway from this process
as a closed-loop client.  Human-readable lines come first; the last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics, or the per-layer metrics
with `--trace 1`).  See perfbench/README.md for what each figure means.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import socket
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 4                    # set-ups per run; setup_s is their median
CLIENT_TIMEOUT = 15.0         # beyond the gateway's own 10 s peer timeout
HOST_TIMEOUT = 30.0           # a host ends within seconds of its last reply
# sum-tcp connections and sim-protocols workers: one per CPU, at most 8.
NPROC = min(8, len(os.sched_getaffinity(0)))

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import workloads as wl        # noqa: E402


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; a failed operation is an infinite sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_line(name: str, samples: list[float], q: float) -> str:
    """The q-th percentile, or why it is not reported."""
    beyond = len(samples) - math.ceil(q / 100.0 * len(samples))
    if beyond < 10:
        return (f"{name} not reported: {len(samples)} samples leave {beyond} "
                f"beyond it, fewer than 10")
    return (f"{name} {percentile(samples, q) * 1e3:.3f} ms "
            f"(n={len(samples)}, {beyond} beyond)")


# ---------------------------------------------------------------------------
# Host process
# ---------------------------------------------------------------------------

class Host:
    """The process where obfw runs, spoken to in JSON lines."""

    def __init__(self, request: dict):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "host.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self.send(request)

    def send(self, msg: dict) -> None:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def call(self, msg: dict) -> dict:
        self.send(msg)
        return self.receive()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host process ended early "
                               f"(exit code {self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=HOST_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------------------
# TCP load generator
# ---------------------------------------------------------------------------

class LineClient:
    """One gateway connection with one CHECK in flight."""

    def __init__(self, port: int):
        self.port = port
        self.sock = None
        self.buf = b""

    def check(self, addr: str) -> str | None:
        """The reply line, or None after a timeout or a dropped connection."""
        try:
            if self.sock is None:
                self.sock = socket.create_connection(("127.0.0.1", self.port),
                                                     timeout=CLIENT_TIMEOUT)
                self.buf = b""
            self.sock.sendall(f"CHECK {addr}\n".encode())
            while b"\n" not in self.buf:
                chunk = self.sock.recv(4096)
                if not chunk:
                    raise ConnectionError("gateway closed the connection")
                self.buf += chunk
        except OSError:
            self.close()      # a late reply would answer the next CHECK
            return None
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode().strip()

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def run_checks(client: LineClient, batch: list[tuple[str, str]]):
    """(latency or inf, ok) per CHECK; a wrong verdict is a failure."""
    out = []
    for addr, expected in batch:
        t0 = time.perf_counter()
        reply = client.check(addr)
        dt = time.perf_counter() - t0
        ok = reply == expected
        out.append((dt if ok else math.inf, ok, reply))
    return out


class TcpLoad:
    """Whole rounds of CHECKs (and, in sum-tcp, one UPDATE per round)."""

    def __init__(self, workload: str, inputs: dict, ready: dict):
        from obfw.firewall import AuthFail
        from obfw.service import admin_push_update
        self._push, self._auth_fail = admin_push_update, AuthFail
        self.sum_mode = workload == "sum-tcp"
        half = wl.SUM_POOL_HALF if self.sum_mode else wl.PRODUCT_POOL_HALF
        stable = [(a, "BLOCK" if first else "FORWARD")
                  for a, first, last in zip(inputs["fresh_candidates"],
                                            ready["fresh_initial"],
                                            ready["fresh_final"])
                  if first == last]
        if len(stable) < half:
            raise RuntimeError("too few fresh addresses keep one verdict")
        # A blacklisted or updated address must BLOCK: a Bloom filter has no
        # false negatives.
        self.pool = [(a, "BLOCK") for a in inputs["pool_blacklisted"]]
        self.pool += stable[:half]
        random.Random(inputs["order_seed"]).shuffle(self.pool)
        self.updates = inputs["updates"]
        self.update_values = ready["update_values"]
        self.admin_ports = ready["admin_ports"]
        self.per_round = (wl.SUM_CHECKS_PER_ROUND if self.sum_mode
                          else wl.PRODUCT_CHECKS_PER_ROUND)
        conns = NPROC if self.sum_mode else 1
        self.clients = [LineClient(ready["gateway_port"]) for _ in range(conns)]
        self.pool_exec = ThreadPoolExecutor(max_workers=conns)
        self.round = 0
        self.wrong: list[str] = []

    def exhausted(self) -> bool:
        return self.sum_mode and self.round >= len(self.updates)

    def push_update(self, r: int) -> float:
        addr = self.updates[r]
        t0 = time.perf_counter()
        try:
            for port, values in zip(self.admin_ports, self.update_values[r]):
                self._push("127.0.0.1", port, bytes.fromhex(wl.PSK_HEX),
                           addr, values, timeout=CLIENT_TIMEOUT)
        except (OSError, self._auth_fail) as exc:
            self.wrong.append(f"UPDATE {addr}: {exc!r}")
            return math.inf
        return time.perf_counter() - t0

    def run_round(self, stats: dict) -> None:
        r = self.round
        batch = []
        if self.sum_mode:
            stats["updates"].append(self.push_update(r))
            batch.append((self.updates[r], "BLOCK"))
        start = r * (self.per_round - len(batch))
        while len(batch) < self.per_round:
            batch.append(self.pool[start % len(self.pool)])
            start += 1
        n = len(self.clients)
        futures = [self.pool_exec.submit(run_checks, self.clients[c], batch[c::n])
                   for c in range(n)]
        for c, fut in enumerate(futures):
            for (dt, ok, reply), (addr, expected) in zip(fut.result(), batch[c::n]):
                stats["checks"].append(dt)
                if not ok:
                    self.wrong.append(f"CHECK {addr}: {reply!r}, "
                                      f"expected {expected}")
        self.round += 1

    def run_for(self, seconds: float, min_rounds: int = 1,
                on_min_rounds=None) -> dict:
        """Whole rounds until `seconds` have gone and `min_rounds` are done."""
        stats = {"checks": [], "updates": []}
        t0 = time.perf_counter()
        deadline = t0 + seconds
        done = 0
        while not self.exhausted() and (
                done < min_rounds or time.perf_counter() < deadline):
            self.run_round(stats)
            done += 1
            if done == min_rounds and on_min_rounds is not None:
                on_min_rounds()
        stats["elapsed"] = time.perf_counter() - t0
        return stats

    def close(self) -> None:
        self.pool_exec.shutdown()
        for c in self.clients:
            c.close()


def load_figures(stats: dict) -> dict:
    checks = stats["checks"]
    done = sum(1 for x in checks if x != math.inf)
    return {"check_per_s": done / stats["elapsed"],
            "check_p50_ms": percentile(checks, 50) * 1e3,
            "mean_ok_ms": (sum(x for x in checks if x != math.inf)
                           / max(done, 1) * 1e3)}


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced half
# ---------------------------------------------------------------------------

TIME_INCLUSIVE = ("field.prime_field", "field.lagrange", "field.interpolate",
                  "field.berlekamp_welch", "rng", "bloom.siphash",
                  "sharing.share", "firewall.decide", "firewall.apply_update",
                  "net.groups.encode", "net.groups.decode",
                  "net.envelope.frame", "net.envelope.decode",
                  "net.transcript.record", "net.tcp.session", "service.check")
TIME_SELF = {"firewall.program": "firewall.program",
             "compare.program": "compare.program",
             "dual.program": "dual.program",
             "sharing.program": "sharing.program",
             "net.sim.self": "net.sim", "net.tcp.wait": "net.tcp.session"}
COUNTS = ("field.prime_field", "field.lagrange", "bloom.siphash",
          "net.groups.encode", "net.transcript.record")
SETUP_LAYERS = ("rng", "bloom.siphash", "sharing.share", "field.prime_field")


def layer_metrics(trace: dict, units: int) -> dict:
    """Per operation of the traced window; set-up figures per set-up."""
    load, setup = trace["load"], trace["setup"]
    out = {}
    for name in COUNTS:
        out[f"{name}.count"] = load["count"].get(name, 0) / units
    out["rng.draws.count"] = load["extra"].get("rng.draws", 0) / units
    out["net.groups.bytes"] = load["extra"].get("net.groups.bytes", 0) / units
    out["net.sim.messages.count"] = (load["extra"].get("net.sim.messages", 0)
                                     / units)
    for name in TIME_INCLUSIVE:
        out[f"{name}.ms"] = load["incl_s"].get(name, 0.0) * 1e3 / units
    for metric, span in TIME_SELF.items():
        out[f"{metric}.ms"] = load["self_s"].get(span, 0.0) * 1e3 / units
    out["firewall.fw_init.ms"] = setup["incl_s"].get("firewall.fw_init", 0.0) * 1e3
    for name in SETUP_LAYERS:
        out[f"setup.{name}.ms"] = setup["incl_s"].get(name, 0.0) * 1e3
    out["setup.rng.draws.count"] = setup["extra"].get("rng.draws", 0)
    out["setup.bloom.siphash.count"] = setup["count"].get("bloom.siphash", 0)
    out["setup.field.prime_field.count"] = setup["count"].get(
        "field.prime_field", 0)
    return out


PER_LAYER_UNITS = {"count": "count", "ms": "ms", "bytes": "B", "pct": "%"}


def unit_of(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def reference_ok(reply: dict, say) -> bool:
    if not reply["siphash_ok"]:
        say("siphash24 differs from the published SipHash-2-4 vectors")
    return reply["siphash_ok"]


def run_tcp(workload: str, seed: int, seconds: float, trace: bool,
            setups: int, say) -> dict:
    inputs = wl.firewall_inputs(workload, seed)
    host = Host({"workload": workload, "seed": seed, "trace": trace,
                 "setups": 1 if trace else setups, "inputs": inputs})
    load = None
    rss = {}
    everywhere = os.sched_getaffinity(0)
    try:
        if inputs["shape"]["one_cpu"]:
            # Off the CPU the host keeps its daemons on.
            os.sched_setaffinity(0, everywhere - {min(everywhere)} or everywhere)
        ready = host.receive()
        load = TcpLoad(workload, inputs, ready)
        if trace:
            plain = load.run_for(seconds / 2)
            host.call({"cmd": "trace-on"})
            stats = load.run_for(seconds / 2)
        else:
            plain = None
            stats = load.run_for(seconds, wl.RSS_ROUNDS[workload],
                                 lambda: rss.update(host.call({"cmd": "rss"})))
        host.send({"cmd": "stop"})
        final = host.receive()
    finally:
        if load is not None:
            load.close()
        host.close()
        os.sched_setaffinity(0, everywhere)

    checks, updates = stats["checks"], stats["updates"]
    samples = [x for half in (plain, stats) if half is not None
               for x in half["checks"] + half["updates"]]
    for line in load.wrong[:5]:
        say(f"failed: {line}")
    if load.exhausted():
        say(f"note: all {len(load.updates)} planned UPDATEs pushed; "
            f"the run ended early")
    fig = load_figures(stats)
    conns = len(load.clients)
    say(f"connections {conns}, one CHECK in flight on each; "
        f"{load.per_round} CHECKs per round"
        + ("; one UPDATE to every server per round" if load.sum_mode else ""))
    say(f"check_per_s {fig['check_per_s']:.2f} 1/s "
        f"(n={len(checks)} CHECKs in {stats['elapsed']:.2f} s)")
    say(f"check_p50_ms {fig['check_p50_ms']:.3f} ms (n={len(checks)})")
    say(tail_line("check_p90_ms", checks, 90))
    say(tail_line("check_p99_ms", checks, 99))
    if updates:
        say(f"update_ms {statistics.median(updates) * 1e3:.3f} ms "
            f"(n={len(updates)}, median time to push one UPDATE to all "
            f"{len(load.admin_ports)} servers)")
    if not ready["no_false_negatives"]:
        say("the admin's filter misses a blacklisted or updated address")
    result = {"attempted": len(samples),
              "failed": sum(1 for x in samples if x == math.inf),
              "correct": reference_ok(ready, say)
              and ready["no_false_negatives"]}
    if not trace:
        setup_s = ready["import_s"] + statistics.median(ready["setup_times"])
        result["metrics"] = {
            "setup_s": setup_s, "peak_rss_mb": rss["peak_rss_mb"],
            "ops_per_s": fig["check_per_s"], "op_p50_ms": fig["check_p50_ms"]}
        say(f"setup_s {setup_s:.4f} s (import {ready['import_s']:.4f} s + "
            f"median of set-ups {['%.4f' % t for t in ready['setup_times']]})")
        say(f"peak_rss_mb {rss['peak_rss_mb']:.1f} MB after set-up and "
            f"{wl.RSS_ROUNDS[workload]} rounds ({ready['setup_rss_mb']:.1f} MB "
            f"when the load started, {final['peak_rss_mb']:.1f} MB at the end)")
        return result
    ledger = final["ledger"]
    say(f"ledger: {ledger['sessions']} traced CHECK sessions, "
        f"{ledger['mismatches']} differ from the simulator, "
        f"{ledger['incomplete']} incomplete")
    result["correct"] &= (ledger["mismatches"] == 0
                          and ledger["incomplete"] == 0 and ledger["sessions"] > 0)
    units = sum(1 for x in checks if x != math.inf)
    metrics = layer_metrics(final["trace"], max(units, 1))
    metrics["net.tcp.session_queues.count"] = final["session_queues"]
    metrics["service.threads.count"] = final["threads_peak"]
    metrics["service.line.ms"] = fig["mean_ok_ms"] - metrics["service.check.ms"]
    untraced = load_figures(plain)["check_per_s"]
    metrics["trace.overhead.pct"] = (untraced - fig["check_per_s"]) / untraced * 100
    say(f"trace overhead: check_per_s {untraced:.2f} untraced, "
        f"{fig['check_per_s']:.2f} traced")
    say(f"spans written to {final['span_file']}")
    result["metrics"] = metrics
    return result


def run_sim(seed: int, seconds: float, trace: bool, setups: int, say) -> dict:
    inputs = wl.sim_inputs(seed)
    # One single-threaded worker per CPU, each with its share of the
    # inputs: a lone worker would time whichever CPU it landed on, and CPUs
    # that share cores with other tenants differ by up to half in speed.
    # The traced run uses one worker, so its halves compare like for like.
    workers = 1 if trace else NPROC
    hosts = []
    try:
        for w in range(workers):
            hosts.append(Host({
                "workload": "sim-protocols", "seed": seed, "trace": trace,
                "setups": 1 if trace else setups, "seconds": seconds,
                "worker": w, "workers": workers, "inputs": inputs}))
        finals = [host.receive() for host in hosts]
    finally:
        for host in hosts:
            host.close()
    runs = [r for final in finals for r in final["runs"]]
    result = {"attempted": sum(r["attempted"] for r in runs),
              "failed": sum(r["failed"] for r in runs),
              "correct": all(reference_ok(final, say) for final in finals)}
    for r in runs:
        for line in r["errors"]:
            say(f"failed: {line}")
    timed = [final["runs"][-1] for final in finals]

    def per_worker_mean(figure) -> float:
        return statistics.fmean(figure(run) for run in timed)

    say(f"{workers} workers, {sum(len(r['passes']) for r in timed)} passes "
        f"of the mix {', '.join(wl.SIM_MIX)}")
    for name in wl.SIM_MIX:
        median = per_worker_mean(lambda r: percentile(r["samples"][name], 50))
        say(f"{name}_ms {median * 1e3:.3f} ms (median per worker, mean over "
            f"workers; n={sum(len(r['samples'][name]) for r in timed)})")

    def passes_per_s(run) -> float:
        done = [x for x in run["passes"] if x != math.inf]
        return len(done) / sum(done) if done else 0.0

    if not trace:
        setup_s = statistics.fmean(
            final["import_s"] + statistics.median(final["setup_times"])
            for final in finals)
        say(f"setup_s {setup_s:.4f} s (import plus the median of "
            f"{setups} set-ups, mean over workers)")
        rss = max(r["peak_rss_mb"] for r in timed)
        say(f"peak_rss_mb {rss:.1f} MB after set-up and "
            f"{wl.RSS_ROUNDS['sim-protocols']} passes, largest worker "
            f"({max(f['peak_rss_mb'] for f in finals):.1f} MB at the end)")
        result["metrics"] = {
            "setup_s": setup_s, "peak_rss_mb": rss,
            "ops_per_s": sum(passes_per_s(r) for r in timed),
            "op_p50_ms": per_worker_mean(
                lambda r: percentile(r["passes"], 50)) * 1e3}
        p90 = per_worker_mean(lambda r: percentile(r["passes"], 90))
        say(f"pass_p90_ms {p90 * 1e3:.3f} ms (per worker, mean over workers)")
        return result
    final, (plain, traced) = finals[0], finals[0]["runs"]
    done = sum(1 for x in traced["passes"] if x != math.inf)
    metrics = layer_metrics(final["trace"], max(done, 1))
    metrics["net.tcp.session_queues.count"] = 0
    metrics["service.threads.count"] = 0
    metrics["service.line.ms"] = 0.0
    before = percentile(plain["samples"]["alg4"], 50)
    after = percentile(traced["samples"]["alg4"], 50)
    metrics["trace.overhead.pct"] = (after - before) / before * 100
    say(f"trace overhead: alg4_ms {before * 1e3:.3f} untraced, "
        f"{after * 1e3:.3f} traced")
    say(f"spans written to {final['span_file']}")
    result["metrics"] = metrics
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 setups: int = SETUPS) -> dict:
    def say(line: str) -> None:
        print(f"[{workload}] {line}", flush=True)

    say(f"seed {seed}, {seconds:g} s, trace {int(trace)}")
    if workload == "sim-protocols":
        result = run_sim(seed, seconds, trace, setups, say)
    else:
        result = run_tcp(workload, seed, seconds, trace, setups, say)
    say(f"attempted {result['attempted']}, failed {result['failed']}")
    unit = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
            "op_p50_ms": "ms"}
    result["metrics"] = {
        name: {"value": value, "unit": unit.get(name) or unit_of(name)}
        for name, value in result["metrics"].items()}
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="every workload for 2 s, untraced and traced")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "obfw" / "__init__.py").is_file():
        print(f"no obfw sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.short:
        ok = True
        for workload in wl.WORKLOADS:
            for trace in (False, True):
                res = run_workload(workload, args.seed, 2.0, trace, setups=1)
                ok &= res["correct"] and res["failed"] == 0
        print("short mode:", "all checks passed" if ok else "FAILED")
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required unless --short is given")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
