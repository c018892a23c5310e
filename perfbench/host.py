"""Host process of one benchmark run: obfw runs here and nowhere else.

For the TCP workloads it stands the firewall up the way `obfw serve` and
`obfw gateway` do (FirewallServerDaemon, GatewayDaemon and TcpNode on
127.0.0.1) and answers the load generator in `run.py`, which lives in
another process so that it does not compete with the daemons for the
interpreter lock.  For sim-protocols it runs the simulator mix itself, as
one of `nproc` such workers.

It talks to `run.py` in JSON lines: one request on stdin, then replies
on stdout.  Nothing else may write to stdout.
"""
from __future__ import annotations

import time

T_START = time.monotonic()

import gc                                               # noqa: E402
import json                                             # noqa: E402
import math                                             # noqa: E402
import os                                               # noqa: E402
import resource                                         # noqa: E402
import sys                                              # noqa: E402
import threading                                        # noqa: E402
from pathlib import Path                                # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import obfw                                             # noqa: E402
from obfw.bloom import derive_params                    # noqa: E402
from obfw.compare import (                              # noqa: E402
    ROUNDS, alg4_total, alg5_total, alg6_total, run_malicious,
    run_semi_honest, run_shared_inputs)
from obfw.dual import (                                 # noqa: E402
    CheatPlan, DualParams, VerdictStatus, dual_share, run_output_check)
from obfw import firewall                                # noqa: E402
from obfw.bloom import siphash24                        # noqa: E402
from obfw.firewall import (                             # noqa: E402
    FirewallConfig, ServerTamper, fw_update_pairs, parse_ipv4,
    run_eval_bw, run_eval_product, run_eval_sum, run_product_with_vote)
from obfw.net import build_mesh                         # noqa: E402
from obfw.rng import RandomSource                       # noqa: E402
from obfw.service import FirewallServerDaemon, GatewayDaemon  # noqa: E402

import workloads as wl                                  # noqa: E402
from tracing import Tracer, write_spans                 # noqa: E402

IMPORT_S = time.monotonic() - T_START
PSK = bytes.fromhex(wl.PSK_HEX)
TRACE_DIR = ROOT / ".bench_build" / "perfbench"


def send(msg: dict) -> None:
    sys.stdout.write(json.dumps(msg) + "\n")
    sys.stdout.flush()


def receive() -> dict:
    line = sys.stdin.readline()
    if not line:
        raise SystemExit("host: the load generator went away")
    return json.loads(line)


# Published SipHash-2-4 vectors: key 00..0f, messages of length 0 and 15.
SIPHASH_VECTORS = {0: 0x726FDB47DD0E0E31, 15: 0xA129CA6149BE45E5}


def siphash_matches_reference() -> bool:
    """The expected verdicts hash with the same SipHash, so check it first."""
    return all(siphash24(bytes(range(16)), bytes(range(n))) == want
               for n, want in SIPHASH_VECTORS.items())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def firewall_config(shape: dict) -> FirewallConfig:
    return FirewallConfig(scheme=shape["scheme"], m=shape["m"], N=wl.N,
                          t=shape["t"], bloom=derive_params(shape["eta"], 0.01))


class ThreadSampler:
    """Peak number of live threads in this process, sampled every 20 ms."""

    def __init__(self):
        self.peak = threading.active_count()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(0.02):
            self.peak = max(self.peak, threading.active_count())

    def stop(self) -> int:
        self._stop.set()
        self._thread.join()
        return self.peak


def set_up_repeatedly(setups: int, tracer: Tracer | None, build):
    """Run `build(cpu)` `setups` times, keeping the last; returns (it, seconds).

    Earlier set-ups are torn down and collected first, so the peak resident
    set reflects one live set-up.  With a tracer only the kept set-up is
    traced.  Set-up k is offered CPU k (mod the CPU count) for its
    single-threaded part; see FirewallStack.
    """
    times = []
    built = None
    cpus = sorted(os.sched_getaffinity(0))
    for k in range(setups):
        if built is not None:
            built.stop()
            built = None
            time.sleep(0.3)         # the daemons' accept loops poll at 0.2 s
            gc.collect()
        if tracer is not None and k == setups - 1:
            tracer.install()
        t0 = time.perf_counter()
        built = build(cpus[k % len(cpus)])
        times.append(time.perf_counter() - t0)
        if tracer is not None and k == setups - 1:
            tracer.uninstall()
    return built, times


# ---------------------------------------------------------------------------
# TCP workloads
# ---------------------------------------------------------------------------

class FirewallStack:
    """fw_init, the loopback mesh, m server daemons and the gateway."""

    def __init__(self, cfg: FirewallConfig, inputs: dict, cpu: int):
        self.cfg = cfg
        seed = inputs["fw_seed"]
        # fw_init runs on one CPU, and CPUs that share cores with other
        # tenants differ by up to half in speed, so set-ups take turns over
        # the CPUs and their median averages them.  Only this thread is
        # pinned, and before it starts any daemon thread; the daemon threads
        # inherit the affinity it has afterwards (see workloads.PRODUCT_TCP).
        everywhere = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            self.flt, self.stores = firewall.fw_init(
                inputs["blacklist"], cfg, RandomSource(seed))
        finally:
            os.sched_setaffinity(0, {min(everywhere)}
                                 if inputs["shape"]["one_cpu"] else everywhere)
        # The gateway (index 0) dials every server and lower server
        # indices dial higher ones, as the CLI wires them.
        self.nodes = build_mesh(list(range(cfg.m + 1)))
        self.servers = [
            FirewallServerDaemon(self.stores[i - 1], self.nodes[i], psk=PSK,
                                 seed=(seed + i) % 2 ** 256)
            for i in range(1, cfg.m + 1)]
        for server in self.servers:
            server.start()
        self.gateway = GatewayDaemon(cfg, self.nodes[0],
                                     mode=inputs["shape"]["mode"])
        self.gateway.start()

    def stop(self) -> None:
        self.gateway.stop()
        for server in self.servers:
            server.stop()


def plan_expectations(stack: FirewallStack, inputs: dict) -> dict:
    """Expected verdicts from the admin's plaintext filter, before timing.

    Fresh candidates are queried before and after every planned UPDATE is
    inserted; a Bloom filter only gains bits, so an address with the same
    answer at both ends has that answer at every point of the run.
    """
    flt, cfg = stack.flt, stack.cfg

    def query(addrs):
        return [flt.query(parse_ipv4(a)) for a in addrs]

    fresh = inputs["fresh_candidates"]
    plan = {"fresh_initial": query(fresh)}
    rng = RandomSource(inputs["fw_seed"]).child("updates")
    values = []
    for k, addr_text in enumerate(inputs["updates"]):
        addr = parse_ipv4(addr_text)
        per_server = fw_update_pairs(flt, cfg, addr, rng.child(k))
        flt.insert(addr)      # the admin keeps its plaintext filter in step
        values.append([[v for _, v in pairs] for pairs in per_server])
    plan["fresh_final"] = query(fresh)
    plan["update_values"] = values
    # The pool's blacklisted addresses and every update are expected to
    # BLOCK; the filter itself must agree.
    plan["no_false_negatives"] = all(
        query(inputs["pool_blacklisted"]) + query(inputs["updates"]))
    return plan


def verify_ledgers(stack: FirewallStack, ledgers: dict) -> dict:
    """Each traced CHECK session against a simulator run of its programs."""
    nodes = stack.cfg.m + 1
    product = stack.gateway.mode == "product"
    reference: dict[str, tuple[int, int]] = {}
    mismatches = incomplete = 0
    for _session, (bits, rounds, reported, addr) in sorted(ledgers.items()):
        if reported != nodes or addr is None:
            incomplete += 1
            continue
        if addr not in reference:
            if product:
                _, net = run_eval_product(stack.stores, parse_ipv4(addr))
            else:
                _, net = run_eval_sum(stack.stores, parse_ipv4(addr))
            reference[addr] = (net.transcript.accounting_total(),
                               net.transcript.rounds())
        if (bits, rounds) != reference[addr]:
            mismatches += 1
    return {"sessions": len(ledgers), "mismatches": mismatches,
            "incomplete": incomplete}


def serve_tcp(req: dict) -> None:
    inputs = req["inputs"]
    cfg = firewall_config(inputs["shape"])
    tracer = Tracer() if req["trace"] else None
    stack, setup_times = set_up_repeatedly(
        req["setups"], tracer, lambda cpu: FirewallStack(cfg, inputs, cpu))
    setup = tracer.take() if tracer else None
    ready = plan_expectations(stack, inputs)
    ready.update(gateway_port=stack.gateway.port,
                 admin_ports=[s.admin_port for s in stack.servers],
                 setup_times=setup_times, import_s=IMPORT_S,
                 siphash_ok=siphash_matches_reference(),
                 setup_rss_mb=peak_rss_mb())
    send(ready)

    sampler = None
    while True:
        cmd = receive()["cmd"]
        if cmd == "rss":
            send({"peak_rss_mb": peak_rss_mb()})
        elif cmd == "trace-on":
            gc.collect()
            sampler = ThreadSampler()
            tracer.install()
            send({"ok": True})
        elif cmd == "stop":
            break
    final = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        final["threads_peak"] = sampler.stop() if sampler else 0
        final["session_queues"] = len(stack.nodes[0]._queues)
        time.sleep(0.2)          # let server threads record their ledgers
        load = tracer.take()
        final["ledger"] = verify_ledgers(stack, tracer.ledgers)
        final.update(trace_summary(req, setup, load))
    stack.stop()
    send(final)


def trace_summary(req: dict, setup: dict, load: dict) -> dict:
    """Write every span out and keep the aggregates for the metrics."""
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    path = TRACE_DIR / f"spans-{req['workload']}-seed{req['seed']}.tsv.gz"
    write_spans(str(path), setup.pop("spans") + load.pop("spans"))
    return {"trace": {"setup": setup, "load": load},
            "span_file": str(path.relative_to(ROOT))}


# ---------------------------------------------------------------------------
# sim-protocols
# ---------------------------------------------------------------------------

class SimState:
    """The small Shamir filter for the decoders plus the dealt dual shares."""

    def __init__(self, inputs: dict):
        cfg = firewall_config(wl.SIM_FILTER)
        self.flt, self.stores = firewall.fw_init(inputs["blacklist"], cfg,
                                        RandomSource(inputs["fw_seed"]))
        params = DualParams(wl.N, wl.DUAL_T, wl.DUAL_N)
        deal = RandomSource(inputs["fw_seed"]).child("dual")
        self.duals = [dual_share(s, params, deal.child(k))
                      for k, s in enumerate(inputs["secrets"])]

    def stop(self) -> None:
        pass


def sim_operations(state: SimState, inputs: dict):
    """name -> op(k, seed) returning True when every output checks out."""
    pairs = inputs["pairs"]
    expected_bit = [int(state.flt.query(parse_ipv4(a)))
                    for a in inputs["decode_addrs"]]

    def compare(name, run, bits_formula, rounds):
        def op(k, seed):
            a, b = pairs[name][k]
            out = run(a, b, seed)
            if out.f != int(a >= b):
                return False
            tr = out.transcript
            return ((bits_formula is None or tr.accounting_total() == bits_formula)
                    and (rounds is None or tr.rounds() == rounds))
        return op

    def output_check(k, seed):
        results, _ = run_output_check(state.duals[k])
        secret = inputs["secrets"][k]
        return (len(results) == wl.DUAL_N and all(
            v.status is VerdictStatus.HONEST and v.secret == secret
            for v in results.values()))

    def cheater_check(k, seed):
        cheater, delta = inputs["cheaters"][k]
        results, _ = run_output_check(
            state.duals[k], cheats={cheater: CheatPlan(phase2_delta=delta)})
        return (len(results) == wl.DUAL_N and not any(
            v.honest for j, v in results.items() if j != cheater))

    def decode_bw(k, seed):
        server, offset = inputs["tampers"][k]
        verdict, _ = run_eval_bw(state.stores,
                                 parse_ipv4(inputs["decode_addrs"][k]),
                                 seed=seed,
                                 tampers={server: ServerTamper(offset)})
        return (verdict.value == expected_bit[k]
                and verdict.suspects == frozenset({server}))

    def decode_vote(k, seed):
        server, offset = inputs["tampers"][k]
        final, _, _ = run_product_with_vote(
            state.stores, parse_ipv4(inputs["decode_addrs"][k]), seed=seed,
            tampers={server: ServerTamper(offset)})
        return final.value == expected_bit[k] and server in final.suspects

    bits = wl.COMPARE_BITS
    return {
        "alg4": compare("alg4", lambda a, b, s: run_semi_honest(
            a, b, bits["alg4"], seed=s), alg4_total(bits["alg4"]), ROUNDS["alg4"]),
        "alg5": compare("alg5", lambda a, b, s: run_semi_honest(
            a, b, bits["alg5"], seed=s, variant="alg5"),
            alg5_total(bits["alg5"]), ROUNDS["alg5"]),
        "alg6": compare("alg6", lambda a, b, s: run_shared_inputs(
            a, b, bits["alg6"], m=wl.ALG6_M, seed=s),
            alg6_total(bits["alg6"], wl.ALG6_M), ROUNDS["alg6"]),
        # alg7 has no closed form for its tree-based fan-in.
        "alg7": compare("alg7", lambda a, b, s: run_malicious(
            a, b, bits["alg7"], t=wl.ALG7_T, seed=s), None, None),
        "output_check": output_check,
        "cheater_check": cheater_check,
        "decode_bw": decode_bw,
        "decode_vote": decode_vote,
    }


def run_sim_passes(ops: dict, inputs: dict, first: int, step: int,
                   seconds: float, min_passes: int = 1):
    """Whole passes of the mix until `seconds` have gone and `min_passes`
    are done; per-op samples, and the peak resident set after `min_passes`.
    Pass k takes input k of the cycled pools, for k = first, first + step...
    """
    samples = {name: [] for name in wl.SIM_MIX}
    passes, failed, errors = [], 0, []
    deadline = time.perf_counter() + seconds
    rss = None
    k = first
    while len(passes) < min_passes or time.perf_counter() < deadline:
        total, ok_pass = 0.0, True
        for name in wl.SIM_MIX:
            seed = f"{inputs['protocol_seed']}/{k}/{name}"
            t0 = time.perf_counter()
            try:
                ok = ops[name](k % wl.SIM_POOL, seed)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                ok = False
                errors.append(f"{name}: {exc!r}")
            dt = time.perf_counter() - t0
            total += dt
            if not ok:
                failed += 1
                ok_pass = False
            samples[name].append(dt if ok else math.inf)
        passes.append(total if ok_pass else math.inf)
        k += step
        if len(passes) == min_passes:
            rss = peak_rss_mb()
    return {"samples": samples, "passes": passes, "failed": failed,
            "attempted": len(passes) * len(wl.SIM_MIX), "errors": errors[:5],
            "peak_rss_mb": rss}


def serve_sim(req: dict) -> None:
    inputs = req["inputs"]
    tracer = Tracer() if req["trace"] else None
    if req["workers"] > 1:
        # One worker per CPU, so that each worker times one CPU throughout
        # and the mean over workers covers every CPU once.
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[req["worker"] % len(cpus)]})
    state, setup_times = set_up_repeatedly(
        req["setups"], tracer, lambda cpu: SimState(inputs))
    setup = tracer.take() if tracer else None
    siphash_ok = siphash_matches_reference()
    ops = sim_operations(state, inputs)
    seconds = req["seconds"]
    if tracer is None:
        result = {"runs": [run_sim_passes(ops, inputs, req["worker"],
                                          req["workers"], seconds,
                                          wl.RSS_ROUNDS["sim-protocols"])]}
    else:
        # First half untraced, second half traced: the difference is the
        # tracing overhead.
        plain = run_sim_passes(ops, inputs, 0, 1, seconds / 2)
        gc.collect()
        tracer.install()
        traced = run_sim_passes(ops, inputs, len(plain["passes"]), 1,
                                seconds / 2)
        tracer.uninstall()
        result = {"runs": [plain, traced]}
        result.update(trace_summary(req, setup, tracer.take()))
    result.update(setup_times=setup_times, import_s=IMPORT_S,
                  peak_rss_mb=peak_rss_mb(), siphash_ok=siphash_ok)
    send(result)


def main() -> None:
    if not Path(obfw.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"host: obfw imported from {obfw.__file__}, "
                         f"not from {ROOT / 'src'}")
    req = receive()
    if req["workload"] == "sim-protocols":
        serve_sim(req)
    else:
        serve_tcp(req)
    sys.stdout.flush()
    os._exit(0)  # daemon threads may still sit in accept(); do not wait


if __name__ == "__main__":
    main()
