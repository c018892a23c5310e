"""In-memory span tracing of obfw, installed from the benchmark's side.

The tracer wraps public functions and methods of each obfw module and
changes nothing inside the program.  A function is patched under every
name it is looked up by: `interpolate_at_zero`, for example, is bound in
`obfw.field`, `obfw.firewall` and `obfw.sharing`, and each binding is
replaced.  Methods are patched on their class.  Party programs are
generators, so their wrapper times each resumption as one span.

A span is (id, parent id, trace id, name, start, end).  Spans nest per
thread.  A call made while a span of the same name is open in its thread
(RandomSource.randbelow calling RandomSource.bytes, say) records nothing:
it is part of the outer span, and skipping it keeps the overhead down.
The trace id is the session id of the envelope session the span belongs
to, across the gateway thread and the server threads.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name) for plain calls; methods name their class.
CALLS = [
    ("field", "PrimeField.__init__", "field.prime_field"),
    ("field", "lagrange_zero_coefficients", "field.lagrange"),
    ("field", "interpolate", "field.interpolate"),
    ("field", "interpolate_at_zero", "field.interpolate"),
    ("field", "berlekamp_welch", "field.berlekamp_welch"),
    ("rng", "RandomSource.__init__", "rng"),
    ("rng", "RandomSource.child", "rng"),
    ("rng", "RandomSource.bytes", "rng"),
    ("rng", "RandomSource.randbits", "rng"),
    ("rng", "RandomSource.randbelow", "rng"),
    ("bloom", "siphash24", "bloom.siphash"),
    ("sharing", "shamir_share", "sharing.share"),
    ("sharing", "additive_share", "sharing.share"),
    ("firewall", "fw_init", "firewall.fw_init"),
    ("firewall", "decide_sum", "firewall.decide"),
    ("firewall", "decide_product", "firewall.decide"),
    ("firewall", "ShareStore.apply_update", "firewall.apply_update"),
    ("net.groups", "encode_elements", "net.groups.encode"),
    ("net.groups", "decode_elements", "net.groups.decode"),
    ("net.envelope", "frame", "net.envelope.frame"),
    ("net.envelope", "Envelope.decode", "net.envelope.decode"),
    ("net.transcript", "Transcript.record_send", "net.transcript.record"),
    ("net.transcript", "Transcript.record_recv", "net.transcript.record"),
    ("net.sim", "SimNetwork.run", "net.sim"),
    ("net.tcp", "TcpNode.run_program", "net.tcp.session"),
    ("service", "GatewayDaemon.check", "service.check"),
]

PROGRAMS = [
    ("firewall", ("server_sum_program", "gateway_sum_program",
                  "server_product_program", "gateway_product_program",
                  "admin_update_program", "server_update_program"),
     "firewall.program"),
    ("compare.semi_honest", ("p1_program", "p2_program", "p3_program",
                             "p1_shared_program", "p2_shared_program",
                             "p3_shared_program", "pk_shared_program"),
     "compare.program"),
    ("compare.malicious", ("malicious_party", "mult_fanin_party"),
     "compare.program"),
    ("dual", ("dual_eval_party", "output_check_party"), "dual.program"),
    ("sharing", ("shamir_mult_party", "additive_mult3_party"),
     "sharing.program"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        # session id -> [accounting bits, rounds, nodes reporting, address]
        self.ledgers: dict[int, list] = {}
        self._ledger_lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.open = Counter()
            loc.addr = None
        return loc

    def _open(self, name: str) -> list | None:
        """A new span, or None when a span of this name is already open."""
        loc = self._state()
        if loc.open[name]:
            return None
        parent = loc.stack[-1] if loc.stack else None
        entry = [next(self._ids), parent[0] if parent else 0,
                 parent[2] if parent else 0, name, time.perf_counter()]
        loc.stack.append(entry)
        loc.open[name] += 1
        return entry

    def _close(self, entry: list) -> None:
        end = time.perf_counter()
        loc = self._local
        loc.stack.pop()
        loc.open[entry[3]] -= 1
        self.spans.append((entry[0], entry[1], entry[2], entry[3], entry[4],
                           end))

    def _set_trace(self, entry: list, trace_id: int) -> None:
        entry[2] = trace_id
        for e in self._local.stack:
            if not e[2]:
                e[2] = trace_id

    def take(self) -> dict:
        """Aggregate and clear what was recorded; returns it with the spans."""
        spans, self.spans = self.spans, []
        counts, self.counts = self.counts, Counter()
        return {"spans": spans, **aggregate(spans), "extra": dict(counts)}

    # -- wrappers ------------------------------------------------------------
    def _wrap_call(self, fn, name: str, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = tracer._open(name)
            if entry is None:
                return fn(*args, **kwargs)
            try:
                if before is not None:
                    before(entry, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(entry, args, result)
                return result
            finally:
                tracer._close(entry)
        return traced

    def _wrap_program(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._drive(fn(*args, **kwargs), name)
        return traced

    def _drive(self, gen, name: str):
        value, exc = None, None
        while True:
            entry = self._open(name)
            try:
                cmd = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                if entry is not None:
                    self._close(entry)
            value, exc = None, None
            try:
                value = yield cmd
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as caught:  # forwarded into the program
                exc = caught

    # -- hooks that record what a span belongs to -----------------------------
    def _session_start(self, entry, args):
        self._set_trace(entry, args[2])          # run_program(self, prog, sid, ...)

    def _session_end(self, entry, args, result):
        node, session = args[0], args[2]
        tr = result[1]
        with self._ledger_lock:
            led = self.ledgers.setdefault(session, [0, 0, 0, None])
            led[0] += tr.accounting_total()
            led[1] = max(led[1], tr.rounds())
            led[2] += 1
            if node.index == 0:
                led[3] = self._local.addr

    def _check_start(self, entry, args):
        self._local.addr = args[1]               # check(self, addr_text)

    def _decoded(self, entry, args, env):
        entry[2] = env.session_id

    def _encoded(self, entry, args, payload):
        self.counts["net.groups.bytes"] += len(payload)

    def _drew(self, entry, args):
        self.counts["rng.draws"] += 1

    def _sim_done(self, entry, args, result):
        self.counts["net.sim.messages"] += args[0].transcript.messages

    # -- install / uninstall ---------------------------------------------------
    def install(self) -> None:
        hooks = {
            "TcpNode.run_program": dict(before=self._session_start,
                                        after=self._session_end),
            "GatewayDaemon.check": dict(before=self._check_start),
            "Envelope.decode": dict(after=self._decoded),
            "encode_elements": dict(after=self._encoded),
            "RandomSource.bytes": dict(before=self._drew),
            "RandomSource.randbits": dict(before=self._drew),
            "RandomSource.randbelow": dict(before=self._drew),
            "SimNetwork.run": dict(after=self._sim_done),
        }
        # Import every target first, so that no module binds a name while
        # it is patched and keeps the wrapper after uninstall().
        for mod, _, _ in CALLS + PROGRAMS:
            importlib.import_module(f"obfw.{mod}")
        for mod, attr, name in CALLS:
            wrap = functools.partial(self._wrap_call, name=name,
                                     **hooks.get(attr, {}))
            self._patch(mod, attr, wrap)
        for mod, attrs, name in PROGRAMS:
            for attr in attrs:
                self._patch(mod, attr,
                            functools.partial(self._wrap_program, name=name))

    def _patch(self, mod: str, attr: str, wrap) -> None:
        module = sys.modules[f"obfw.{mod}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(wrap(raw.__func__))
            else:
                new = wrap(raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, new)
            return
        original = getattr(module, attr)
        new = wrap(original)
        # Rebind the name everywhere it is looked up.
        for name, loaded in list(sys.modules.items()):
            if name != "obfw" and not name.startswith("obfw."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def aggregate(spans: list[tuple]) -> dict:
    """Per span name: spans, inclusive seconds and self seconds."""
    child = defaultdict(float)
    for _sid, parent, _tid, _name, start, end in spans:
        if parent:
            child[parent] += end - start
    count: Counter = Counter()
    incl: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    for sid, _parent, _tid, name, start, end in spans:
        count[name] += 1
        incl[name] += end - start
        self_s[name] += end - start - child[sid]
    return {"count": dict(count), "incl_s": dict(incl), "self_s": dict(self_s)}


def write_spans(path: str, spans: list[tuple]) -> None:
    """One tab-separated line per span, times in microseconds from the first."""
    t0 = min((s[4] for s in spans), default=0.0)
    with gzip.open(path, "wt") as fh:
        fh.write("span\tparent\ttrace\tname\tstart_us\tdur_us\n")
        for sid, parent, tid, name, start, end in spans:
            fh.write(f"{sid}\t{parent}\t{tid}\t{name}\t"
                     f"{(start - t0) * 1e6:.1f}\t{(end - start) * 1e6:.1f}\n")
