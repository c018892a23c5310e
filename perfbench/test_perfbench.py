"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py

The last test runs every workload in short mode, untraced and traced, with
every output check on; it takes about a minute.
"""
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import obfw.field                     # noqa: E402
import obfw.firewall                  # noqa: E402
import obfw.sharing                   # noqa: E402
import run                            # noqa: E402
import workloads                      # noqa: E402
from obfw.rng import RandomSource     # noqa: E402
from tracing import Tracer, aggregate  # noqa: E402


def test_percentile_counts_failures_as_infinite():
    samples = [1.0, 2.0, 3.0, float("inf")]
    assert run.percentile(samples, 50) == 2.0
    assert run.percentile(samples, 90) == float("inf")


def test_self_time_subtracts_direct_children():
    spans = [(1, 0, 7, "outer", 0.0, 10.0),
             (2, 1, 7, "inner", 1.0, 4.0),
             (3, 1, 7, "inner", 5.0, 6.0),
             (4, 2, 7, "leaf", 2.0, 3.0)]
    agg = aggregate(spans)
    assert agg["count"] == {"outer": 1, "inner": 2, "leaf": 1}
    assert agg["incl_s"]["inner"] == 4.0
    assert agg["self_s"] == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_install_patches_every_binding_and_uninstall_restores_them():
    original = obfw.field.interpolate_at_zero
    tracer = Tracer()
    tracer.install()
    try:
        patched = obfw.field.interpolate_at_zero
        assert patched is not original
        assert obfw.firewall.interpolate_at_zero is patched
        assert obfw.sharing.interpolate_at_zero is patched
        RandomSource(1).randbelow(1000)
    finally:
        tracer.uninstall()
    assert obfw.firewall.interpolate_at_zero is original
    recorded = tracer.take()
    # randbelow calls randbits and bytes: one draw, one rng span.
    assert recorded["extra"] == {"rng.draws": 1}
    assert recorded["count"]["rng"] == 2          # __init__ and randbelow


def test_inputs_depend_only_on_the_seed():
    assert workloads.firewall_inputs("sum-tcp", 3) == \
        workloads.firewall_inputs("sum-tcp", 3)
    assert workloads.sim_inputs(3) != workloads.sim_inputs(4)


def test_short_mode_passes_every_check():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--short"],
                         cwd=HERE.parent, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert "short mode: all checks passed" in out.stdout
