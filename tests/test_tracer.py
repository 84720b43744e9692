"""The per-layer tracer of the benchmark still sees the polynomial kernel.

``perfbench/tracer.py`` wraps the kernel by rebinding the functions that
``jetsym.backend`` re-exports, and ``perfbench/run.py`` reads a metric
it never saw as 0.  A kernel refactor that moves the calls past those
bindings would therefore make the kernel layer read 0 without any
error; this test fails instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PRODUCTS = ("backend.poly_mul.calls", "backend.poly_add.calls")


# the PDE problem is polynomial throughout, so it never needs a gcd
@pytest.mark.parametrize("name, exit_code, counters", [
    ("ode", 1, PRODUCTS + ("_gcd.poly_gcd.calls",)),
    ("pde", 0, PRODUCTS),
])
def test_traced_run_counts_kernel_calls(name, exit_code, counters, tmp_path):
    trace, report = tmp_path / "trace.json", tmp_path / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace),
         "--json", str(report), "run-file", str(GOLDEN / f"{name}.jsf")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == exit_code, proc.stderr
    stats = json.loads(trace.read_text())["stats"]
    for key in counters:
        assert stats.get(key, 0) > 0, key
    # tracing observes the run without changing its report
    assert report.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
