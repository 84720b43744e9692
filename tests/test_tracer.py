"""The per-layer tracer of the benchmark still sees the polynomial kernel,
the total derivatives and the printer.

``perfbench/tracer.py`` wraps the kernel by rebinding the functions that
``jetsym.backend`` re-exports, and every layer's public functions by
rebinding their names, and ``perfbench/run.py`` reads a metric it never
saw as 0.  A refactor that moves the calls past those bindings, such as
a lift that derives without calling ``jets.total_derivative``, would
therefore make a layer read 0 without any error; this test fails
instead.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PRODUCTS = ("backend.poly_mul.calls", "backend.poly_add.calls")


# the PDE problem is polynomial throughout, so it never needs a gcd; its
# check-compat task reaches the flatness check in the gauge layer
@pytest.mark.parametrize("name, exit_code, counters", [
    ("ode", 1, PRODUCTS + ("_gcd.poly_gcd.calls",)),
    ("pde", 0, PRODUCTS + ("jets.total_derivative.calls", "expr.to_string.calls",
                           "gauge.maurer_cartan_check.calls")),
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
    traced = json.loads(trace.read_text())
    stats = traced["stats"]
    for key in counters:
        assert stats.get(key, 0) > 0, key
    # every lift task derives through the traced total derivative
    problem = (GOLDEN / f"{name}.jsf").read_text(encoding="utf-8")
    lifts = set(re.findall(r"^\[task prolong (\S+)\]$", problem, re.MULTILINE))
    deriving = {task for fn, _start, _end, _parent, task in traced["spans"]
                if fn == "jets.total_derivative"}
    assert lifts and lifts <= deriving
    # tracing observes the run without changing its report
    assert report.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
