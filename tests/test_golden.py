"""Golden reports: the refactor contract.

Each ``golden/*.jsf`` problem is run through ``jetsym --json ... run-file``
and the report must equal the recorded ``golden/*.json`` byte for byte.
Together the files cover standard, lambda, scalar-mu and path-checked
scalar- and matrix-mu prolongations (under flat and non-flat forms),
rational and kernel symmetry checks, gauge-check, potential, check-compat,
darboux and coincide tasks, and the printing of sum and monomial
denominators, fraction coefficients, leading minus signs and kernels of
rational arguments.  A change that
alters any printed canonical form or verdict fails here; re-record a
report only for a deliberate change of output.
"""

from pathlib import Path

import pytest

from jetsym.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# exit code of each run: the ODE, non-flat and rational problems hold tasks
# that must fail
EXIT_CODES = {"nonflat": 1, "ode": 1, "pde": 0, "rational": 1}


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_json_report_matches_golden(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--json", str(out), "run-file", str(GOLDEN / f"{name}.jsf")])
    capsys.readouterr()
    assert code == EXIT_CODES[name]
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
