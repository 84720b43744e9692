"""Re-record the golden reports: run each ``golden/*.jsf`` through
``jetsym --json golden/NAME.json run-file golden/NAME.jsf``.

    python tests/golden/record.py

Use it only for a deliberate change of output, and check the new reports
against ``tests/test_golden.py`` before committing them.
"""

import contextlib
import io
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent.parent / "src"))

from jetsym.cli import main  # noqa: E402


def record():
    for problem in sorted(GOLDEN.glob("*.jsf")):
        report = problem.with_suffix(".json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--json", str(report), "run-file", str(problem)])
        print(f"{report.name}: exit {code}")


if __name__ == "__main__":
    record()
