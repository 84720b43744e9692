"""Seeded mutation fuzz of the golden problem files.

Each mutant of a ``golden/*.jsf`` file deletes, duplicates or inserts a
few lines or tokens (a token is a run of letters, digits and
underscores, or one other visible character; an inserted token is one
taken from the same file).  It runs through ``jetsym run-file`` in a
child process, which must exit with 0, 1 or 2 within ``LIMIT`` seconds
and print no traceback: malformed or hostile input ends as invalid
input or as a failed task, never as a crash or a hang.
"""

import random
import re
from pathlib import Path

import pytest

from helpers import run_python

GOLDEN = Path(__file__).resolve().parent / "golden"
# the golden files that take the seeded mutants in turn; each golden file
# added after them draws its own share of mutants from a stream of the same
# seed, so that adding a file leaves every earlier case as it was
FILES = [GOLDEN / f"{stem}.jsf"
         for stem in ("corpus-ode-1", "corpus-pde-1", "nonflat", "ode", "pde", "rational")]
LATER = [path for path in sorted(GOLDEN.glob("*.jsf")) if path not in FILES]
SEED = 1013904223
MUTANTS = 40
LIMIT = 10
TOKEN = re.compile(r"\w+|[^\w\s]", re.ASCII)


def mutate(text, rng):
    """``text`` after one to three edits, each deleting, duplicating or
    inserting one line or one token; tokens are set apart by spaces, so
    an edit never joins two of them."""
    lines = text.splitlines()
    pool = TOKEN.findall(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("delete", "duplicate", "insert"))
        k = rng.randrange(len(lines))
        spans = [m.span() for m in TOKEN.finditer(lines[k])]
        if rng.random() < 0.5 or not spans:
            if op == "delete" and len(lines) > 1:
                del lines[k]
            else:
                lines.insert(k, lines[k] if op == "duplicate" else rng.choice(lines))
            continue
        start, stop = rng.choice(spans)
        line = lines[k]
        if op == "delete":
            lines[k] = f"{line[:start]} {line[stop:]}"
        elif op == "duplicate":
            lines[k] = f"{line[:stop]} {line[start:stop]} {line[stop:]}"
        else:
            lines[k] = f"{line[:start]} {rng.choice(pool)} {line[start:]}"
    return "\n".join(lines) + "\n"


def mutants(seed, count, files):
    """``count`` seeded mutants, as (name, text), of ``files`` in turn."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        path = files[n % len(files)]
        out.append((f"{path.stem}-{n}", mutate(path.read_text(encoding="utf-8"), rng)))
    return out


CASES = mutants(SEED, MUTANTS, FILES) + [
    case for path in LATER for case in mutants(SEED, MUTANTS // len(FILES), [path])]


@pytest.mark.parametrize("name, text", CASES, ids=[name for name, _ in CASES])
def test_a_mutated_golden_file_exits_cleanly(tmp_path, name, text):
    problem = tmp_path / f"{name}.jsf"
    problem.write_text(text, encoding="utf-8")
    proc = run_python(["-m", "jetsym.cli", "run-file", str(problem)], timeout=LIMIT)
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
