"""Golden reports: the refactor contract.

Each ``golden/*.jsf`` problem is run through ``jetsym --json ... run-file``
and the report must equal the recorded ``golden/*.json`` byte for byte.
Together the files cover standard, lambda, scalar-mu and path-checked
scalar- and matrix-mu prolongations (under flat and non-flat forms),
rational and kernel symmetry checks, gauge-check, potential, check-compat,
darboux and coincide tasks, and the printing of sum and monomial
denominators, fraction coefficients, leading minus signs and kernels of
rational arguments.  ``golden/wave.jsf`` holds generalized symmetry
checks on the wave equation whose restriction binds a leading-derived
coordinate to one that its grade binds later, and the flatness of a form
that is closed only on the wave equation's solutions; with
``independent = t, x`` the same problem must give the same verdicts.
``golden/corpus-pde-1.jsf`` and ``golden/corpus-ode-1.jsf`` are the
seed-1 problems of the two benchmark workloads, written by
``perfbench/corpus.py``, so the benchmark's reports are held byte for
byte too.  A change that alters any printed canonical form or verdict
fails here.

Each golden task, run alone as the subcommand of its kind with its
arguments as flags, must give the record that ``run-file`` gives it; of
a benchmark corpus, whose kinds repeat, the first task of each kind is
run that way.  Re-record the
reports with ``python tests/golden/record.py``, and only for a deliberate
change of output.

``golden/tree_order/*.json`` are the same reports in the printed form of
the earlier tree printer (terms ordered by tree-shape sort keys,
``(1 + x)^(-1)*(...)`` for denominators).  That text must still read
right: task by task, the verdicts and exit codes are the current ones,
and every detail and residual line parses to the value of the current
line.
"""

import json
import re
from pathlib import Path

import pytest

from jetsym.cli import Report, TaskRecord, main
from jetsym.parsing import parse
from jetsym.problemfile import TASK_ARGS, load_problem, parse_flag

GOLDEN = Path(__file__).resolve().parent / "golden"
# exit code of each run: the ODE, non-flat, rational and wave problems, and
# the ode-sweep corpus, hold tasks that must fail
EXIT_CODES = {"corpus-ode-1": 1, "corpus-pde-1": 0, "nonflat": 1, "ode": 1, "pde": 0,
              "rational": 1, "wave": 1}
# the problems that have a report in the tree printer's form
TREE_ORDER = sorted(p.stem for p in (GOLDEN / "tree_order").glob("*.json"))
# a detail line that holds an expression is a name such as
# ``Psi[u_x] = `` or an error message ending in ``difference ``, then the
# expression; any other line is plain text
EXPR_AT = re.compile(r"(\w+(?:\[[^\]]*\])* = |.*?difference )(.*)")


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_json_report_matches_golden(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--json", str(out), "run-file", str(GOLDEN / f"{name}.jsf")])
    capsys.readouterr()
    assert code == EXIT_CODES[name]
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def _exit_code(report):
    out = Report(report["seed"], report["strict"])
    out.records = [TaskRecord(t["id"], t["operation"], t["verdict"], t["residuals"],
                              t["detail"]) for t in report["tasks"]]
    return out.exit_code


def _read_detail(line):
    m = EXPR_AT.fullmatch(line)
    return (line, None) if m is None else (m.group(1), parse(m.group(2)))


def test_every_golden_problem_has_an_exit_code():
    assert sorted(p.stem for p in GOLDEN.glob("*.jsf")) == sorted(EXIT_CODES)
    assert set(TREE_ORDER) < set(EXIT_CODES)


@pytest.mark.parametrize("name", TREE_ORDER)
def test_tree_order_report_reads_as_golden(name):
    old = json.loads((GOLDEN / "tree_order" / f"{name}.json").read_text())
    new = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _exit_code(old) == _exit_code(new) == EXIT_CODES[name]
    assert (old["seed"], old["strict"]) == (new["seed"], new["strict"])
    assert [t["id"] for t in old["tasks"]] == [t["id"] for t in new["tasks"]]
    for was, now in zip(old["tasks"], new["tasks"]):
        assert (was["operation"], was["verdict"]) == (now["operation"], now["verdict"])
        assert [parse(r) for r in was["residuals"]] == [parse(r) for r in now["residuals"]]
        assert ([_read_detail(d) for d in was["detail"]]
                == [_read_detail(d) for d in now["detail"]])


def _golden_tasks(name):
    """The tasks of a golden problem: all of them, or the first of each
    kind for a benchmark corpus, whose kinds repeat many times."""
    tasks = load_problem((GOLDEN / f"{name}.jsf").read_text()).tasks
    if not name.startswith("corpus-"):
        return tasks
    first = {}
    for task in tasks:
        first.setdefault(task.kind, task)
    return list(first.values())


# each golden task, with the name of its problem
TASKS = [(name, task) for name in sorted(EXIT_CODES) for task in _golden_tasks(name)]


def _flags(task):
    """The subcommand flags that give the task's arguments."""
    flags = []
    for name, (value, line) in task.args.items():
        if name == "path-check":
            flags += ["--path-check"] if parse_flag(value, line) else []
        else:
            flags.append(("--lam" if name == "lambda" else f"--{name}") + f"={value}")
    return flags


def test_golden_tasks_cover_every_kind():
    assert {task.kind for _name, task in TASKS} == set(TASK_ARGS)


@pytest.mark.parametrize("name, task", TASKS, ids=[f"{n}-{t.task_id}" for n, t in TASKS])
def test_subcommand_gives_the_run_file_record(name, task, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--json", str(out), task.kind, str(GOLDEN / f"{name}.jsf")] + _flags(task))
    capsys.readouterr()
    (record,) = json.loads(out.read_text())["tasks"]
    golden = json.loads((GOLDEN / f"{name}.json").read_text())["tasks"]
    (expected,) = [t for t in golden if t["id"] == task.task_id]
    # a subcommand's task is named after its kind
    assert record == dict(expected, id=task.kind)
    assert code == (1 if record["verdict"] == "fail" else 0)


def test_wave_verdicts_do_not_depend_on_the_order_of_the_independent_variables(
        tmp_path, capsys):
    text = (GOLDEN / "wave.jsf").read_text()
    swapped = text.replace("independent = x, t", "independent = t, x").replace("u_xt", "u_tx")
    assert swapped.count("independent = t, x") == 1 and "u_tx" in swapped
    problem = tmp_path / "wave-tx.jsf"
    problem.write_text(swapped)
    out = tmp_path / "report.json"
    assert main(["--json", str(out), "run-file", str(problem)]) == 1
    capsys.readouterr()
    tasks = json.loads(out.read_text())["tasks"]
    assert [(t["id"], t["verdict"], t["residuals"]) for t in tasks] == [
        ("time", "pass", []), ("mixed", "pass", []), ("scaled", "fail", ["2*u_ttx"]),
        ("closed", "fail", ["u_tt - u_xx"]), ("closed-on-wave", "pass", [])]
