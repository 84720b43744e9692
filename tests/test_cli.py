"""Problem-file and CLI tests: parsing, dispatch, reports, exit codes."""

import gc
import json
from pathlib import Path

import pytest

from jetsym import problemfile
from jetsym.cli import main, run
from jetsym.errors import JetError, ProblemFileError
from jetsym.jets import MuForm
from jetsym.parsing import MAX_NESTING, parse
from jetsym.problemfile import TASK_ARGS, load_problem
from jetsym.prolong import lift
from jetsym.symmetry import DifferentialEquation

from helpers import run_python

REGRESSION = """
# second-order linear equation with a deformed shift symmetry
[jet]
independent = x
dependent = u
order = 2

[field S]
xi x = 0
phi u = 1

[equation E]
u_xx = (1+x^2)*u

[task check-symmetry lam]
field = S
equation = E
kind = lambda
lambda = x

[task check-symmetry std]
field = S
equation = E
kind = standard
"""

PDE_COMPAT = """
[jet]
independent = x, t
dependent = u
order = 1

[mu M]
x = u_t
t = 0

[equation HEAT0]
u_t = 0

[task check-compat global]
mu = M

[task check-compat restricted]
mu = M
equation = HEAT0
"""

PATHS = """
[jet]
independent = x, t
dependent = u
order = 2

[field V]
xi x = 0
xi t = 0
phi u = 1

[mu BAD]
x = u
t = 0

[task prolong p]
field = V
kind = mu
mu = BAD
path-check = true
"""


def test_load_problem_declarations():
    problem = load_problem(REGRESSION)
    assert problem.spec.p == 1 and problem.spec.q == 1 and problem.spec.order == 2
    assert ("field", "S") in problem.declared
    assert ("equation", "E") in problem.declared
    assert [t.task_id for t in problem.tasks] == ["lam", "std"]


def test_run_regression_tasks():
    report = run(load_problem(REGRESSION))
    by_id = {r.task_id: r for r in report.records}
    assert by_id["lam"].verdict == "pass"
    assert by_id["std"].verdict == "fail"
    assert by_id["std"].residuals == ["-1 - x^2"]
    assert report.exit_code == 1  # the standard check is supposed to fail


def test_failing_symmetry_record_lists_every_equation():
    # the shift d/du holds for u_x = 0 and fails for v_x = u: the record
    # keeps one residual line per equation, "0" for the one that holds
    text = """
[jet]
independent = x
dependent = u, v
order = 1

[field S]
phi u = 1

[equation E]
u_x = 0
v_x = u

[task check-symmetry sym]
field = S
equation = E
"""
    record = run(load_problem(text)).records[0]
    assert record.verdict == "fail"
    assert record.residuals == ["0", "-1"]


JET_ORDER_TWO_FORM = """
[jet]
independent = x
dependent = u
order = 2

[field P]
xi x = x
phi u = 1

[field G]
xi x = x
phi u = 1
generalized = true

[mu M]
x = u_xx

[task prolong mu]
field = P
kind = mu
mu = M

[task prolong lambda]
field = P
kind = lambda
lambda = u_xx

[task prolong generalized]
field = G
kind = mu
mu = M
"""


def test_a_point_field_takes_no_form_above_the_first_jet():
    # one rule for every form: a lambda and a mu form of jet order 2 both
    # need a generalized field
    by_id = {r.task_id: r for r in run(load_problem(JET_ORDER_TWO_FORM)).records}
    message = "error: the form depends on jet order > 1; set generalized=True on the field"
    assert by_id["mu"].verdict == "fail" and by_id["mu"].detail == [message]
    assert by_id["lambda"].verdict == "fail" and by_id["lambda"].detail == [message]
    assert by_id["generalized"].verdict == "pass"


def test_residual_strings_reparse_to_the_same_form():
    report = run(load_problem(REGRESSION))
    std = next(r for r in report.records if r.task_id == "std")
    for text in std.residuals:
        assert parse(text) == parse("-(1+x^2)")


def test_on_equation_compat_through_cli_layer():
    report = run(load_problem(PDE_COMPAT))
    by_id = {r.task_id: r for r in report.records}
    assert by_id["global"].verdict == "fail"
    assert by_id["restricted"].verdict == "pass"


def test_inconsistent_mu_prolongation_fails_the_task():
    report = run(load_problem(PATHS))
    rec = report.records[0]
    assert rec.verdict == "fail"
    assert any("disagree" in d for d in rec.detail)


def test_json_report_is_deterministic(tmp_path):
    f = tmp_path / "problem.jsf"
    f.write_text(REGRESSION)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["--json", str(out1), "run-file", str(f)]) == 1
    assert main(["--json", str(out2), "run-file", str(f)]) == 1
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["seed"] == 1013904223
    assert [t["verdict"] for t in doc["tasks"]] == ["pass", "fail"]


def test_single_operation_subcommands(tmp_path, capsys):
    f = tmp_path / "problem.jsf"
    f.write_text(REGRESSION)
    code = main(["check-symmetry", str(f), "--field", "S", "--equation", "E",
                 "--kind", "lambda", "--lam", "x"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[pass]" in out

    code = main(["prolong", str(f), "--field", "S", "--kind", "lambda",
                 "--lam", "u", "--order", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Psi[u] = 1" in out
    assert "Psi[u_x] = u" in out
    assert "Psi[u_xx] = u^2 + u_x" in out


def test_gauge_and_potential_subcommands(tmp_path, capsys):
    text = """
[jet]
independent = x
dependent = u
order = 1

[field W]
xi x = 0
phi u = 1

[mu M]
x = 1

[task potential pot]
mu = M

[task gauge-check gc]
field = W
phi = x
"""
    f = tmp_path / "p.jsf"
    f.write_text(text)
    assert main(["run-file", str(f)]) == 0
    out = capsys.readouterr().out
    assert "potential = x" in out
    assert "[pass] gc" in out


def test_darboux_task(tmp_path, capsys):
    text = """
[jet]
independent = x
dependent = u, v
order = 1

[gauge G]
u u = 1
u v = u
v v = 1

[task darboux d]
gauge = G
"""
    f = tmp_path / "p.jsf"
    f.write_text(text)
    assert main(["run-file", str(f)]) == 0
    out = capsys.readouterr().out
    assert "Lambda[x][u,v] = u_x" in out


def test_coincide_task_vacuous_flag():
    text = """
[jet]
independent = x
dependent = u
order = 1

[field V]
xi x = 0
phi u = 1

[mu M]
x = u

[task coincide c]
field = V
mu = M
"""
    report = run(load_problem(text))
    assert report.records[0].verdict == "vacuous-pass"
    assert report.exit_code == 0
    strict = run(load_problem(text), strict=True)
    assert strict.exit_code == 1


def test_input_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.jsf"
    bad.write_text("[jet]\nindependent = x\ndependent = u\norder = 1\n[task frobnicate]\n")
    assert main(["run-file", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "unknown task kind" in err

    missing_name = tmp_path / "missing.jsf"
    missing_name.write_text(
        "[jet]\nindependent = x\ndependent = u\norder = 1\n"
        "[task prolong]\nfield = NOPE\n"
    )
    assert main(["run-file", str(missing_name)]) == 2

    assert main(["run-file", str(tmp_path / "absent.jsf")]) == 2


def test_undecodable_problem_file_exits_two(tmp_path, capsys):
    # a byte that is not UTF-8 used to end in a UnicodeDecodeError traceback
    problem = tmp_path / "latin.jsf"
    problem.write_bytes(REGRESSION.encode() + b"# \xff\n")
    assert main(["run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    assert f"input error: cannot read {problem}: " in err and "0xff" in err


@pytest.mark.parametrize("target", ["absent/r.json", "."], ids=["no-directory", "a-directory"])
def test_unwritable_json_path_exits_two(tmp_path, capsys, target):
    # both used to end in a traceback once every task had run
    problem = tmp_path / "problem.jsf"
    problem.write_text(REGRESSION)
    path = tmp_path / target
    assert main(["--json", str(path), "run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {path}: ")


@pytest.mark.parametrize("argv, message", [
    (["check-compat", "--mu", "NOPE"], "--mu: undeclared mu form 'NOPE'"),
    (["prolong", "--field", "NOPE"], "--field: undeclared field 'NOPE'"),
    (["check-symmetry", "--field", "S", "--equation", "NOPE"],
     "--equation: undeclared equation 'NOPE'"),
    (["check-symmetry", "--field", "S", "--equation", "E", "--kind", "lambda",
      "--lam", "x +* 2"], "--lam: bad expression 'x +* 2'"),
], ids=["mu", "field", "equation", "lam"])
def test_single_task_errors_name_the_flag(tmp_path, capsys, argv, message):
    # a single-operation task used to cite "line 0" of the problem file
    problem = tmp_path / "problem.jsf"
    problem.write_text(REGRESSION)
    assert main([argv[0], str(problem)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {message}") and "line 0" not in err


def test_undeclared_name_in_a_task_cites_its_argument_line(tmp_path, capsys):
    # the line of ``equation = NOPE``, not the task's header line
    text = REGRESSION.replace("equation = E\nkind = standard", "equation = NOPE\nkind = standard")
    problem = tmp_path / "problem.jsf"
    problem.write_text(text)
    assert main(["run-file", str(problem)]) == 2
    line = text.splitlines().index("equation = NOPE") + 1
    assert f"input error: line {line}: undeclared equation 'NOPE'" in capsys.readouterr().err


@pytest.mark.parametrize("task", [
    "[task prolong p]\nfield = S\norder = abc\n",
    "[task gauge-check g]\nfield = S\nphi = x\norder = 2.5\n",
    "[task coincide c]\nfield = S\nmu = M\norder = two\n",
], ids=["prolong", "gauge-check", "coincide"])
def test_non_integer_task_order_exits_two(tmp_path, capsys, task):
    problem = tmp_path / "order.jsf"
    problem.write_text(
        "[jet]\nindependent = x\ndependent = u\norder = 1\n"
        "[field S]\nxi x = 0\nphi u = 1\n[mu M]\nx = u\n" + task
    )
    assert main(["run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    order_line = 9 + task.count("\n")  # last line, after 9 declaration lines
    assert f"line {order_line}: " in err and "order must be an integer" in err


def _nested_field(phi):
    return (
        "[jet]\nindependent = x\ndependent = u\norder = 2\n"
        f"[field F]\nxi x = 0\nphi u = {phi}\n"
        "[task prolong p]\nfield = F\norder = 1\n"
    )


def test_deeply_nested_field_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.jsf"
    deep.write_text(_nested_field("(" * 3000 + "u" + ")" * 3000))
    assert main(["run-file", str(deep)]) == 2
    err = capsys.readouterr().err
    assert "line 7" in err and "nested more than" in err


def test_nested_exp_field_at_the_limit_prolongs(tmp_path, capsys):
    phi = "u"
    for _ in range(MAX_NESTING):
        phi = f"exp({phi})"
    problem = tmp_path / "limit.jsf"
    problem.write_text(_nested_field(phi))
    out = tmp_path / "report.json"
    assert main(["--json", str(out), "run-file", str(problem)]) == 0
    capsys.readouterr()
    record = json.loads(out.read_text())["tasks"][0]
    assert record["verdict"] == "pass"
    assert record["detail"][-1].startswith("Psi[u_x] = ")


@pytest.mark.parametrize("phi", ["x^\u00b2", "x\u00b2", "x\u00e9", "\u0663*x"])
def test_non_ascii_literal_exits_two_without_a_traceback(tmp_path, phi):
    problem = tmp_path / "unicode.jsf"
    problem.write_text(_nested_field(phi), encoding="utf-8")
    proc = run_python(["-m", "jetsym.cli", "run-file", str(problem)], timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "line 7: bad expression" in proc.stderr
    assert "unexpected character" in proc.stderr


def test_overlong_integer_literal_exits_two_without_a_traceback(tmp_path):
    # int() of more than 4300 digits raises ValueError, which is no input error
    problem = tmp_path / "long.jsf"
    problem.write_text(_nested_field("x + " + "1" * 5000))
    proc = run_python(["-m", "jetsym.cli", "run-file", str(problem)], timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "line 7: bad expression" in proc.stderr
    assert "4300-digit limit" in proc.stderr


# literals within the digit limit whose lift prints past it: 10^8000 is a
# coefficient of Psi[u_x] in the lambda lift, not in the standard one
OVERSIZED = """[jet]
independent = x
dependent = u
order = 1
[field F]
xi x = 10^4000*u
phi u = u
[task prolong big]
field = F
kind = lambda
lambda = 10^4000
[task prolong plain]
field = F
"""


def test_oversized_coefficient_is_unverifiable_without_a_traceback(tmp_path):
    # str() of the coefficient raised ValueError, and the run ended in a
    # traceback with no report for any task
    problem = tmp_path / "big.jsf"
    problem.write_text(OVERSIZED)
    out = tmp_path / "report.json"
    proc = run_python(["-m", "jetsym.cli", "--json", str(out), "run-file", str(problem)],
                      timeout=60)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    big, plain = json.loads(out.read_text())["tasks"]
    assert big["verdict"] == "unverifiable" and big["residuals"] == []
    assert big["detail"] == ["budget: an integer to print is over the 4300-digit limit"]
    assert plain["verdict"] == "pass"
    assert "[unverifiable] big (prolong, " in proc.stdout
    strict = run_python(["-m", "jetsym.cli", "--strict", "run-file", str(problem)], timeout=60)
    assert strict.returncode == 1
    assert "Traceback" not in strict.stderr


def test_problem_file_errors_carry_lines():
    with pytest.raises(ProblemFileError) as err:
        load_problem("[jet]\nindependent = x\ndependent = u\norder = 1\nboom\n")
    assert "line 5" in str(err.value)

    with pytest.raises(ProblemFileError):
        load_problem("x = 1\n")

    with pytest.raises(ProblemFileError):
        load_problem(
            "[jet]\nindependent = x\ndependent = u\norder = 1\n"
            "[field F]\nxi t = 1\n"
        )


def test_strict_escalates_probably(tmp_path):
    # a symmetry residual with kernels that only vanishes numerically
    text = """
[jet]
independent = x
dependent = u
order = 1

[field T]
xi x = 0
phi u = 1

[equation E]
u_x = (sin(x)^2 + cos(x)^2 - 1)*u

[task check-symmetry s]
field = T
equation = E
kind = standard
"""
    report = run(load_problem(text))
    assert report.records[0].verdict == "probably-pass"
    assert report.exit_code == 0
    assert run(load_problem(text), strict=True).exit_code == 1


@pytest.mark.parametrize("kind", ["standard", "lambda", "mu"])
@pytest.mark.parametrize("order", [0, -1])
def test_prolong_order_below_one_fails(kind, order):
    extra = {"standard": "", "lambda": "lambda = x\n", "mu": "mu = M\n"}[kind]
    text = (
        "[jet]\nindependent = x\ndependent = u\norder = 1\n"
        "[field S]\nxi x = 0\nphi u = 1\n[mu M]\nx = u\n"
        f"[task prolong p]\nfield = S\nkind = {kind}\n{extra}order = {order}\n"
    )
    record = run(load_problem(text)).records[0]
    assert record.verdict == "fail"
    assert record.detail == ["error: prolongation order must be at least 1"]


FLAGS = """[jet]
independent = x, t
dependent = u
order = 2
[field V]
xi x = 0
xi t = 0
phi u = 1
generalized = {generalized}
[mu BAD]
x = u
t = 0
[task prolong p]
field = V
kind = mu
mu = BAD
path-check = {path_check}
"""


@pytest.mark.parametrize("text, value", [
    ("true", True), ("Yes", True), ("1", True), ("on", True),
    ("false", False), ("NO", False), ("0", False), ("off", False),
])
def test_problem_file_flags_share_one_vocabulary(text, value):
    problem = load_problem(FLAGS.format(generalized=text, path_check=text))
    assert problem.named("field", "V").generalized is value
    # the form is not closed: with the path check the recursion edges
    # disagree, without it the flatness check refuses the form
    record = run(problem).records[0]
    assert record.verdict == "fail"
    assert record.detail[0].startswith("error: recursion paths disagree") is value


@pytest.mark.parametrize("key, line", [("generalized", 9), ("path-check", 17)])
def test_unknown_flag_value_exits_two(tmp_path, capsys, key, line):
    values = {"generalized": "true", "path_check": "true"}
    values[key.replace("-", "_")] = "maybe"
    problem = tmp_path / "flags.jsf"
    problem.write_text(FLAGS.format(**values))
    assert main(["run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    assert f"line {line}: " in err and "'maybe'" in err


KINDS = """[jet]
independent = x
dependent = u
order = 2
[field S]
xi x = 0
phi u = 1
[equation E]
u_xx = u
[mu M]
x = 1
[task {task} t]
field = S
equation = E
kind = {kind}
{needed}
{stray}
"""
NEEDED = {"standard": "# reads nothing more", "lambda": "lambda = x", "mu": "mu = M"}


@pytest.mark.parametrize("task", ["prolong", "check-symmetry"])
@pytest.mark.parametrize("kind, stray", [
    ("standard", "mu = M"),
    ("standard", "mu = NOSUCH"),
    ("standard", "path-check = true"),
    ("standard", "path-check = false"),
    ("standard", "lambda = x"),
    ("lambda", "mu = M"),
    ("lambda", "path-check = true"),
    ("mu", "lambda = x"),
])
def test_argument_of_another_kind_exits_two(tmp_path, capsys, task, kind, stray):
    text = KINDS.format(task=task, kind=kind, needed=NEEDED[kind], stray=stray)
    if task == "prolong":
        text = text.replace("equation = E\n", "")
    lines = text.splitlines()
    problem = tmp_path / "kinds.jsf"
    problem.write_text(text)
    assert main(["run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    name = stray.split(" = ")[0]
    assert f"line {lines.index(stray) + 1}: " in err and f"{name!r}" in err


@pytest.mark.parametrize("argv", [
    ["prolong", "--field", "S", "--mu", "M"],
    ["prolong", "--field", "S", "--path-check"],
    ["prolong", "--field", "S", "--kind", "mu", "--mu", "M", "--lam", "x"],
    ["check-symmetry", "--field", "S", "--equation", "E", "--lam", "x"],
    ["check-symmetry", "--field", "S", "--equation", "E", "--kind", "lambda",
     "--lam", "x", "--path-check"],
])
def test_flag_of_another_kind_exits_two(tmp_path, capsys, argv):
    problem = tmp_path / "kinds.jsf"
    problem.write_text(KINDS.format(task="prolong", kind="standard", needed="", stray=""))
    assert main([argv[0], str(problem)] + argv[1:]) == 2
    assert "belongs to kind" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["prolong", "--order", "1"], "--field: task 'prolong' needs argument 'field'"),
    (["check-symmetry", "--field", "S"],
     "--equation: task 'check-symmetry' needs argument 'equation'"),
    (["prolong", "--field", "S", "--kind", "bogus"],
     "--kind: task 'prolong': unknown prolongation kind 'bogus'"),
    (["prolong", "--field", "S", "--order", "x"],
     "--order: task 'prolong': order must be an integer, got 'x'"),
    (["prolong", "--field", "S", "--kind", "lambda"],
     "--lam: kind=lambda needs a 'lambda =' argument"),
    (["check-symmetry", "--field", "S", "--equation", "E", "--kind", "mu"],
     "--mu: kind=mu needs a 'mu =' argument"),
], ids=["missing-field", "missing-equation", "kind", "order", "missing-lam", "missing-mu"])
def test_subcommand_flag_errors_name_the_flag(tmp_path, capsys, argv, message):
    # a subcommand's task stands at no line, so even a missing argument is
    # cited at its flag
    problem = tmp_path / "kinds.jsf"
    problem.write_text(KINDS.format(task="prolong", kind="standard", needed="", stray=""))
    assert main([argv[0], str(problem)] + argv[1:]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {message}")


DECLARED = """[jet]
independent = x
dependent = u
order = 1
[field S]
xi x = 0
phi u = 1
[equation E]
u_x = u
[mu M]
x = u
[gauge G]
u u = 1
"""
# a good value of each argument that some task kind requires
GIVEN = {"field": "S", "equation": "E", "mu": "M", "gauge": "G", "phi": "x*u"}
REQUIRED = [(kind, name) for kind, names in TASK_ARGS.items()
            for name, required in names.items() if required]


@pytest.mark.parametrize("kind, missing", REQUIRED, ids=[f"{k}-{n}" for k, n in REQUIRED])
def test_missing_required_argument_exits_two(tmp_path, capsys, kind, missing):
    # every other required argument is given; the task stands at line 14
    given = [n for n, required in TASK_ARGS[kind].items() if required and n != missing]
    problem = tmp_path / "required.jsf"
    problem.write_text(DECLARED + f"[task {kind} t]\n"
                       + "".join(f"{n} = {GIVEN[n]}\n" for n in given))
    assert main(["run-file", str(problem)]) == 2
    assert capsys.readouterr().err == (
        f"input error: line 14: task 't' needs argument {missing!r}\n")
    assert main([kind, str(problem)] + [f"--{n}={GIVEN[n]}" for n in given]) == 2
    assert capsys.readouterr().err == (
        f"input error: --{missing}: task {kind!r} needs argument {missing!r}\n")


@pytest.mark.parametrize("task, message", [
    # a missing argument before an unknown one
    ("prolong t]\nfeild = S", "line 14: task 't' needs argument 'field'"),
    # arguments in reading order: field before equation
    ("check-symmetry t]\nfield = NOPE", "line 15: undeclared field 'NOPE'"),
    ("check-symmetry t]\nequation = NOPE", "line 14: task 't' needs argument 'field'"),
    # prolong reads path-check before order, coincide order before path-check
    ("prolong t]\nfield = S\norder = x\nkind = mu\nmu = M\npath-check = maybe",
     "line 19: expected true/yes/1/on or false/no/0/off, got 'maybe'"),
    ("coincide t]\nfield = S\nmu = M\npath-check = maybe\norder = x",
     "line 18: task 't': order must be an integer, got 'x'"),
    # the argument a kind needs before a malformed flag
    ("prolong t]\nfield = S\nkind = mu\npath-check = maybe",
     "line 14: kind=mu needs a 'mu =' argument"),
    # a stray argument of another kind before a malformed expression
    ("check-symmetry t]\nfield = S\nequation = E\nkind = lambda\nlambda = (x\nmu = M",
     "line 19: task 't': argument 'mu' belongs to kind = mu, not kind = lambda"),
], ids=["missing-then-unknown", "undeclared-then-missing", "missing-then-undeclared",
        "prolong-flag-then-order", "coincide-order-then-flag", "needed-then-flag",
        "stray-then-expression"])
def test_first_of_two_faults_is_reported(tmp_path, capsys, task, message):
    problem = tmp_path / "faults.jsf"
    problem.write_text(DECLARED + f"[task {task}\n")
    assert main(["run-file", str(problem)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("digits", ["\u0663", "1_0", "\uff13", "2\u00b2"],
                         ids=["arabic-indic", "underscore", "fullwidth", "superscript"])
def test_order_is_ascii_digits(tmp_path, capsys, digits):
    # int() reads the first three (the jet order 3, a task order 10)
    problem = tmp_path / "order.jsf"
    problem.write_text(DECLARED.replace("order = 1", f"order = {digits}"), encoding="utf-8")
    assert main(["run-file", str(problem)]) == 2
    assert capsys.readouterr().err == "input error: line 4: order must be an integer\n"
    problem.write_text(DECLARED + f"[task prolong p]\nfield = S\norder = {digits}\n",
                       encoding="utf-8")
    assert main(["run-file", str(problem)]) == 2
    assert capsys.readouterr().err == (
        f"input error: line 16: task 'p': order must be an integer, got {digits!r}\n")
    assert main(["prolong", str(problem), "--field", "S", "--order", digits]) == 2
    assert capsys.readouterr().err == (
        f"input error: --order: task 'prolong': order must be an integer, got {digits!r}\n")


def test_signed_ascii_order_reads():
    problem = load_problem("[jet]\nindependent = x\ndependent = u\norder = +3\n"
                           "[field S]\nxi x = 0\nphi u = 1\n"
                           "[task prolong p]\nfield = S\norder = +2\n")
    assert problem.spec.order == 3
    assert run(problem).records[0].detail[-1] == "Psi[u_xx] = 0"


@pytest.mark.parametrize("task", ["prolong", "check-symmetry"])
@pytest.mark.parametrize("kind", ["lambda", "mu"])
def test_missing_argument_of_the_kind_exits_two(tmp_path, capsys, task, kind):
    text = KINDS.format(task=task, kind=kind, needed="", stray="")
    if task == "prolong":
        text = text.replace("equation = E\n", "")
    problem = tmp_path / "kinds.jsf"
    problem.write_text(text)
    assert main(["run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    assert "line 12: " in err and f"kind={kind} needs a '{kind} =' argument" in err


def test_unknown_symmetry_kind_exits_two(tmp_path, capsys):
    text = KINDS.format(task="check-symmetry", kind="nosuch", needed="", stray="")
    problem = tmp_path / "kinds.jsf"
    problem.write_text(text)
    assert main(["run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    assert "line 15: " in err and "'nosuch'" in err


EXPRESSION_ARGS = """[jet]
independent = x
dependent = u
order = 2
[field S]
xi x = 0
phi u = 1
[equation E]
u_xx = u
[task {task} t]
field = S
{args}
"""


@pytest.mark.parametrize("task, args", [
    ("prolong", "kind = lambda\nlambda = x +* 2"),
    ("check-symmetry", "equation = E\nkind = lambda\nlambda = x +* 2"),
    ("check-symmetry", "equation = E\nkind = lambda\nlambda = 1/(x - x)"),
    ("gauge-check", "phi = (x"),
], ids=["prolong", "check-symmetry", "check-symmetry-zero-divisor", "gauge-check"])
def test_malformed_expression_argument_exits_two(tmp_path, capsys, task, args):
    text = EXPRESSION_ARGS.format(task=task, args=args)
    problem = tmp_path / "args.jsf"
    problem.write_text(text)
    assert main(["run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    line = text.splitlines().index(args.splitlines()[-1]) + 1
    assert f"line {line}: bad expression" in err


@pytest.mark.parametrize("argv", [
    ["prolong", "--field", "S", "--kind", "lambda", "--lam", "x +* 2"],
    ["check-symmetry", "--field", "S", "--equation", "E", "--kind", "lambda",
     "--lam", "x +* 2"],
    ["gauge-check", "--field", "S", "--phi", "(x"],
])
def test_malformed_expression_flag_exits_two(tmp_path, capsys, argv):
    problem = tmp_path / "args.jsf"
    problem.write_text(EXPRESSION_ARGS.format(task="prolong", args=""))
    assert main([argv[0], str(problem)] + argv[1:]) == 2
    assert "bad expression" in capsys.readouterr().err


def test_zero_divisor_in_a_section_exits_two(tmp_path, capsys):
    problem = tmp_path / "zero.jsf"
    problem.write_text(EXPRESSION_ARGS.format(task="prolong", args="").replace(
        "xi x = 0", "xi x = 1/(x - x)"))
    assert main(["run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    assert "line 6: bad expression" in err and "zero" in err


DECLARATIONS = """[jet]
independent = t, x
dependent = u
order = 2
[field S]
xi x = 0
phi u = 1
[mu M]
x = u
[gauge G]
u u = 1
[equation E]
u_xx = u
"""
# u_xt with t declared before x: the message of every declaration that names it
MISSPELT = ("'u_xt' is not a jet coordinate of this space "
            "(suffix must repeat independent names in declaration order)")


@pytest.mark.parametrize("kind, patch, edit", [
    # a constructor that raises
    pytest.param("field", (problemfile, "PointVectorField"), None,
                 id="field-jetsym.problemfile-PointVectorField"),
    pytest.param("mu", (MuForm, "scalar"), None, id="mu-MuForm-scalar"),
    pytest.param("gauge", (problemfile, "GaugeFunction"), None,
                 id="gauge-jetsym.problemfile-GaugeFunction"),
    pytest.param("equation", (DifferentialEquation, "from_strings"), None,
                 id="equation-DifferentialEquation-from_strings"),
    # a misspelled jet coordinate, whether or not a task reads the declaration
    pytest.param("field", None, ("phi u = 1", "phi u = u_xt"), id="field-misspelt"),
    pytest.param("field", None, ("phi u = 1", "generalized = true\nphi u = u_xt"),
                 id="generalized-field-misspelt"),
    pytest.param("mu", None, ("[mu M]\nx = u", "[mu M]\nx = u_xt"), id="mu-misspelt"),
    pytest.param("gauge", None, ("u u = 1", "u u = exp(u_xt)\ninverse u u = exp(-u_xt)"),
                 id="gauge-misspelt"),
    pytest.param("equation", None, ("u_xx = u", "u_xx = u_xt"), id="equation-misspelt"),
])
def test_a_failing_constructor_exits_two_at_its_section(tmp_path, capsys, monkeypatch,
                                                         kind, patch, edit):
    def boom(*args, **kwargs):
        raise JetError("boom")

    text = DECLARATIONS
    if patch is None:
        assert text.count(edit[0]) == 1
        text = text.replace(*edit)
        message = MISSPELT
    else:
        monkeypatch.setattr(*patch, boom)
        message = "boom"
    problem = tmp_path / "declared.jsf"
    problem.write_text(text)
    assert main(["run-file", str(problem)]) == 2
    line = next(k for k, entry in enumerate(text.splitlines(), 1)
                if entry.startswith(f"[{kind} "))
    assert capsys.readouterr().err == f"input error: line {line}: {message}\n"


REPEATS = """[jet]
independent = x
dependent = u
order = 2
[field S]
xi x = 0
phi u = 1
[mu M]
x = u
[gauge G]
u u = 1
[task prolong p]
field = S
order = 1
"""


@pytest.mark.parametrize("after, repeat", [
    ("xi x = 0", "xi  x = x"),
    ("phi u = 1", "phi u = u"),
    ("x = u", "x = 1"),
    ("u u = 1", "u u = 2"),
    ("order = 1", "order = 2"),
    ("field = S", "field = S"),
], ids=["field-xi", "field-phi", "mu", "gauge", "task-order", "task-field"])
def test_repeated_key_exits_two(tmp_path, capsys, after, repeat):
    text = REPEATS.replace(after + "\n", f"{after}\n{repeat}\n")
    problem = tmp_path / "repeat.jsf"
    problem.write_text(text)
    assert main(["run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    line = text.splitlines().index(after) + 2
    assert f"line {line}: duplicate key" in err


@pytest.mark.parametrize("header, extended, message", [
    ("[task prolong p]", "[task prolong p extra]", "at most one id"),
    ("[jet]", "[jet extra]", "[jet] takes no name"),
], ids=["task", "jet"])
def test_extra_header_word_exits_two(tmp_path, capsys, header, extended, message):
    text = REPEATS.replace(header, extended)
    problem = tmp_path / "header.jsf"
    problem.write_text(text)
    assert main(["run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    line = text.splitlines().index(extended) + 1
    assert f"line {line}: " in err and message in err


def test_id_line_in_a_task_exits_two(tmp_path, capsys):
    # the header names a task; an id line used to rename it silently
    text = REPEATS.replace("order = 1", "order = 1\nid = q")
    problem = tmp_path / "id.jsf"
    problem.write_text(text)
    assert main(["run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    line = text.splitlines().index("id = q") + 1
    assert f"line {line}: " in err and "named in its header" in err


def test_unknown_jet_key_exits_two(tmp_path, capsys):
    # a misspelt key next to the real one used to be ignored
    text = REPEATS.replace("order = 2", "ordr = 3\norder = 2")
    problem = tmp_path / "jet.jsf"
    problem.write_text(text)
    assert main(["run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    line = text.splitlines().index("ordr = 3") + 1
    assert f"line {line}: unknown [jet] key 'ordr'" in err
    assert "independent, dependent and order" in err


@pytest.mark.parametrize("first, second", [
    ("[task prolong p]", "[task prolong p]"),
    ("[task prolong]", "[task prolong task-1]"),
    ("[task prolong task-2]", "[task prolong]"),
], ids=["given", "given-after-generated", "generated-after-given"])
def test_repeated_task_id_exits_two(tmp_path, capsys, first, second):
    task = "\nfield = S\norder = 1\n"
    text = REPEATS[:REPEATS.index("[task")] + first + task + second + task
    problem = tmp_path / "ids.jsf"
    problem.write_text(text)
    assert main(["run-file", str(problem)]) == 2
    err = capsys.readouterr().err
    line = text.splitlines().index(second, text.splitlines().index(first) + 1) + 1
    assert f"line {line}: duplicate task id" in err


def test_distinct_given_and_generated_ids_load():
    task = "\nfield = S\norder = 1\n"
    text = REPEATS[:REPEATS.index("[task")] + "".join(
        header + task for header in ("[task prolong]", "[task prolong p]", "[task prolong]")
    )
    ids = [t.task_id for t in load_problem(text).tasks]
    assert ids == ["task-1", "p", "task-3"]


# --- the cyclic collector ----------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"
BARE = "[jet]\nindependent = x\ndependent = u\norder = 1\n"


@pytest.fixture
def collector():
    """Puts the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_a_run_makes_no_cycles_of_its_own(tmp_path, capsys, collector):
    """``main`` holds the cyclic collector off because jetsym's values form
    no reference cycles: what any run leaves to the collector is what
    argparse and json leave on a problem without tasks."""
    out = str(tmp_path / "report.json")
    bare = tmp_path / "bare.jsf"
    bare.write_text(BARE)
    gc.disable()

    def unreachable_after(problem):
        gc.collect()
        main(["--json", out, "run-file", str(problem)])
        return gc.collect()

    unreachable_after(bare)  # a first call's one-time set-up is not garbage
    baseline = unreachable_after(bare)
    for problem in sorted(GOLDEN.glob("*.jsf")):
        assert unreachable_after(problem) == baseline, problem.name
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, code", [
    (["run-file", str(GOLDEN / "pde.jsf")], 0),
    (["run-file", str(GOLDEN / "ode.jsf")], 1),
    (["run-file", str(GOLDEN / "absent.jsf")], 2),
    (["run-file"], SystemExit),
], ids=["exit-0", "exit-1", "exit-2", "raises"])
def test_main_leaves_the_collector_as_it_found_it(capsys, collector, enabled, argv, code):
    (gc.enable if enabled else gc.disable)()
    if code is SystemExit:
        with pytest.raises(SystemExit):
            main(argv)
    else:
        assert main(argv) == code
    assert gc.isenabled() is enabled
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_library_leaves_the_collector_alone(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    problem = load_problem(REGRESSION)
    assert run(problem).exit_code == 1
    lift(problem.named("field", "S"), n=2)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("state", ["enable", "disable"])
def test_importing_the_command_line_leaves_the_collector_alone(state):
    proc = run_python(["-c", f"import gc; gc.{state}(); import jetsym.cli; "
                             "print(gc.isenabled())"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(state == "enable")]
