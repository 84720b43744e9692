"""Problem-file and CLI tests: parsing, dispatch, reports, exit codes."""

import json

import pytest

from jetsym.cli import main, run
from jetsym.errors import ProblemFileError
from jetsym.expr import normalize
from jetsym.parsing import MAX_NESTING, parse
from jetsym.problemfile import load_problem

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
    assert "S" in problem.fields
    assert "E" in problem.equations
    assert [t.task_id for t in problem.tasks] == ["lam", "std"]


def test_run_regression_tasks():
    report = run(load_problem(REGRESSION))
    by_id = {r.task_id: r for r in report.records}
    assert by_id["lam"].verdict == "pass"
    assert by_id["std"].verdict == "fail"
    assert by_id["std"].residuals == ["-1 - x^2"]
    assert report.exit_code == 1  # the standard check is supposed to fail


def test_residual_strings_reparse_to_the_same_form():
    report = run(load_problem(REGRESSION))
    std = next(r for r in report.records if r.task_id == "std")
    for text in std.residuals:
        assert normalize(parse(text)) == parse("-(1+x^2)")


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
    assert "Psi[u_xx] = u_x + u^2" in out


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
