"""Batch frontend.

Subcommands: run-file, which executes the [task] sections of a problem
file, and one per task kind (check-symmetry, prolong, check-compat,
potential, darboux, gauge-check, coincide), which runs one task of that
kind on the declarations of a problem file.  A subcommand's flags are
its task's arguments, as listed in ``problemfile.TASK_ARGS`` (``--lam``
gives ``lambda``, a bare ``--path-check`` gives ``path-check = true``),
and are checked by the same rules, with the flag cited in place of a
line.  Exit codes: 0 all tasks passed, 1 at least one task failed, 2
invalid input.

Verdict vocabulary of task records (closed): pass, fail, probably-pass,
vacuous-pass, unverifiable.  With --strict everything except a plain
pass fails the run.  Randomized zero tests derive from --seed (default
fixed), and the seed is recorded in the report; the machine-readable
report (--json) contains no wall-clock fields, so identical inputs and
seed give byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import JetsymError, ProblemFileError
from .expr import DEFAULT_SEED, ZERO, Verdict, to_string
from .gauge import (
    darboux_derivative,
    maurer_cartan_check_on_equation,
    scalar_potential,
    verify_gauge_equivalence_scalar,
)
from .problemfile import (
    TASK_ARGS,
    ProblemFile,
    TaskDecl,
    _parse_expr,
    load_problem,
    parse_flag,
)
from .prolong import lambda_form, lift, maurer_cartan_check
from .symmetry import check_symmetry, coincide_on_invariant_set

PASS = "pass"
FAIL = "fail"
PROBABLY = "probably-pass"
VACUOUS = "vacuous-pass"
UNVERIFIABLE = "unverifiable"


class TaskRecord:
    __slots__ = ("task_id", "operation", "verdict", "residuals", "detail", "duration")

    def __init__(self, task_id, operation, verdict, residuals, detail, duration=0.0):
        self.task_id = task_id
        self.operation = operation
        self.verdict = verdict
        self.residuals = residuals
        self.detail = detail
        self.duration = duration


class Report:
    __slots__ = ("seed", "strict", "records")

    def __init__(self, seed, strict):
        self.seed = seed
        self.strict = strict
        self.records = []

    def counts_as_failure(self, record: TaskRecord) -> bool:
        if record.verdict == FAIL:
            return True
        return self.strict and record.verdict != PASS

    @property
    def exit_code(self) -> int:
        return 1 if any(self.counts_as_failure(r) for r in self.records) else 0

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "strict": self.strict,
            "tasks": [
                {
                    "id": r.task_id,
                    "operation": r.operation,
                    "verdict": r.verdict,
                    "residuals": list(r.residuals),
                    "detail": list(r.detail),
                }
                for r in self.records
            ],
        }

    def render_text(self) -> str:
        lines = [f"seed {self.seed}" + (" (strict)" if self.strict else "")]
        for r in self.records:
            lines.append(
                f"[{r.verdict}] {r.task_id} ({r.operation}, {r.duration:.3f}s)"
            )
            for d in r.detail:
                lines.append(f"    {d}")
            for res in r.residuals:
                lines.append(f"    residual: {res}")
        n_fail = sum(1 for r in self.records if self.counts_as_failure(r))
        lines.append(
            f"{len(self.records)} task(s), {n_fail} failure(s)"
        )
        return "\n".join(lines)


# the word of a check's verdict
_WORDS = {Verdict.TRUE: PASS, Verdict.FALSE: FAIL, Verdict.PROBABLY: PROBABLY}


# the arguments that only some kinds of prolongation read, per kind
_KIND_ARGS = {"standard": (), "lambda": ("lambda",), "mu": ("mu", "path-check")}


def _flag(name):
    """The subcommand flag of task argument ``name``."""
    return "--lam" if name == "lambda" else f"--{name}"


class _Args:
    """Task argument accessor with typo detection."""

    def __init__(self, problem: ProblemFile, task: TaskDecl):
        self.problem = problem
        self.task = task

    def missing_at(self, name):
        """Where a missing argument ``name`` is cited: at its task's line,
        or at its flag for a subcommand, whose task stands at no line."""
        return _flag(name) if self.task.line is None else self.task.line

    def get(self, name, default=None, required=False):
        if name in self.task.args:
            return self.task.args[name][0]
        if required:
            raise ProblemFileError(
                f"task {self.task.task_id!r} needs argument {name!r}",
                self.missing_at(name),
            )
        return default

    def named(self, name, required=True):
        """The declaration that argument ``name`` names, in the section
        kind of the same name: an undeclared name is an error at the
        argument's own line."""
        text = self.get(name, required=required)
        if text is None:
            return None
        return self.problem.named(name, text, self.task.args[name][1])

    def get_int(self, name, default):
        text = self.get(name)
        if text is None:
            return default
        try:
            return int(text)
        except ValueError:
            raise ProblemFileError(
                f"task {self.task.task_id!r}: {name} must be an integer, "
                f"got {text!r}", self.task.args[name][1]
            ) from None

    def get_flag(self, name):
        text = self.get(name)
        return text is not None and parse_flag(text, self.task.args[name][1])

    def get_expr(self, name, required=False):
        """An expression argument, parsed like a section expression: a
        malformed one is invalid input at its own line."""
        text = self.get(name, required=required)
        return None if text is None else _parse_expr(text, self.task.args[name][1])

    def get_prolongation(self):
        """Lambda, mu form and path-check flag of a prolong or
        check-symmetry task; lambda is None unless kind = lambda, and mu
        unless kind = mu.  An argument that only other kinds read is an
        error at its own line, not silently dropped; one that the kind
        needs and that is missing is an error at the task (at its flag,
        for a subcommand)."""
        kind = self.get("kind", default="standard")
        if kind not in _KIND_ARGS:
            raise ProblemFileError(
                f"task {self.task.task_id!r}: unknown prolongation kind {kind!r}; "
                f"expected one of {', '.join(_KIND_ARGS)}",
                self.task.args["kind"][1],
            )
        for other, names in _KIND_ARGS.items():
            for name in names:
                if name in self.task.args and name not in _KIND_ARGS[kind]:
                    raise ProblemFileError(
                        f"task {self.task.task_id!r}: argument {name!r} belongs "
                        f"to kind = {other}, not kind = {kind}",
                        self.task.args[name][1],
                    )
        lam = self.get_expr("lambda")
        mu = self.named("mu", required=False)
        if (kind == "lambda" and lam is None) or (kind == "mu" and mu is None):
            raise ProblemFileError(
                f"kind={kind} needs a '{kind} =' argument", self.missing_at(kind)
            )
        return lam, mu, self.get_flag("path-check")

    def finish(self):
        extra = set(self.task.args).difference(TASK_ARGS[self.task.kind])
        if extra:
            raise ProblemFileError(
                f"task {self.task.task_id!r} has unknown argument(s) "
                f"{sorted(extra)}", self.task.line
            )


def _field_detail(Y, spec):
    lines = []
    for i, name in enumerate(spec.independent):
        lines.append(f"xi[{name}] = {to_string(Y.xi[i])}")
    for J in spec.multi_indices(Y.order):
        for a in range(spec.q):
            lines.append(
                f"Psi[{spec.jet_name(a, J)}] = {to_string(Y.psi_at(a, J))}"
            )
    return lines


def _mu_detail(mu):
    spec = mu.spec
    lines = []
    for i, name in enumerate(spec.independent):
        for a in range(spec.q):
            for b in range(spec.q):
                e = mu.entry(i, a, b)
                if spec.q == 1:
                    lines.append(f"lambda[{name}] = {to_string(e)}")
                else:
                    lines.append(
                        f"Lambda[{name}][{spec.dependent[a]},{spec.dependent[b]}]"
                        f" = {to_string(e)}"
                    )
    return lines


def run_task(problem: ProblemFile, task: TaskDecl, *, seed) -> TaskRecord:
    spec = problem.spec
    args = _Args(problem, task)
    start = time.perf_counter()
    res = None  # the Check of a checking task
    verdict = None  # the record's word, unless the Check's verdict gives it
    residuals: list = []
    detail: list = []
    try:
        if task.kind == "check-symmetry":
            X = args.named("field")
            eq = args.named("equation")
            lam, mu, path_check = args.get_prolongation()
            args.finish()
            if lam is not None:
                mu = lambda_form(X, lam)
            res = check_symmetry(X, eq, mu, path_check=path_check, seed=seed)
        elif task.kind == "prolong":
            X = args.named("field")
            lam, mu, path_check = args.get_prolongation()
            order = args.get_int("order", spec.order)
            args.finish()
            if lam is not None:
                mu = lambda_form(X, lam)
            Y = lift(X, mu, order, path_check=path_check, seed=seed)
            verdict = PASS
            detail = _field_detail(Y, spec)
        elif task.kind == "check-compat":
            mu = args.named("mu")
            eq = args.named("equation", required=False)
            args.finish()
            if eq is not None:
                res = maurer_cartan_check_on_equation(mu, eq, seed=seed)
            else:
                res = maurer_cartan_check(mu, seed=seed)
        elif task.kind == "potential":
            mu = args.named("mu")
            args.finish()
            phi = scalar_potential(mu)
            verdict = PASS
            detail = [f"potential = {to_string(phi)}"]
        elif task.kind == "darboux":
            gamma = args.named("gauge")
            args.finish()
            mu = darboux_derivative(gamma)
            verdict = PASS
            detail = _mu_detail(mu)
        elif task.kind == "gauge-check":
            X = args.named("field")
            phi = args.get_expr("phi", required=True)
            order = args.get_int("order", spec.order)
            args.finish()
            res = verify_gauge_equivalence_scalar(X, phi, order, seed=seed)
        elif task.kind == "coincide":
            X = args.named("field")
            mu = args.named("mu")
            order = args.get_int("order", spec.order)
            path_check = args.get_flag("path-check")
            args.finish()
            res = coincide_on_invariant_set(
                X, mu, order, path_check=path_check, seed=seed
            )
            if res.vacuous:
                verdict = VACUOUS
                detail = ["invariant set is empty; nothing to check"]
            elif res.unverifiable:
                verdict = UNVERIFIABLE
        else:  # pragma: no cover - load_problem validates kinds
            raise ProblemFileError(f"unknown task kind {task.kind!r}", task.line)
        if res is not None:
            verdict = verdict or _WORDS[res.verdict]
            if res.verdict is not Verdict.TRUE:
                # the nonzero residuals in key order; check-symmetry keeps
                # one line per equation, zeros included
                every = task.kind == "check-symmetry"
                residuals = [to_string(e) for e in res.residuals.values()
                             if every or e != ZERO]
    except ProblemFileError:
        raise
    except JetsymError as err:
        verdict = FAIL
        detail = [f"error: {err}"]
    duration = time.perf_counter() - start
    return TaskRecord(task.task_id, task.kind, verdict, residuals, detail, duration)


def run(problem: ProblemFile, *, seed=None, strict=False) -> Report:
    """Execute the problem file's tasks one after another, in file order."""
    seed = DEFAULT_SEED if seed is None else seed
    report = Report(seed=seed, strict=strict)
    for task in problem.tasks:
        report.records.append(run_task(problem, task, seed=seed))
    return report


# ---------------------------------------------------------------------------
# command line


def _load(path) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return load_problem(handle.read())
    except (OSError, UnicodeDecodeError) as err:
        raise ProblemFileError(f"cannot read {path}: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jetsym",
        description="Prolongation calculus and symmetry checks for ODEs/PDEs",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized zero tests (default fixed)")
    parser.add_argument("--strict", action="store_true",
                        help="escalate probably/vacuous/unverifiable to failures")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the machine-readable report here")
    sub = parser.add_subparsers(dest="command", required=True)
    # one subcommand per task kind, one flag per argument of the kind; the
    # values are checked where a [task] section's are, by run_task
    for kind in (*TASK_ARGS, "run-file"):
        p = sub.add_parser(kind)
        p.add_argument("file", help="problem file with the declarations")
        for name in TASK_ARGS.get(kind, ()):
            if name == "path-check":
                p.add_argument(_flag(name), dest=name, action="store_const",
                               const="true")
            else:
                p.add_argument(_flag(name), dest=name)

    opts = parser.parse_args(argv)
    try:
        problem = _load(opts.file)
        kind = opts.command
        if kind != "run-file":
            args = {name: (getattr(opts, name), _flag(name))
                    for name in TASK_ARGS[kind] if getattr(opts, name) is not None}
            problem.tasks = [TaskDecl(kind, kind, args, None)]
        report = run(problem, seed=opts.seed, strict=opts.strict)
    except ProblemFileError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    print(report.render_text())
    if opts.json:
        try:
            with open(opts.json, "w", encoding="utf-8") as handle:
                json.dump(report.to_json_dict(), handle, indent=2)
                handle.write("\n")
        except OSError as err:
            print(f"input error: cannot write {opts.json}: {err}", file=sys.stderr)
            return 2
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
