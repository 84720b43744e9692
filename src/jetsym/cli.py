"""Batch frontend.

Subcommands: run-file, which executes the [task] sections of a problem
file, and one per task kind (check-symmetry, prolong, check-compat,
potential, darboux, gauge-check, coincide), which runs one task of that
kind on the declarations of a problem file.  ``problemfile.TASK_ARGS``
is the one table of task kinds and of the arguments each reads, which
of them are required, and in what order; ``problemfile.read_args`` reads
them by the rule for each name.  ``run`` reads every task's arguments
before the first task runs, so invalid input anywhere in the file ends
the run (exit 2) before any task computes.  A subcommand's flags are its
task's arguments (``--lam`` gives ``lambda``, a bare ``--path-check``
gives ``path-check = true``), read by the same rules, with the flag
cited in place of a line.  Exit codes: 0 all tasks passed, 1 at least
one task failed, 2 invalid input.

Verdict vocabulary of task records (closed): pass, fail, probably-pass,
vacuous-pass, unverifiable.  A task over a budget is unverifiable, never
fail, with a ``budget: ...`` detail line; today the one budget is
Python's digit limit on printing an integer (4300 digits by default),
which a coefficient can pass during a lift.  The other tasks still run.
With --strict everything except a plain pass fails the run.  Randomized
zero tests derive from --seed (default fixed), and the seed is recorded
in the report; the machine-readable report (--json) contains no
wall-clock fields, so identical inputs and seed give byte-identical
documents.  ``main``, the command line, holds the cyclic garbage
collector off for its run and then restores it: values are acyclic dicts
of tuples, which reference counting frees; ``run`` and the library leave
the collector alone.  ``command_line``, the process entry of ``python -m
jetsym.cli`` and of the ``jetsym`` console script, runs ``main`` and then
freezes the heap (``gc.freeze``), so the interpreter's last collection at
shutdown has no object of the run to walk; atexit handlers still run and
stdout and stderr are still flushed.  A run whose stdout is closed early
(``jetsym run-file f.jsf | head -n 1``) writes the rest of its text to
the null device, still writes its --json report, and exits with the
report's code.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from .errors import BudgetError, JetsymError, ProblemFileError
from .expr import DEFAULT_SEED, ZERO, Verdict, to_string
from .gauge import (
    darboux_derivative,
    maurer_cartan_check,
    scalar_potential,
    verify_gauge_equivalence_scalar,
)
from .problemfile import TASK_ARGS, ProblemFile, TaskDecl, flag, load_problem, read_args
from .prolong import lambda_form, lift
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


def _premise_detail(premise, path_check):
    """The detail line that names the PROBABLY premise of a lift: its
    re-derived edges under a path check, else the form's curvature."""
    what = "path edges (a, J, i)" if path_check else "curvature (i, k, a, b)"
    keys = ", ".join(str(key) for key in premise.probable)
    return f"premise: {PROBABLY} on {what} = {keys}"


def run_task(problem: ProblemFile, task: TaskDecl, *, seed) -> TaskRecord:
    """Run one task whose arguments ``run`` has read into ``task.values``.
    A record that reads ``probably-pass`` only because the lift it rests
    on does (``prolong.lift``'s premise) names that premise in a detail
    line."""
    start = time.perf_counter()
    res = None  # the Check of a checking task
    premise = None  # the Check that a lift rests on
    verdict = None  # the record's word, unless the Check's verdict gives it
    residuals: list = []
    detail: list = []
    a = task.values
    try:
        mu = a.get("mu")
        if a.get("lambda") is not None:
            mu = lambda_form(a["field"], a["lambda"])
        if task.kind == "check-symmetry":
            res = check_symmetry(a["field"], a["equation"], mu,
                                 path_check=a["path-check"], seed=seed)
        elif task.kind == "prolong":
            Y = lift(a["field"], mu, a["order"], path_check=a["path-check"], seed=seed)
            premise = Y.premise
            verdict = _WORDS[premise.verdict]
            detail = _field_detail(Y, problem.spec)
        elif task.kind == "check-compat":
            res = maurer_cartan_check(mu, a["equation"], seed=seed)
        elif task.kind == "potential":
            # scalar_potential verifies its result exactly, and a gauge's
            # given inverse must reduce to the identity exactly: both pass
            verdict = PASS
            detail = [f"potential = {to_string(scalar_potential(mu))}"]
        elif task.kind == "darboux":
            verdict = PASS
            detail = _mu_detail(darboux_derivative(a["gauge"]))
        elif task.kind == "gauge-check":
            res = verify_gauge_equivalence_scalar(a["field"], a["phi"], a["order"], seed=seed)
        else:  # coincide; load_problem accepts no other kind
            res = coincide_on_invariant_set(a["field"], mu, a["order"],
                                            path_check=a["path-check"], seed=seed)
            if res.vacuous:
                verdict = VACUOUS
                detail = ["invariant set is empty; nothing to check"]
            elif res.unverifiable:
                verdict = UNVERIFIABLE
        if res is not None:
            verdict = verdict or _WORDS[res.verdict]
            premise = res.premise
            if res.verdict is not Verdict.TRUE:
                # the nonzero residuals in key order; check-symmetry keeps
                # one line per equation, zeros included
                every = task.kind == "check-symmetry"
                residuals = [to_string(e) for e in res.residuals.values()
                             if every or e != ZERO]
        # with no probable residual, only the premise makes probably-pass
        if verdict == PROBABLY and not (res is not None and res.probable):
            detail = [_premise_detail(premise, a["path-check"]), *detail]
    except BudgetError as err:  # over a budget is never a fail
        verdict = UNVERIFIABLE
        detail = [f"budget: {err}"]
    except JetsymError as err:
        verdict = FAIL
        detail = [f"error: {err}"]
    duration = time.perf_counter() - start
    return TaskRecord(task.task_id, task.kind, verdict, residuals, detail, duration)


def run(problem: ProblemFile, *, seed=None, strict=False) -> Report:
    """Read every task's arguments, then execute the tasks one after
    another, in file order; invalid input stops the run before any task
    computes."""
    for task in problem.tasks:
        task.values = read_args(problem, task)
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
    # jetsym's values are acyclic dicts of tuples that reference counting
    # frees when dropped, so the cyclic collector would only re-walk live ones
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
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
    # values are checked where a [task] section's are, by run
    for kind in (*TASK_ARGS, "run-file"):
        p = sub.add_parser(kind)
        p.add_argument("file", help="problem file with the declarations")
        for name in TASK_ARGS.get(kind, ()):
            if name == "path-check":
                p.add_argument(flag(name), dest=name, action="store_const",
                               const="true")
            else:
                p.add_argument(flag(name), dest=name)

    opts = parser.parse_args(argv)
    try:
        problem = _load(opts.file)
        kind = opts.command
        if kind != "run-file":
            args = {name: (getattr(opts, name), flag(name))
                    for name in TASK_ARGS[kind] if getattr(opts, name) is not None}
            problem.tasks = [TaskDecl(kind, kind, args, None)]
        report = run(problem, seed=opts.seed, strict=opts.strict)
    except ProblemFileError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    try:
        print(report.render_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: send the rest, and the flush at
        # exit, to the null device, and go on to the report and its code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if opts.json:
        try:
            with open(opts.json, "w", encoding="utf-8") as handle:
                json.dump(report.to_json_dict(), handle, indent=2)
                handle.write("\n")
        except OSError as err:
            print(f"input error: cannot write {opts.json}: {err}", file=sys.stderr)
            return 2
    return report.exit_code


def command_line() -> int:
    """The process entry: ``main`` on ``sys.argv``, then ``gc.freeze()``.
    The interpreter's last collection at shutdown would walk every object
    of the process, whose memory the operating system takes back anyway;
    unlike ``os._exit``, freezing still lets atexit handlers run and
    stdout and stderr flush."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(command_line())
