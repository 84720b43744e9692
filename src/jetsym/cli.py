"""Batch frontend.

One subcommand per library verb (prolong, check-symmetry, check-compat,
potential, darboux, gauge-check, run-file); every subcommand reads the
declarations of a problem file, run-file also executes its [task]
sections.  Exit codes: 0 all tasks passed, 1 at least one task failed,
2 invalid input.

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
from dataclasses import dataclass, field

from .errors import JetsymError, ProblemFileError
from .expr import DEFAULT_SEED, Verdict, normalize, to_string
from .gauge import (
    darboux_derivative,
    maurer_cartan_check,
    maurer_cartan_check_on_equation,
    scalar_potential,
    verify_gauge_equivalence_scalar,
)
from .parsing import parse
from .problemfile import ProblemFile, TaskDecl, load_problem
from .prolong import (
    prolong_lambda,
    prolong_mu_scalar,
    prolong_mu_vector,
    prolong_standard,
)
from .symmetry import check_symmetry, coincide_on_invariant_set

PASS = "pass"
FAIL = "fail"
PROBABLY = "probably-pass"
VACUOUS = "vacuous-pass"
UNVERIFIABLE = "unverifiable"


@dataclass
class TaskRecord:
    task_id: str
    operation: str
    verdict: str
    residuals: list
    detail: list
    duration: float = 0.0


@dataclass
class Report:
    seed: int
    strict: bool
    records: list = field(default_factory=list)

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


def _word(verdict: Verdict, *, vacuous=False, unverifiable=False) -> str:
    if vacuous:
        return VACUOUS
    if unverifiable:
        return UNVERIFIABLE
    if verdict is Verdict.TRUE:
        return PASS
    if verdict is Verdict.FALSE:
        return FAIL
    return PROBABLY


class _Args:
    """Task argument accessor with typo detection."""

    def __init__(self, task: TaskDecl):
        self.task = task
        self.seen = set()

    def get(self, name, default=None, required=False):
        if name in self.task.args:
            self.seen.add(name)
            return self.task.args[name][0]
        if required:
            raise ProblemFileError(
                f"task {self.task.task_id!r} needs argument {name!r}", self.task.line
            )
        return default

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

    def finish(self):
        extra = set(self.task.args) - self.seen
        if extra:
            raise ProblemFileError(
                f"task {self.task.task_id!r} has unknown argument(s) "
                f"{sorted(extra)}", self.task.line
            )


def _parse_flag(value) -> bool:
    return value is not None and value.lower() in ("true", "yes", "1", "on")


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
    args = _Args(task)
    start = time.perf_counter()
    residuals: list = []
    detail: list = []
    try:
        if task.kind == "check-symmetry":
            X = problem.field_named(args.get("field", required=True), task.line)
            eq = problem.equation_named(args.get("equation", required=True), task.line)
            kind = args.get("kind", default="standard")
            lam_text = args.get("lambda")
            mu_name = args.get("mu")
            path_check = _parse_flag(args.get("path-check"))
            args.finish()
            if kind == "lambda" and lam_text is None:
                raise ProblemFileError(
                    "kind=lambda needs a 'lambda =' argument", task.line
                )
            if kind == "mu" and mu_name is None:
                raise ProblemFileError("kind=mu needs a 'mu =' argument", task.line)
            res = check_symmetry(
                X,
                eq,
                kind,
                lam=parse(lam_text) if lam_text else None,
                mu=problem.mu_named(mu_name, task.line) if mu_name else None,
                path_check=path_check,
                seed=seed,
            )
            verdict = _word(res.verdict)
            if res.verdict is not Verdict.TRUE:
                residuals = [to_string(r) for r in res.residuals]
        elif task.kind == "prolong":
            X = problem.field_named(args.get("field", required=True), task.line)
            kind = args.get("kind", default="standard")
            order = args.get_int("order", spec.order)
            lam_text = args.get("lambda")
            mu_name = args.get("mu")
            path_check = _parse_flag(args.get("path-check"))
            args.finish()
            if kind == "standard":
                Y = prolong_standard(X, order)
            elif kind == "lambda":
                if lam_text is None:
                    raise ProblemFileError(
                        "prolong kind=lambda needs a 'lambda =' argument", task.line
                    )
                Y = prolong_lambda(X, parse(lam_text), order)
            elif kind == "mu":
                if mu_name is None:
                    raise ProblemFileError(
                        "prolong kind=mu needs a 'mu =' argument", task.line
                    )
                mu = problem.mu_named(mu_name, task.line)
                if mu.is_scalar:
                    Y = prolong_mu_scalar(X, mu, order, path_check=path_check, seed=seed)
                else:
                    Y = prolong_mu_vector(X, mu, order, path_check=path_check, seed=seed)
            else:
                raise ProblemFileError(f"unknown prolongation kind {kind!r}", task.line)
            verdict = PASS
            detail = _field_detail(Y, spec)
        elif task.kind == "check-compat":
            mu = problem.mu_named(args.get("mu", required=True), task.line)
            eq_name = args.get("equation")
            args.finish()
            if eq_name:
                res = maurer_cartan_check_on_equation(
                    mu, problem.equation_named(eq_name, task.line), seed=seed
                )
            else:
                res = maurer_cartan_check(mu, seed=seed)
            verdict = _word(res.verdict)
            if res.verdict is not Verdict.TRUE:
                for (i, k), R in sorted(res.residuals.items()):
                    for a, row in enumerate(R):
                        for b, e in enumerate(row):
                            if to_string(e) != "0":
                                residuals.append(to_string(e))
        elif task.kind == "potential":
            mu = problem.mu_named(args.get("mu", required=True), task.line)
            args.finish()
            phi = scalar_potential(mu)
            verdict = PASS
            detail = [f"potential = {to_string(phi)}"]
        elif task.kind == "darboux":
            gamma = problem.gauge_named(args.get("gauge", required=True), task.line)
            args.finish()
            mu = darboux_derivative(gamma)
            verdict = PASS
            detail = _mu_detail(mu)
        elif task.kind == "gauge-check":
            X = problem.field_named(args.get("field", required=True), task.line)
            phi = parse(args.get("phi", required=True))
            order = args.get_int("order", spec.order)
            args.finish()
            res = verify_gauge_equivalence_scalar(X, phi, order, seed=seed)
            verdict = _word(res.verdict)
            if res.verdict is not Verdict.TRUE:
                residuals = [
                    to_string(r) for _J, r in sorted(res.residuals.items(),
                                                     key=lambda kv: kv[0].counts)
                ]
        elif task.kind == "coincide":
            X = problem.field_named(args.get("field", required=True), task.line)
            mu = problem.mu_named(args.get("mu", required=True), task.line)
            order = args.get_int("order", spec.order)
            path_check = _parse_flag(args.get("path-check"))
            args.finish()
            res = coincide_on_invariant_set(
                X, mu, order, path_check=path_check, seed=seed
            )
            verdict = _word(
                res.verdict, vacuous=res.vacuous, unverifiable=res.unverifiable
            )
            if res.verdict is not Verdict.TRUE:
                residuals = [to_string(r) for r in res.residuals.values()]
            if res.vacuous:
                detail = ["invariant set is empty; nothing to check"]
        else:  # pragma: no cover - load_problem validates kinds
            raise ProblemFileError(f"unknown task kind {task.kind!r}", task.line)
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
    except OSError as err:
        raise ProblemFileError(f"cannot read {path}: {err}")


def _single_task(kind, pairs) -> TaskDecl:
    args = {k: (v, None) for k, v in pairs.items() if v is not None}
    return TaskDecl(kind, kind, args, 0)


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

    def add(name, **flags):
        p = sub.add_parser(name)
        p.add_argument("file", help="problem file with the declarations")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add(
        "prolong",
        **{
            "--field": {"required": True},
            "--kind": {"default": "standard", "choices": ["standard", "lambda", "mu"]},
            "--lam": {"dest": "lam", "default": None,
                      "help": "deforming function for kind=lambda"},
            "--mu": {"default": None},
            "--order": {"type": int, "default": None},
            "--path-check": {"action": "store_true"},
        },
    )
    add(
        "check-symmetry",
        **{
            "--field": {"required": True},
            "--equation": {"required": True},
            "--kind": {"default": "standard", "choices": ["standard", "lambda", "mu"]},
            "--lam": {"dest": "lam", "default": None},
            "--mu": {"default": None},
            "--path-check": {"action": "store_true"},
        },
    )
    add("check-compat", **{"--mu": {"required": True}, "--equation": {"default": None}})
    add("potential", **{"--mu": {"required": True}})
    add("darboux", **{"--gauge": {"required": True}})
    add(
        "gauge-check",
        **{
            "--field": {"required": True},
            "--phi": {"required": True},
            "--order": {"type": int, "default": None},
        },
    )
    add("run-file")

    opts = parser.parse_args(argv)
    try:
        problem = _load(opts.file)
        if opts.command == "run-file":
            report = run(problem, seed=opts.seed, strict=opts.strict)
        else:
            pairs = {}
            for key in ("field", "equation", "kind", "mu", "gauge", "phi"):
                if hasattr(opts, key) and getattr(opts, key) is not None:
                    pairs[key] = getattr(opts, key)
            if getattr(opts, "lam", None) is not None:
                pairs["lambda"] = opts.lam
            if getattr(opts, "order", None) is not None:
                pairs["order"] = str(opts.order)
            if getattr(opts, "path_check", False):
                pairs["path-check"] = "true"
            seed = DEFAULT_SEED if opts.seed is None else opts.seed
            report = Report(seed=seed, strict=opts.strict)
            report.records.append(
                run_task(problem, _single_task(opts.command, pairs), seed=seed)
            )
    except ProblemFileError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    print(report.render_text())
    if opts.json:
        with open(opts.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_dict(), handle, indent=2)
            handle.write("\n")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
