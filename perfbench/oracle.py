"""Independent sympy checks of the ``prolong-pde`` report contents.

The standard prolongation has the closed form (Olver, *Applications of
Lie Groups to Differential Equations*, 1986, Thm. 2.36)

    Psi^a_J = D_J Q^a + sum_i xi^i u^a_{J,i},   Q^a = phi^a - sum_i xi^i u^a_i,

which shares no code path with jetsym's one-step recursion.  The Darboux
derivative of a unipotent gauge I + N is D_i N, known from the
construction.  Each mismatching line counts as one failure.

    python perfbench/oracle.py WORKLOAD SEED REPORT.json

regenerates the corpus from the seed and prints
``{"checked": <lines>, "mismatches": [...]}``.
"""

from __future__ import annotations

import json
import re
import sys

import sympy as sp
from sympy.parsing.sympy_parser import parse_expr

from corpus import PDE_ORDER, generate, jet_name, total_derivative

_PSI = re.compile(r"^Psi\[(\w+)\] = (.*)$")
_LAMBDA = re.compile(r"^Lambda\[(\w+)\]\[(\w+),(\w+)\] = (.*)$")


def read_expr(text):
    """A jetsym canonical string as a sympy expression."""
    return parse_expr(text.replace("^", "**"))


def _multi_indices(p, max_order):
    out = []
    for total in range(max_order + 1):
        def rec(prefix, left):
            if len(prefix) == p - 1:
                out.append(prefix + (left,))
                return
            for c in range(left, -1, -1):
                rec(prefix + (c,), left - c)
        rec((), total)
    return out


def standard_prolongation(xi, phi, independent, dependent, max_order):
    """{jet name: Psi^a_J} from the closed-form characteristic formula."""
    p = len(independent)
    unit = [tuple(1 if m == i else 0 for m in range(p)) for i in range(p)]
    out = {}
    for a in range(len(dependent)):
        Q = phi[a] - sum(
            xi[i] * sp.Symbol(jet_name(dependent, independent, a, unit[i]))
            for i in range(p)
        )
        d_q = {(0,) * p: sp.expand(Q)}
        for J in _multi_indices(p, max_order):
            if any(J):
                i = max(m for m in range(p) if J[m])  # canonical last step
                prev = tuple(c - (m == i) for m, c in enumerate(J))
                d_q[J] = sp.expand(total_derivative(d_q[prev], i, independent, dependent))
            psi = d_q[J] + sum(
                xi[i] * sp.Symbol(jet_name(
                    dependent, independent, a, tuple(c + (m == i) for m, c in enumerate(J))
                ))
                for i in range(p)
            )
            out[jet_name(dependent, independent, a, J)] = sp.expand(psi)
    return out


def check_report(corpus, report):
    """(lines checked, mismatches): each mismatch names the task and line."""
    records = {t["id"]: t for t in report["tasks"]}
    checked, bad = 0, []
    if "F0" in corpus.fields:
        xi, phi = corpus.fields["F0"]
        want = standard_prolongation(xi, phi, corpus.independent, corpus.dependent,
                                     PDE_ORDER)
        got = {}
        for line in records.get("prolong-std-0", {"detail": []})["detail"]:
            m = _PSI.match(line)
            if m:
                got[m.group(1)] = (line, m.group(2))
        for name, expr in want.items():
            checked += 1
            if name not in got:
                bad.append(f"prolong-std-0: Psi[{name}] missing")
            elif sp.expand(read_expr(got[name][1]) - expr) != 0:
                bad.append(f"prolong-std-0: {got[name][0][:80]}")
    ind, dep = corpus.independent, corpus.dependent
    for task_id, entries in corpus.darboux.items():
        got = {}
        for line in records.get(task_id, {"detail": []})["detail"]:
            m = _LAMBDA.match(line)
            if m:
                key = (ind.index(m.group(1)), dep.index(m.group(2)), dep.index(m.group(3)))
                got[key] = read_expr(m.group(4))
        for i in range(len(ind)):
            for a in range(len(dep)):
                for b in range(len(dep)):
                    checked += 1
                    want_e = entries.get((i, a, b), sp.Integer(0))
                    if sp.expand(got.get((i, a, b), sp.Integer(0)) - want_e) != 0:
                        bad.append(f"{task_id}: Lambda[{ind[i]}][{dep[a]},{dep[b]}]")
    return checked, bad


def main(argv) -> int:
    workload, seed, report_path = argv[0], int(argv[1]), argv[2]
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    checked, bad = check_report(generate(workload, seed), report)
    print(json.dumps({"checked": checked, "mismatches": bad}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
